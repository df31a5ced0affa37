#!/usr/bin/env python3
# Reproduce the extremality phase diagram: thresholds for k = 2, 3 and
# verdict bands along the coupling axis.
import numpy as np

from hcsos import Measure, classify_solution, solution_of, theta_cr, thresholds


# a measure's verdict: its fixed point from solution_of, then the two
# criteria on that point's chain
def classify(k, theta, measure):
    return classify_solution(k, theta, solution_of(k, theta, measure))


for k in (2, 3):
    print(f"k = {k} thresholds:")
    for t in thresholds(k).values():
        closed = f"{t.closed_form!r}" if t.closed_form is not None else "(none)"
        print(f"  {t.name}: root-found {t.root_found!r}, closed form {closed}")
print()

# the symmetric measure: NonExtreme / Extreme / NonExtreme bands for
# k = 2 and 3, never Extreme once k >= 4
for k in (2, 3, 4):
    verdicts = []
    grid = np.linspace(0.15, 3.0, 24)
    for theta in grid:
        verdicts.append(classify(k, float(theta), Measure.MU0).verdict.value[0])
    print(f"k = {k} symmetric-measure band (E=Extreme, N=NonExtreme, U=Und.):")
    print("  theta:", " ".join(f"{t:5.2f}" for t in grid))
    print("       :", " ".join(f"{v:>5}" for v in verdicts))
print()

# asymmetric measures at k = 2 exist only below theta_cr(2) = 1 and are
# provably extreme on a window just below it
print(f"asymmetric measures at k = 2 (exist for theta < {theta_cr(2)}):")
for theta in (0.5, 0.9, 0.955, 0.99):
    v = classify(2, theta, Measure.MU1)
    print(f"  theta = {theta:5.3f}: {v.verdict.value:<13} "
          f"(2 kappa^2 = {v.msw_value:.4f}, 2 s2^2 = {v.ks_value:.4f})")
