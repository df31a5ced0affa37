#!/usr/bin/env python3
# Enumerate the translation-invariant fixed points of the wand model and
# show how the solution count changes at the critical coupling.
import math

import numpy as np

from hcsos import enumerate_solutions, theta_cr
from hcsos.tisgm import compatibility_residual, eta

for k in (2, 3, 5):
    print(f"k = {k}: theta_cr = {theta_cr(k):.6f} "
          f"(peak of the level function: eta(1) = {eta(1.0, k):.4f})")
print()

k = 3
tc = theta_cr(k)
print(f"solution counts across the transition at k = {k}:")
for theta in np.linspace(0.4, 2.0 * tc, 9):
    sset = enumerate_solutions(k, float(theta))
    tags = ", ".join(
        f"{s.branch.value}(x={s.x:.4f}, y={s.y:.4f})" for s in sset.solutions
    )
    print(f"  theta = {theta:6.3f}  ->  {len(sset)} solution(s): {tags}")
print()

# below the threshold the asymmetric pair is exactly reciprocal and both
# members satisfy the fixed-point system to solver accuracy
theta = 0.9
sset = enumerate_solutions(k, theta)
_, upper, lower = sset.solutions
print(f"reciprocity at k={k}, theta={theta}: x_upper * x_lower - 1 = "
      f"{upper.x * lower.x - 1.0:.2e}")
for s in sset.solutions:
    res = compatibility_residual(k, theta, s.x, s.y)
    print(f"  {s.branch.value:<10} residual = {res:.2e}")
print()

# for k = 2 the pair has a closed form through rho = x + 1/x, the root
# above 2 of theta^3 rho^2 - rho - 2 = 0; the bracketed solver matches it
theta = 0.7
t3 = theta**3
rho = (1.0 + math.sqrt(1.0 + 8.0 * t3)) / (2.0 * t3)
_, upper, lower = enumerate_solutions(2, theta).solutions
print(f"k=2 closed form vs bracketed solver at theta={theta}:")
print(f"  rho: {rho!r} vs x_upper + x_lower = {upper.x + lower.x!r} "
      f"(gap {abs(rho - upper.x - lower.x):.2e})")
