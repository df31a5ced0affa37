#!/usr/bin/env python3
# Forward iteration of the boundary-law map: convergence, two-cycles,
# seeding at known solutions, and the exploratory m = 4 system.
from hcsos import (
    BoundaryLaw,
    ModelParams,
    enumerate_solutions,
    iterate_boundary_law,
)

def describe(tag, outcome, k=None):
    if outcome.converged:
        z = outcome.law.z
        msg = f"converged in {outcome.iterations} it., z = {tuple(round(v, 8) for v in z)}"
        if k is not None and len(z) == 3:
            msg += f" -> (x, y) = ({z[0] ** (1 / k):.8f}, {z[1] ** (1 / k):.8f})"
    else:
        a, b = outcome.tail[-2][1], outcome.tail[-1][1]
        msg = (f"no convergence after {outcome.iterations} it.; "
               f"oscillates between z1 ~ {a:.4f} and {b:.4f}")
    print(f"  {tag}: {msg}")


# below theta = 1 the all-ones start flows to the symmetric fixed point
print("m = 2, k = 2:")
for theta in (0.5, 0.8):
    out = iterate_boundary_law(ModelParams(k=2, theta=theta), tol=1e-12)
    describe(f"theta = {theta}, from ones", out, k=2)

# above theta = 1 the symmetric point repels plain iteration (the scalar
# map slope exceeds 1) and a two-cycle appears; the fixed point is still
# verified by seeding the iteration at it
theta = 1.5
out = iterate_boundary_law(ModelParams(k=2, theta=theta), max_iter=3000)
describe(f"theta = {theta}, from ones", out, k=2)
sym = enumerate_solutions(2, theta).solutions[0]
seeded = iterate_boundary_law(
    ModelParams(k=2, theta=theta), BoundaryLaw((sym.x**2, sym.y**2, 1.0))
)
describe(f"theta = {theta}, seeded at the solution", seeded, k=2)

# asymmetric solutions are reachable when seeded on their branch
theta = 0.6
sset = enumerate_solutions(2, theta)
for sol in sset.solutions[1:]:
    seeded = iterate_boundary_law(
        ModelParams(k=2, theta=theta), BoundaryLaw((sol.x**2, sol.y**2, 1.0))
    )
    describe(f"theta = {theta}, seeded at {sol.branch.value}", seeded, k=2)

# the m = 4 system is exploratory: convergence is checked by the map
# residual only (the last step of one more iteration from the limit),
# with no claim about how many fixed points exist
print("\nm = 4, k = 2:")
params = ModelParams(k=2, theta=0.8, m=4)
out = iterate_boundary_law(params, max_iter=100_000, tol=1e-12)
describe("theta = 0.8, from ones", out)
if out.converged:
    residual = iterate_boundary_law(params, out.law, max_iter=1).residual
    print(f"  map residual of the limit: {residual:.2e}")
