#!/usr/bin/env python3
# Transition kernels of the tree-indexed chains: the path-graph spectrum
# and stationary law (checked against a generic eigensolver), row-distance
# witnesses.
import numpy as np

from hcsos import (
    kappa_of,
    kernel_of,
    solve_asymmetric,
    solve_symmetric,
    spectrum_numeric,
    stationary,
    theta_cr,
)

np.set_printoptions(precision=6, suppress=True)

k, theta = 3, 0.7
sol = solve_symmetric(k, theta)
kern = kernel_of(sol, k, theta)
print(f"symmetric kernel at k={k}, theta={theta}:")
print(kern.p)
rep = spectrum_numeric(kern)
generic = sorted(map(float, np.linalg.eigvals(kern.p).real), key=abs, reverse=True)
print(f"eigenvalues, path-graph identities: {rep.eigenvalues}")
print(f"eigenvalues, numpy eigvals:         {tuple(generic)}")
pi = stationary(kern)
print(f"stationary distribution: {pi}")
print(f"  max |pi P - pi| = {np.max(np.abs(pi @ kern.p - pi)):.1e}")
print(f"kappa = {kappa_of(kern)!r} (MSW uses k kappa^2: gamma equals kappa)")
print()

# the k = 2 asymmetric kernels have eigenvalues +-s2 (trace 1), and s2 is
# invariant under x -> 1/x
theta = 0.8
upper, lower = solve_asymmetric(2, theta)
for s in (upper, lower):
    rep = spectrum_numeric(kernel_of(s, 2, theta))
    print(f"x = {s.x:8.4f}: eigenvalues {rep.eigenvalues}")
print()

# k >= 3 upper branches; at k = 12, theta = 0.055 the root is far from
# x = 1 and s2 ~ 4e-17, still with full relative accuracy because the
# formula never subtracts nearly equal numbers
for k, theta in ((4, 0.9 * theta_cr(4)), (12, 0.055)):
    upper = solve_asymmetric(k, theta)[0]
    kern = kernel_of(upper, k, theta)
    rep = spectrum_numeric(kern)
    print(f"k={k} upper-branch kernel at theta = {theta:.4f}:")
    print(f"  eigenvalues {rep.eigenvalues}")
    print(f"  stationary {[float(v) for v in stationary(kern)]}")
    print(f"  kappa = {kappa_of(kern):.6f}")
