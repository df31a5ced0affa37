#!/usr/bin/env python3
# Transition kernels of the tree-indexed chains: spectra (closed form vs
# generic eigensolver), stationary distributions, row-distance witnesses.
import numpy as np

from hcsos import (
    kappa_of,
    kernel_of,
    solve_asymmetric,
    solve_symmetric,
    spectrum_asymmetric_k2,
    spectrum_numeric,
    spectrum_symmetric,
    stationary,
    theta_cr,
)

np.set_printoptions(precision=6, suppress=True)

k, theta = 3, 0.7
sol = solve_symmetric(k, theta)
kern = kernel_of(sol, k, theta)
print(f"symmetric kernel at k={k}, theta={theta}:")
print(kern.p)
closed = spectrum_symmetric(sol.y, theta, k)
numeric = spectrum_numeric(kern)
print(f"eigenvalues, closed form: {closed.eigenvalues}")
print(f"eigenvalues, deflated quadratic: {numeric.eigenvalues}")
print(f"s2 gap: {abs(closed.s2 - numeric.s2):.2e}")
print(f"stationary distribution: {stationary(kern)}")
print(f"kappa = {kappa_of(kern)!r} (MSW uses k kappa^2: gamma equals kappa)")
print()

# the k = 2 asymmetric kernel collapses to a one-parameter family in x;
# its s2 is invariant under x -> 1/x
theta = 0.8
upper, lower = solve_asymmetric(2, theta)
for s in (upper, lower):
    rep = spectrum_asymmetric_k2(s.x)
    print(f"x = {s.x:8.4f}: s2 = {rep.s2!r}")
print()

# for k >= 3 asymmetric kernels the generic route is the only one
k = 4
theta = 0.9 * theta_cr(k)
upper = solve_asymmetric(k, theta)[0]
kern = kernel_of(upper, k, theta)
rep = spectrum_numeric(kern)
print(f"k={k} upper-branch kernel at theta = 0.9 theta_cr:")
print(f"  eigenvalues {rep.eigenvalues} (all real)")
print(f"  kappa = {kappa_of(kern):.6f}")
