#!/usr/bin/env python3
# Transition kernels of the tree-indexed chains: s2 from the path-graph
# identities (checked against a generic eigensolver), the stationary law
# and the row-distance witness kappa.
import numpy as np

from hcsos import (
    classify_solution,
    kernel_of,
    solve_asymmetric,
    solve_symmetric,
    stationary,
    theta_cr,
)

np.set_printoptions(precision=6, suppress=True)


def matrix(kern):
    """The 3x3 kernel from its six entries, zeros off the wand graph."""
    p00, p01, p10, p12, p21, p22 = kern
    return np.array([[p00, p01, 0.0], [p10, 0.0, p12], [0.0, p21, p22]])


def eigvals_s2(kern):
    """Second-largest eigenvalue modulus from numpy's generic eigensolver."""
    return float(sorted(np.abs(np.linalg.eigvals(matrix(kern))))[-2])


k, theta = 3, 0.7
sol = solve_symmetric(k, theta)
kern = kernel_of(sol, k, theta)
verdict = classify_solution(k, theta, sol)
print(f"symmetric kernel at k={k}, theta={theta}:")
print(matrix(kern))
print(f"s2, path-graph identities: {verdict.s2!r}")
print(f"s2, numpy eigvals:         {eigvals_s2(kern)!r}")
pi = np.array(stationary(kern))
print(f"stationary distribution: {pi}")
print(f"  max |pi P - pi| = {np.max(np.abs(pi @ matrix(kern) - pi)):.1e}")
print(f"kappa = {verdict.kappa!r} (MSW uses k kappa^2: gamma equals kappa)")
print()

# the k = 2 asymmetric kernels have eigenvalues +-s2 (trace 1), and s2 is
# invariant under x -> 1/x
theta = 0.8
for s in solve_asymmetric(2, theta):
    s2 = classify_solution(2, theta, s).s2
    generic = eigvals_s2(kernel_of(s, 2, theta))
    print(f"x = {s.x:8.4f}: s2 = {s2!r}, numpy eigvals {generic!r}")
print()

# k >= 3 upper branches; at k = 12, theta = 0.055 the root is far from
# x = 1 and s2 ~ 4e-17, still with full relative accuracy because the
# formula never subtracts nearly equal numbers
for k, theta in ((4, 0.9 * theta_cr(4)), (12, 0.055)):
    upper = solve_asymmetric(k, theta)[0]
    kern = kernel_of(upper, k, theta)
    verdict = classify_solution(k, theta, upper)
    print(f"k={k} upper-branch kernel at theta = {theta:.4f}:")
    print(f"  s2 = {verdict.s2!r}, numpy eigvals {eigvals_s2(kern)!r}")
    print(f"  stationary {list(stationary(kern))}")
    print(f"  kappa = {verdict.kappa:.6f}")
