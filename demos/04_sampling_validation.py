#!/usr/bin/env python3
# Draw admissible configurations from a measure's chain and compare the
# empirical statistics against the analytic stationary distribution.
import numpy as np

from hcsos import (
    TreeConfig,
    estimate_marginals,
    kernel_of,
    sample,
    solve_asymmetric,
    stationary,
)

np.set_printoptions(precision=4, suppress=True)

theta = 0.9
upper = solve_asymmetric(2, theta)[0]
kern = kernel_of(upper, 2, theta)
pi = np.array(stationary(kern))
print(f"upper-branch measure at k=2, theta={theta}")
print(f"analytic stationary distribution: {pi}")

cfg = TreeConfig(k=2, depth=4, seed=7)
config = sample(kern, cfg)
print(f"\none configuration on {cfg.vertex_count} vertices "
      f"(depth {cfg.depth}, seed {cfg.seed}):")
print(config.spins)

n = 50_000
stats = estimate_marginals(kern, cfg, n)
print(f"\nlevel marginals over {n} independent samples:")
for level, freq in enumerate(map(np.array, stats.level_frequencies)):
    gap = np.max(np.abs(freq - pi))
    print(f"  level {level}: {freq}  (max gap to stationary {gap:.4f})")

pc = np.array(stats.pair_counts)
print(f"inadmissible parent-child pairs: {pc[0, 2] + pc[1, 1] + pc[2, 0]} "
      f"of {pc.sum()} edges")
print("\nedge-pair frequencies (rows: parent spin, cols: child spin):")
print(np.array(stats.pair_frequencies))
print("analytic edge law pi_i P_ij:")
print(pi[:, None] * kern.p)
print("\nnote the exact zeros on the inadmissible pairs (0,2), (1,1), (2,0)")
