"""Monte Carlo statistics of admissible configurations on finite subtrees.

The root of a Cayley tree has k + 1 children and every other internal
vertex has k, so level sizes are 1, k+1, (k+1)k, (k+1)k^2, ...; no tree
structure is ever allocated.

The root spin is drawn from the stationary distribution of the kernel
and every child spin from its parent's row, independently across
children.  By the wand zero pattern P02 = P11 = P20 = 0 a child of a
parent in state a = 0, 1 or 2 has two admissible states, {0, 1}, {0, 2}
or {1, 2}, and takes the larger with probability q_a = P01, P12 or P22.

``estimate_marginals`` keeps only the per-level spin counts and the
pair table summed over n samples, and draws those from their exact law
with O(depth) binomial variates and O(depth) memory, never touching a
vertex.  The root spins of n samples are Multinomial(n, pi), drawn as
n0 ~ Bin(n, pi0) and n1 ~ Bin(n - n0, pi1 / (pi1 + pi2)).  At a level
whose parent level counts N_a spins in state a, m_a = c N_a children
have a parent in state a, with c = k + 1 under the root and k below it.
The number n_a of them that take the larger state is Bin(m_a, q_a) (a
sum of independent binomials with one p is binomial), and the level's
pair table is [[m0-n0, n0, 0], [m1-n1, 0, n1], [0, m2-n2, n2]].  This is
the multitype branching-process reduction (Athreya and Ney, *Branching
Processes*, 1972): the counts have exactly the law they have under n
independent vertex-by-vertex samples, and forbidden pairs are zero by
construction.  The variates come from one ``random.Random`` seeded with
the tree's seed, through ``_binomial``, so the counts are fixed by the
seed and the request on every supported Python.  The one bound on a
request is ``MAX_VERTEX_SAMPLES``: more vertex-samples than that are
refused before drawing, and a tree of any size is accepted.  The
counts are ints and the frequencies floats; no array is built.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .chain import TransitionKernel, stationary

# Largest n_samples * V that ``estimate_marginals`` counts, which bounds the
# n of every binomial it draws.  ``_binomial``'s rejection test subtracts
# lgamma values of size n log n, whose rounding (ulp 0.004 at 2^40, 0.25 at
# 2^46) visibly skews the law above about 2^45.
MAX_VERTEX_SAMPLES = 1 << 40


@dataclass(frozen=True)
class TreeConfig:
    """Finite subtree: branching k, depth (levels below the root), RNG seed.

    Any size is accepted; ``estimate_marginals`` bounds the work of a request.
    """

    k: int
    depth: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"branching k must be >= 2, got {self.k}")
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")

    @property
    def vertex_count(self) -> int:
        # 1 root, k + 1 children of the root, then a factor k per level
        return 1 + (self.k + 1) * (self.k**self.depth - 1) // (self.k - 1)


@dataclass(frozen=True)
class EmpiricalStats:
    """Level-wise spin frequencies and aggregate edge-pair frequencies.

    ``pair_counts[a][b]`` is the number of parent-child edges with parent
    spin a and child spin b over all samples; ``pair_frequencies`` is it
    normalised.  Counts are ints and each frequency is count / total,
    rounded once as in float64, since no count reaches 2^53.  The number
    of samples is the caller's own argument and is not stored.
    """

    level_frequencies: tuple[tuple[float, float, float], ...]
    pair_frequencies: tuple[tuple[float, float, float], ...]
    pair_counts: tuple[tuple[int, int, int], ...]


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """Binomial(n, p) variate from the uniforms of rng.

    A port of ``random.Random.binomialvariate`` from CPython 3.12's
    Lib/random.py (Python Software Foundation licence), so that every
    supported Python takes the same draws: Devroye's geometric method
    when n p < 10, Hoermann's transformed rejection with squeeze (BTRS)
    otherwise, after reflecting p > 0.5 to 1 - p.
    """
    if p <= 0.0 or p >= 1.0:
        if p == 0.0:
            return 0
        if p == 1.0:
            return n
        raise ValueError("p must be in the range 0.0 <= p <= 1.0")

    uniform = rng.random

    if n == 1:
        return int(uniform() < p)

    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)

    if n * p < 10.0:
        # Geometric method (Devroye): O(n p) uniforms, one per success.
        x = y = 0
        c = math.log2(1.0 - p)
        if not c:
            return x
        while True:
            y += math.floor(math.log2(uniform()) / c) + 1
            if y > n:
                return x
            x += 1

    # BTRS (Hoermann): transformed rejection with a squeeze.
    setup_complete = False
    spq = math.sqrt(n * p * (1.0 - p))  # standard deviation
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    vr = 0.92 - 4.2 / b

    while True:
        u = uniform()
        u -= 0.5
        us = 0.5 - math.fabs(u)
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue

        # the squeeze accepts most draws without the log-pmf test
        v = uniform()
        if us >= 0.07 and v <= vr:
            return k

        if not setup_complete:
            alpha = (2.83 + 5.1 / b) * spq
            lpq = math.log(p / (1.0 - p))
            m = math.floor((n + 1) * p)  # mode
            h = math.lgamma(m + 1) + math.lgamma(n - m + 1)
            setup_complete = True
        v *= alpha / (a / (us * us) + b)
        if math.log(v) <= (
            h - math.lgamma(k + 1) - math.lgamma(n - k + 1) + (k - m) * lpq
        ):
            return k


def estimate_marginals(
    kern: TransitionKernel, cfg: TreeConfig, n_samples: int
) -> EmpiricalStats:
    """Empirical per-level spin distributions over independent samples,
    drawn from the exact law of the counts (see the module docstring)."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    # V > k^depth, so past 2^60 the exact count is never needed
    huge = cfg.depth * math.log2(cfg.k) > 60
    if huge or n_samples * cfg.vertex_count > MAX_VERTEX_SAMPLES:
        size = f"more than {cfg.k}^{cfg.depth}" if huge else cfg.vertex_count
        raise ValueError(
            f"too many vertex-samples to count: {n_samples} samples of "
            f"V = {size} vertices exceed the limit of 2^40"
        )
    rng = random.Random(cfg.seed)
    pi0, pi1, pi2 = stationary(kern)
    n0 = _binomial(rng, n_samples, pi0)
    n1 = _binomial(rng, n_samples - n0, pi1 / (pi1 + pi2))
    above = [n0, n1, n_samples - n0 - n1]
    level_counts = [above]
    # per parent state, the probability of the larger of a child's two states
    q = (kern.p01, kern.p12, kern.p22)
    m_sum, n_sum = [0, 0, 0], [0, 0, 0]
    for level in range(1, cfg.depth + 1):
        # children per parent: k + 1 under the root, k below
        m = [c * (cfg.k + (level == 1)) for c in above]
        n = [_binomial(rng, ma, qa) for ma, qa in zip(m, q)]
        # each child has one parent: its level's spin counts are the column
        # sums of the level's pair table
        above = [m[0] - n[0] + m[1] - n[1], n[0] + m[2] - n[2], n[1] + n[2]]
        level_counts.append(above)
        m_sum = [s + x for s, x in zip(m_sum, m)]
        n_sum = [s + x for s, x in zip(n_sum, n)]
    # the levels' pair tables, summed
    (m0, m1, m2), (n0, n1, n2) = m_sum, n_sum
    pair_counts = ((m0 - n0, n0, 0), (m1 - n1, 0, n1), (0, m2 - n2, n2))
    # a tree of depth 0 has no edge, and its pair frequencies are 0.0
    edges = sum(m_sum) or 1
    return EmpiricalStats(
        level_frequencies=tuple(
            tuple(c / sum(counts) for c in counts) for counts in level_counts
        ),
        pair_frequencies=tuple(tuple(c / edges for c in row) for row in pair_counts),
        pair_counts=pair_counts,
    )
