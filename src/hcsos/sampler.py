"""Monte Carlo sampling of admissible configurations on finite subtrees.

Vertices are indexed in level order with the root at 0.  The root of a
Cayley tree has k + 1 children and every other internal vertex has k, so
level sizes are 1, k+1, (k+1)k, (k+1)k^2, ...  The children of one parent
are contiguous in the next level, so a level's parent spins are its
parent level's spins, each repeated once per child; no tree structure is
ever allocated.

The root spin is drawn from the stationary distribution of the kernel
and every child spin from its parent's row, independently across
children.

``sample`` draws one configuration vertex by vertex.  Its uniforms come
from one counter-based Philox stream keyed by the seed, the uniform of
vertex i being draw i of the stream, so the draw consumed by a vertex is
fixed by (seed, vertex id) alone.  Spins are read off by inverse CDF
over the exact row probabilities, whose cumulative rows are snapped to 1
where the remaining row mass is exactly zero, so zero-probability
(inadmissible) transitions can never fire.  It draws the uniforms of a
level ``_UNIFORMS_AT_ONCE`` at a time, so it holds little more than one
int8 spin per vertex; one sample is capped at ``MAX_VERTICES`` vertices,
checked by ``TreeConfig`` before anything is allocated.

``estimate_marginals`` keeps only the per-level spin counts and the
pair table summed over n samples, and draws those from their exact law
with O(depth) binomial variates and O(depth) memory, never touching a
vertex.  The root spins of n samples are Multinomial(n, pi), drawn as
n0 ~ Bin(n, pi0) and n1 ~ Bin(n - n0, pi1 / (pi1 + pi2)).  At a level
whose parent level counts N_a spins in state a, m_a = c N_a children
have a parent in state a, with c = k + 1 under the root and k below it.
By the wand zero pattern P02 = P11 = P20 = 0 each such child has two
possible states and takes the larger with probability q_a = P01, P12
or P22, independently, so the number n_a that do is Bin(m_a, q_a) (a
sum of independent binomials with one p is binomial), and the level's
pair table is [[m0-n0, n0, 0], [m1-n1, 0, n1], [0, m2-n2, n2]].  This is
the multitype branching-process reduction (Athreya and Ney, *Branching
Processes*, 1972): the counts have exactly the law they have under n
independent vertex-by-vertex samples, and forbidden pairs are zero by
construction.  The variates come from one ``random.Random`` seeded with
the tree's seed, through ``_binomial``, so the counts are fixed by the
seed and the request on every supported Python.  A request of more than
``MAX_VERTEX_SAMPLES`` vertex-samples is refused before drawing.  The
counts are ints and the frequencies floats: only ``sample``, whose
spins are an array, imports numpy, in its body.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .chain import TransitionKernel, stationary

if TYPE_CHECKING:
    import numpy as np

# Largest vertex count of one sample; ``sample`` holds one int8 spin per
# vertex.
MAX_VERTICES = 1 << 26
# Uniforms that ``sample`` draws at once (512 KiB of float64).
_UNIFORMS_AT_ONCE = 1 << 16
# Largest n_samples * V that ``estimate_marginals`` counts, which bounds the
# n of every binomial it draws.  ``_binomial``'s rejection test subtracts
# lgamma values of size n log n, whose rounding (ulp 0.004 at 2^40, 0.25 at
# 2^46) visibly skews the law above about 2^45.
MAX_VERTEX_SAMPLES = 1 << 40


@dataclass(frozen=True)
class TreeConfig:
    """Finite subtree: branching k, depth (levels below the root), RNG seed."""

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
        # V > k^depth, so past 2^60 the exact count is never needed
        if self.depth * math.log2(self.k) > 60:
            size = f"more than {self.k}^{self.depth}"
        elif self.vertex_count > MAX_VERTICES:
            size = str(self.vertex_count)
        else:
            return
        raise ValueError(
            f"tree too large to sample: k={self.k}, depth={self.depth} has "
            f"V = {size} vertices, above the limit of {MAX_VERTICES} per sample"
        )

    @property
    def level_sizes(self) -> tuple[int, ...]:
        sizes = [1]
        for level in range(1, self.depth + 1):
            sizes.append((self.k + 1) * self.k ** (level - 1))
        return tuple(sizes)

    @property
    def level_offsets(self) -> tuple[int, ...]:
        offsets = [0]
        for size in self.level_sizes:
            offsets.append(offsets[-1] + size)
        return tuple(offsets)

    @property
    def vertex_count(self) -> int:
        return self.level_offsets[-1]


@dataclass(frozen=True)
class Configuration:
    """Spins on the subtree, indexed in level order."""

    spins: np.ndarray
    tree: TreeConfig

    def __post_init__(self) -> None:
        if self.spins.shape != (self.tree.vertex_count,):
            raise ValueError(
                f"expected {self.tree.vertex_count} spins, got {self.spins.shape}"
            )
        self.spins.setflags(write=False)


@dataclass(frozen=True)
class EmpiricalStats:
    """Level-wise spin frequencies and aggregate edge-pair frequencies.

    ``pair_counts[a][b]`` is the number of parent-child edges with parent
    spin a and child spin b over all samples; ``pair_frequencies`` is it
    normalised.  Counts are ints and each frequency is count / total,
    rounded once as in float64, since no count reaches 2^53.
    """

    level_frequencies: tuple[tuple[float, float, float], ...]
    pair_frequencies: tuple[tuple[float, float, float], ...]
    n_samples: int
    pair_counts: tuple[tuple[int, int, int], ...]


def _snapped_cumulative(p: np.ndarray) -> np.ndarray:
    import numpy as np

    cum = np.cumsum(p, axis=1)
    cum[:, -1] = 1.0
    zero_tail = p[:, 2] == 0.0
    cum[zero_tail, 1] = 1.0
    cum[zero_tail & (p[:, 1] == 0.0), 0] = 1.0
    return cum


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


def sample(kern: TransitionKernel, cfg: TreeConfig) -> Configuration:
    """One admissible configuration, deterministic in cfg.seed: vertex i
    takes draw i of the seed's Philox stream."""
    import numpy as np

    stream = np.random.Generator(np.random.Philox(key=cfg.seed))
    spins = np.empty(cfg.vertex_count, dtype=np.int8)
    # u < 1 never reaches the last entry of a cumulative row, so two
    # comparisons read off a spin
    u = stream.random()
    pi_cum = np.cumsum(stationary(kern))
    spins[0] = int(u >= pi_cum[0]) + int(u >= pi_cum[1])
    cum = _snapped_cumulative(kern.p)
    offsets = cfg.level_offsets
    for level in range(1, cfg.depth + 1):
        per_parent = cfg.k + (level == 1)
        step = -(-_UNIFORMS_AT_ONCE // per_parent)  # parents per block
        for lo in range(offsets[level - 1], offsets[level], step):
            rows = cum[spins[lo : min(lo + step, offsets[level])]]
            # a parent's children are consecutive: one row of u per parent
            u = stream.random((len(rows), per_parent))
            first = offsets[level] + (lo - offsets[level - 1]) * per_parent
            block = spins[first : first + u.size].reshape(u.shape)
            block[...] = u >= rows[:, :1]
            block += u >= rows[:, 1:2]
    return Configuration(spins=spins, tree=cfg)


def estimate_marginals(
    kern: TransitionKernel, cfg: TreeConfig, n_samples: int
) -> EmpiricalStats:
    """Empirical per-level spin distributions over independent samples,
    drawn from the exact law of the counts (see the module docstring)."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if n_samples * cfg.vertex_count > MAX_VERTEX_SAMPLES:
        raise ValueError(
            f"too many vertex-samples to count: {n_samples} samples of "
            f"V = {cfg.vertex_count} vertices exceed the limit of 2^40"
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
        n_samples=n_samples,
        pair_counts=pair_counts,
    )
