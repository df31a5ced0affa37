"""Monte Carlo sampling of admissible configurations on finite subtrees.

Vertices are indexed in level order with the root at 0.  The root of a
Cayley tree has k + 1 children and every other internal vertex has k, so
level sizes are 1, k+1, (k+1)k, (k+1)k^2, ...  The children of one parent
are contiguous in the next level, so a level's parent spins are its
parent level's spins, each repeated once per child; no tree structure is
ever allocated.

The root spin is drawn from the stationary distribution of the kernel
and every child spin from its parent's row, independently across
children.  Uniform variates come from one counter-based Philox stream
keyed by the seed, laid out as one column per vertex (and one row per
sample), so the draw consumed by a vertex is fixed by (seed, sample,
vertex id) alone: regeneration order cannot change the result.  The
stream is drawn in chunks of about ``_CHUNK`` vertex-samples (whole
sample rows); successive draws continue the stream, so the spins equal
those of one draw of every row at once, while memory stays O(chunk·V)
for V vertices whatever the number of samples.  One sample row is capped
at ``MAX_VERTICES`` vertices, checked by ``TreeConfig`` before anything
is allocated.

Spins are read off by inverse CDF over the exact row probabilities, with
one live comparison per child.  The cumulative rows are snapped to 1
where the remaining row mass is exactly zero, so zero-probability
(inadmissible) transitions can never fire, and the wand zero pattern
P02 = P11 = P20 = 0 then leaves one comparison of each row constant:
c01 = 1, which u < 1 never reaches; c11 = c10 + 0 exactly; and c20 = 0,
which every u reaches.  So the two-comparison rule (u >= c_a0) +
(u >= c_a1) reduces, bit for bit, to [u >= c00], 2 [u >= c10] and
1 + [u >= c21] for a parent in state a = 0, 1, 2.  The three comparisons
of each uniform are packed once per chunk into bits = [u >= c00] +
2 [u >= c10] + 4 [u >= c21]; a child of a parent in state a takes
b = bit a of it and the state b + (b & a) + (a >> 1).

``sample`` and ``estimate_marginals`` share this one draw; the latter
keeps only integer counts.  The number n_a of children whose parent is
in state a and whose bit b is set fixes the level's pair table, because
those children number m_a, the parent level's count of a times the
children per parent: [[m0-n0, n0, 0], [m1-n1, 0, n1], [0, m2-n2, n2]].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .chain import TransitionKernel, stationary

# Vertex-samples per draw from the stream.
_CHUNK = 1 << 17
# Largest vertex count of one sample row; a row of uniforms is 8 B a vertex.
MAX_VERTICES = 1 << 26


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

    ``pair_counts[a, b]`` is the number of parent-child edges with parent
    spin a and child spin b over all samples; ``pair_frequencies`` is it
    normalised.
    """

    level_frequencies: tuple[np.ndarray, ...]
    pair_frequencies: np.ndarray
    n_samples: int
    pair_counts: np.ndarray


def _snapped_cumulative(p: np.ndarray) -> np.ndarray:
    cum = np.cumsum(p, axis=1)
    cum[:, -1] = 1.0
    zero_tail = p[:, 2] == 0.0
    cum[zero_tail, 1] = 1.0
    cum[zero_tail & (p[:, 1] == 0.0), 0] = 1.0
    return cum


def _draw(
    kern: TransitionKernel, cfg: TreeConfig, n: int
) -> Iterator[list[tuple[np.ndarray, list[int]]]]:
    """Spins of n samples, one chunk of rows at a time.

    Each chunk is a list with one (spins, counts) pair per level.  spins
    is an int8 array of shape (rows, level size); row r of every array
    belongs to the same sample.  The root's counts are its spin counts;
    a lower level's are n_0, n_1, n_2, the children with bit b set per
    parent state.
    """
    v = cfg.vertex_count
    rows = max(1, _CHUNK // v)
    stream = np.random.Generator(np.random.Philox(key=cfg.seed))
    pi_cum = np.cumsum(stationary(kern))
    cum = _snapped_cumulative(kern.p)
    offsets = cfg.level_offsets
    for start in range(0, n, rows):
        u = stream.random((min(rows, n - start), v))
        # u < 1 never reaches the last cumulative entry of pi
        root = (u[:, :1] >= pi_cum[0]).view(np.int8) + (u[:, :1] >= pi_cum[1])
        levels = [(root, np.bincount(root.ravel(), minlength=3).tolist())]
        bits = (u >= cum[2, 1]).view(np.int8)
        bits <<= 1
        bits |= u >= cum[1, 0]
        bits <<= 1
        bits |= u >= cum[0, 0]
        for level in range(1, cfg.depth + 1):
            block = bits[:, offsets[level] : offsets[level + 1]]
            parent = levels[-1][0]
            ps = np.repeat(parent, block.shape[1] // parent.shape[1], axis=1)
            b = block >> ps
            b &= 1
            low = b & ps  # b where the parent is 1
            high = ps >> 1  # 1 where the parent is 2
            child = b + low
            child += high
            high &= b
            nb, n1, n2 = (np.count_nonzero(x.view(bool)) for x in (b, low, high))
            levels.append((child, [nb - n1 - n2, n1, n2]))
        yield levels


def sample(kern: TransitionKernel, cfg: TreeConfig) -> Configuration:
    """One admissible configuration, deterministic in cfg.seed."""
    (levels,) = _draw(kern, cfg, 1)
    spins = np.concatenate([s for s, _ in levels], axis=1)[0]
    return Configuration(spins=spins, tree=cfg)


def estimate_marginals(
    kern: TransitionKernel, cfg: TreeConfig, n_samples: int
) -> EmpiricalStats:
    """Empirical per-level spin distributions over independent samples."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    level_counts = np.zeros((cfg.depth + 1, 3), dtype=np.int64)
    pair_counts = np.zeros((3, 3), dtype=np.int64)
    for levels in _draw(kern, cfg, n_samples):
        (_, above), *below = levels
        level_counts[0] += above
        for level, (_, (n0, n1, n2)) in enumerate(below, 1):
            # children per parent: k + 1 under the root, k below
            m0, m1, m2 = (c * (cfg.k + (level == 1)) for c in above)
            pairs = np.array(
                [[m0 - n0, n0, 0], [m1 - n1, 0, n1], [0, m2 - n2, n2]], dtype=np.int64
            )
            pair_counts += pairs
            # each child has one parent: its level's spin counts are column sums
            above = pairs.sum(axis=0).tolist()
            level_counts[level] += above

    pair_freq = pair_counts.astype(float)
    if cfg.depth >= 1:
        pair_freq /= pair_counts.sum()
    return EmpiricalStats(
        level_frequencies=tuple(c / c.sum() for c in level_counts),
        pair_frequencies=pair_freq,
        n_samples=n_samples,
        pair_counts=pair_counts,
    )
