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

Spins are read off by inverse CDF over the exact row probabilities: a
child of a parent in state a takes state (u >= c_a0) + (u >= c_a1),
where c_a0, c_a1 are the first two cumulative entries of row a, snapped
to 1 where the remaining row mass is exactly zero, so zero-probability
(inadmissible) transitions can never fire.  ``sample`` and
``estimate_marginals`` share this one draw; the latter keeps only
integer counts of spins per level and of parent-child pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .chain import TransitionKernel, stationary
from .model import activity_matrix

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

    def parents(self) -> np.ndarray:
        """Parent index for every vertex (the root maps to itself)."""
        par = np.zeros(self.vertex_count, dtype=np.int64)
        offsets = self.level_offsets
        for level in range(2, self.depth + 1):
            start, prev = offsets[level], offsets[level - 1]
            count = offsets[level + 1] - start
            par[start : start + count] = prev + np.arange(count) // self.k
        # level-1 vertices all hang off the root (already zero)
        return par


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


def _inverse_cdf(u: np.ndarray, c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """Smallest state whose cumulative mass exceeds u, as int8.

    u < 1 never reaches the last cumulative entry (1 up to rounding), so
    the first two decide.
    """
    spins = (u >= c0).view(np.int8)
    spins += (u >= c1).view(np.int8)
    return spins


def _per_child(parent: np.ndarray, width: int) -> np.ndarray:
    """Parent-level spins repeated once per child, for a level of that width."""
    return np.repeat(parent, width // parent.shape[1], axis=1)


def _draw(
    kern: TransitionKernel, cfg: TreeConfig, n: int
) -> Iterator[list[np.ndarray]]:
    """Spins of n samples, one chunk of rows at a time.

    Each chunk is a list with one int8 array of shape (rows, level size)
    per level; row r of every array belongs to the same sample.
    """
    v = cfg.vertex_count
    rows = max(1, _CHUNK // v)
    stream = np.random.Generator(np.random.Philox(key=cfg.seed))
    pi_cum = np.cumsum(stationary(kern))
    cum = _snapped_cumulative(kern.p)
    c0, c1 = cum[:, 0], cum[:, 1]
    offsets = cfg.level_offsets
    for start in range(0, n, rows):
        u = stream.random((min(rows, n - start), v))
        levels = [_inverse_cdf(u[:, :1], pi_cum[0], pi_cum[1])]
        for level in range(1, cfg.depth + 1):
            block = u[:, offsets[level] : offsets[level + 1]]
            ps = _per_child(levels[-1], block.shape[1])
            levels.append(_inverse_cdf(block, c0[ps], c1[ps]))
        yield levels


def sample(kern: TransitionKernel, cfg: TreeConfig) -> Configuration:
    """One admissible configuration, deterministic in cfg.seed."""
    (levels,) = _draw(kern, cfg, 1)
    return Configuration(spins=np.concatenate(levels, axis=1)[0], tree=cfg)


def estimate_marginals(
    kern: TransitionKernel, cfg: TreeConfig, n_samples: int
) -> EmpiricalStats:
    """Empirical per-level spin distributions over independent samples."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    level_counts = np.zeros((cfg.depth + 1, 3), dtype=np.int64)
    pair_counts = np.zeros(9, dtype=np.int64)
    for levels in _draw(kern, cfg, n_samples):
        level_counts[0] += np.bincount(levels[0].ravel(), minlength=3)
        for level in range(1, cfg.depth + 1):
            child = levels[level]
            key = _per_child(levels[level - 1], child.shape[1])
            key *= 3
            key += child
            pairs = np.bincount(key.ravel(), minlength=9)
            pair_counts += pairs
            # each child has one parent: its level's spin counts are column sums
            level_counts[level] += pairs.reshape(3, 3).sum(axis=0)

    pair_counts = pair_counts.reshape(3, 3)
    pair_freq = pair_counts.astype(float)
    if cfg.depth >= 1:
        pair_freq /= pair_counts.sum()
    return EmpiricalStats(
        level_frequencies=tuple(c / c.sum() for c in level_counts),
        pair_frequencies=pair_freq,
        n_samples=n_samples,
        pair_counts=pair_counts,
    )


def count_inadmissible_edges(config: Configuration, m: int = 2) -> int:
    """Number of parent-child spin pairs violating wand admissibility."""
    allowed = activity_matrix(m, 1.0) > 0.0
    parents = config.tree.parents()
    child_idx = np.arange(1, config.tree.vertex_count)
    if child_idx.size == 0:
        return 0
    pairs = allowed[config.spins[parents[child_idx]], config.spins[child_idx]]
    return int(np.size(pairs) - np.count_nonzero(pairs))
