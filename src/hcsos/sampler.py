"""Monte Carlo sampling of admissible configurations on finite subtrees.

Vertices are indexed in level order with the root at 0.  The root of a
Cayley tree has k + 1 children and every other internal vertex has k, so
level sizes are 1, k+1, (k+1)k, (k+1)k^2, ...  Parent indices follow
from offset arithmetic; no tree structure is ever allocated.

The root spin is drawn from the stationary distribution of the kernel
and every child spin from its parent's row, independently across
children.  Uniform variates come from a counter-based Philox stream
keyed by the seed, laid out as one column per vertex (and one row per
sample), so the draw consumed by a vertex is fixed by (seed, sample,
vertex id) alone: regeneration order cannot change the result.  Spins
are read off by inverse CDF over the exact row probabilities, with the
cumulative entries snapped to 1 where the remaining row mass is exactly
zero, so zero-probability (inadmissible) transitions can never fire.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import TransitionKernel, stationary
from .model import activity_matrix


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
    """Level-wise spin frequencies and aggregate edge-pair frequencies."""

    level_frequencies: tuple[np.ndarray, ...]
    pair_frequencies: np.ndarray
    n_samples: int


def _snapped_cumulative(p: np.ndarray) -> np.ndarray:
    cum = np.cumsum(p, axis=1)
    cum[:, -1] = 1.0
    zero_tail = p[:, 2] == 0.0
    cum[zero_tail, 1] = 1.0
    cum[zero_tail & (p[:, 1] == 0.0), 0] = 1.0
    return cum


def _draw_spins(kern: TransitionKernel, cfg: TreeConfig, n: int) -> np.ndarray:
    """(n, vertex_count) spin matrix; row s is the s-th independent sample."""
    v = cfg.vertex_count
    uniforms = np.random.Generator(np.random.Philox(key=cfg.seed)).random((n, v))
    pi_cum = np.cumsum(stationary(kern))
    pi_cum[-1] = 1.0
    row_cum = _snapped_cumulative(kern.p)
    parents = cfg.parents()

    spins = np.empty((n, v), dtype=np.int8)
    spins[:, 0] = np.searchsorted(pi_cum, uniforms[:, 0], side="right")
    offsets = cfg.level_offsets
    for level in range(1, cfg.depth + 1):
        sl = slice(offsets[level], offsets[level + 1])
        parent_spins = spins[:, parents[sl]]
        # smallest state whose cumulative mass exceeds the uniform draw
        spins[:, sl] = (
            uniforms[:, sl, None] >= row_cum[parent_spins]
        ).sum(axis=2, dtype=np.int8)
    return spins


def sample(kern: TransitionKernel, cfg: TreeConfig) -> Configuration:
    """One admissible configuration, deterministic in cfg.seed."""
    return Configuration(spins=_draw_spins(kern, cfg, 1)[0], tree=cfg)


def estimate_marginals(
    kern: TransitionKernel, cfg: TreeConfig, n_samples: int
) -> EmpiricalStats:
    """Empirical per-level spin distributions over independent samples."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    spins = _draw_spins(kern, cfg, n_samples)
    offsets = cfg.level_offsets

    level_freq = []
    for level in range(cfg.depth + 1):
        block = spins[:, offsets[level] : offsets[level + 1]]
        counts = np.bincount(block.ravel(), minlength=3).astype(float)
        level_freq.append(counts / counts.sum())

    pair_counts = np.zeros((3, 3))
    if cfg.depth >= 1:
        parents = cfg.parents()
        child_idx = np.arange(1, cfg.vertex_count)
        np.add.at(
            pair_counts,
            (spins[:, parents[child_idx]].ravel(), spins[:, child_idx].ravel()),
            1.0,
        )
        pair_counts /= pair_counts.sum()
    return EmpiricalStats(
        level_frequencies=tuple(level_freq),
        pair_frequencies=pair_counts,
        n_samples=n_samples,
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
