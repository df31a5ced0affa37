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
vertex id) alone: regeneration order cannot change the result.

The samples are split into chunks of about ``_CHUNK`` vertex-samples
(whole sample rows), and each chunk is an independent task with its own
generator.  The uniform of sample s at vertex i is draw s·V + i of the
stream, and one Philox counter step yields four 64-bit draws, so a chunk
that starts at sample s advances the counter by (s·V) // 4 steps and
discards (s·V) % 4 draws.  Its spins therefore equal, bit for bit, those
of one draw of every row at once, whichever thread draws the chunk and
when.  A chunk draws its uniforms ``_BLOCK`` at a time into one buffer
and keeps only their packed comparisons (below), one byte per
vertex-sample, stored vertex-major so that the children of one parent
are consecutive rows.

Chunks run on a thread pool with one thread per CPU the process may use
(``os.sched_getaffinity``); numpy releases the interpreter lock while it
fills the uniforms and runs the element-wise operations.  At most one
chunk per thread is in flight and results are consumed in chunk order,
so memory stays O(threads · chunk) whatever the number of samples: per
thread the 512 KiB uniform buffer and a few bytes per vertex-sample of
the chunk.  A tree of more than ``_CHUNK`` vertices keeps one row in
flight, and it or a request of a single chunk runs the same task on the
calling thread.  One sample row is capped at ``MAX_VERTICES`` vertices,
checked by ``TreeConfig`` before anything is allocated.

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

import functools
import math
import os
from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .chain import TransitionKernel, stationary

# Vertex-samples per chunk: the work of one task.
_CHUNK = 1 << 18
# Uniforms drawn at once within a chunk (512 KiB of float64).
_BLOCK = 1 << 16
# Largest vertex count of one sample row; a row in flight holds a few int8
# arrays of its size.
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


def _workers() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _packed_bits(
    seed: int, first: int, rows: int, v: int, cum: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """bits of rows whole sample rows from stream index ``first`` on,
    vertex-major (v, rows), and the root uniform of each row."""
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(first // 4)  # one counter step yields four 64-bit draws
    bitgen.random_raw(first % 4)
    stream = np.random.Generator(bitgen)
    size = rows * v
    bits = np.empty(size, dtype=np.int8)
    root_u = np.empty(rows)
    u = np.empty(min(size, _BLOCK))
    ge = np.empty(u.size, dtype=bool)
    for lo in range(0, size, _BLOCK):
        part = u[: min(_BLOCK, size - lo)]
        stream.random(out=part)
        row = -(-lo // v)  # first row whose root uniform is in this block
        roots = part[row * v - lo :: v]
        root_u[row : row + roots.size] = roots
        packed = bits[lo : lo + part.size]
        np.greater_equal(part, cum[2, 1], out=packed.view(bool))
        for c in (cum[1, 0], cum[0, 0]):
            packed += packed
            packed |= np.greater_equal(part, c, out=ge[: part.size]).view(np.int8)
    return np.ascontiguousarray(bits.reshape(rows, v).T), root_u


def _draw_rows(
    cfg: TreeConfig,
    pi_cum: np.ndarray,
    cum: np.ndarray,
    keep_spins: bool,
    start: int,
    rows: int,
) -> tuple[list[list[int]], list[np.ndarray]]:
    """Counts of sample rows start .. start + rows - 1, and their spins if
    keep_spins, from the stream's own draws for those rows.

    It may run on a worker thread, so it calls only numpy and the tree's
    geometry.  counts has one entry per level: the root's spin counts,
    then n_0, n_1, n_2, the children with bit b set per parent state.  spins has one int8 array
    of shape (level size, rows) per level.
    """
    v = cfg.vertex_count
    bits, root_u = _packed_bits(cfg.seed, start * v, rows, v, cum)
    # u < 1 never reaches the last cumulative entry of pi
    parent = (root_u >= pi_cum[0]).view(np.int8) + (root_u >= pi_cum[1])
    parent = parent.reshape(1, rows)
    counts = [np.bincount(parent.ravel(), minlength=3).tolist()]
    spins = [parent] if keep_spins else []
    offsets = cfg.level_offsets
    for level in range(1, cfg.depth + 1):
        block = bits[offsets[level] : offsets[level + 1]]
        # vertex-major rows: a parent's children are consecutive rows
        ps = np.repeat(parent, block.shape[0] // parent.shape[0], axis=0)
        # bit a of each child, in place of its packed comparisons
        np.bitwise_and(block, np.left_shift(np.int8(1), ps), out=block)
        b = np.not_equal(block, 0, out=block.view(bool)).view(np.int8)
        low = b & ps  # b where the parent is 1
        high = (ps == 2).view(np.int8)
        child = b + low
        child += high
        high &= b  # b where the parent is 2
        nb, n1, n2 = (np.count_nonzero(x.view(bool)) for x in (b, low, high))
        counts.append([nb - n1 - n2, n1, n2])
        parent = child
        if keep_spins:
            spins.append(parent)
    return counts, spins


def _draw(
    kern: TransitionKernel, cfg: TreeConfig, n: int, keep_spins: bool = False
) -> Iterator[tuple[list[list[int]], list[np.ndarray]]]:
    """``_draw_rows`` of n samples, one chunk of rows at a time, in order.

    Up to one chunk per CPU is drawn at once, each on its own thread; a
    tree of more than ``_CHUNK`` vertices draws one row at a time.
    """
    v = cfg.vertex_count
    rows = max(1, _CHUNK // v)
    task = functools.partial(
        _draw_rows,
        cfg,
        np.cumsum(stationary(kern)),
        _snapped_cumulative(kern.p),
        keep_spins,
    )
    starts = range(0, n, rows)
    workers = min(_workers(), len(starts)) if v <= _CHUNK else 1
    if workers == 1:
        for start in starts:
            yield task(start, min(rows, n - start))
        return
    # imported here: at module level it adds milliseconds to every CLI start
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        pending: deque = deque()
        for start in starts:
            if len(pending) == workers:
                yield pending.popleft().result()
            pending.append(pool.submit(task, start, min(rows, n - start)))
        while pending:
            yield pending.popleft().result()


def sample(kern: TransitionKernel, cfg: TreeConfig) -> Configuration:
    """One admissible configuration, deterministic in cfg.seed."""
    ((_, levels),) = _draw(kern, cfg, 1, keep_spins=True)
    spins = np.concatenate([s[:, 0] for s in levels])
    return Configuration(spins=spins, tree=cfg)


def estimate_marginals(
    kern: TransitionKernel, cfg: TreeConfig, n_samples: int
) -> EmpiricalStats:
    """Empirical per-level spin distributions over independent samples."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    level_counts = np.zeros((cfg.depth + 1, 3), dtype=np.int64)
    pair_counts = np.zeros((3, 3), dtype=np.int64)
    for (above, *below), _ in _draw(kern, cfg, n_samples):
        level_counts[0] += above
        for level, (n0, n1, n2) in enumerate(below, 1):
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
