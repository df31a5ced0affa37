"""Seeded operation streams for the three benchmark workloads.

Each workload is an endless stream of ``Op``: the argv handed to
``hcsos.cli.main`` plus the parameters the output checks need.  The
stream depends only on the seed, so a run and its traced replay see the
same inputs; how many ops a run consumes depends on the machine.

sweep     one ``hcsos sweep`` per op, k cycling through 2, 3, 8 over the
          README grid theta in [0.1, 2.5] (endpoints jittered by the seed).
queries   single-point calls in shuffled blocks of 20: 14 classify,
          3 tisgm, 2 thresholds, 1 iterate.  Iterate calls are stratified
          3:1 converging (theta < 1, m cycling 2, 4, 6) to oscillating
          (m = 2, theta > 1, default --max-iter).  classify/tisgm draw
          k from 2, 3, 4, 5, 8 and theta log-uniform on [0.1, 50], where
          no call fails.
defects   (not timed) a fixed number of queries-style classify/tisgm
          calls where the known defects live: half at the edge of the
          domain (k up to 2000, theta = 10^U(-300, 300)), half at small
          theta (log-uniform on [0.02, 0.1]).
simulate  ``hcsos simulate`` jobs cycling deep-narrow, wide, wide.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from typing import Iterator

WORKLOADS = ("sweep", "queries", "simulate")

SWEEP_KS = (2, 3, 8)
SWEEP_STEPS = 250

QUERY_BLOCK = ("classify",) * 14 + ("tisgm",) * 3 + ("thresholds",) * 2 + ("iterate",)
TYPICAL_KS = (2, 3, 4, 5, 8)
# The k = 2 closed-form route fails below theta ~0.05, so the timed mix
# starts at 0.1 (as the sweep grid does); the defect probe covers the rest.
TYPICAL_THETA = (0.1, 50.0)
SMALL_THETA = (0.02, 0.1)
DEFECT_PROBE_CALLS = 200

# k = 2, m = 6 forward iteration from all-ones converges only on a
# fragmented set of theta; these grid points were checked to converge.
M6_CONVERGING_THETAS = (0.9285, 0.929, 0.9295, 0.93, 0.9305, 0.931, 0.9315, 0.932)

# (kind, k, theta, measure, depth, samples): samples x vertices is about
# 6e6 for both jobs, so the wide job holds ~150 MB of sampler arrays.
SIMULATE_JOBS = (
    ("simulate.deep", 2, 1.0, "mu0", 8, 8_000),
    ("simulate.wide", 3, 0.5, "mu1", 4, 40_000),
    ("simulate.wide", 3, 0.5, "mu1", 4, 40_000),
)


@dataclass(frozen=True)
class Op:
    """One CLI call: ``kind`` labels it for latency and checks, ``work`` is
    its size in the workload's throughput unit."""

    kind: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict)
    work: int = 1


def vertex_count(k: int, depth: int) -> int:
    return 1 + sum((k + 1) * k ** (level - 1) for level in range(1, depth + 1))


def _sweep_ops(rng: random.Random, scratch: Path) -> Iterator[Op]:
    out = str(scratch / "sweep.csv")
    for i in count():
        k = SWEEP_KS[i % len(SWEEP_KS)]
        lo = 0.1 + 0.01 * rng.random()
        hi = 2.5 - 0.01 * rng.random()
        argv = ("sweep", "--k", str(k), "--theta-min", repr(lo), "--theta-max",
                repr(hi), "--steps", str(SWEEP_STEPS), "--out", out)
        params = {"k": k, "theta_min": lo, "theta_max": hi,
                  "steps": SWEEP_STEPS, "out": out}
        yield Op("sweep", argv, params, work=SWEEP_STEPS)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _point_op(verb: str, k: int, theta: float) -> Op:
    argv = (verb, "--k", str(k), "--theta", repr(theta))
    if verb == "classify":
        argv += ("--measure", "all")
    return Op(verb, argv + ("--format", "json"), {"k": k, "theta": theta})


def _query_ops(rng: random.Random) -> Iterator[Op]:
    iterates = count()
    converging = count()
    while True:
        block = list(QUERY_BLOCK)
        rng.shuffle(block)
        for verb in block:
            if verb in ("classify", "tisgm"):
                yield _point_op(verb, rng.choice(TYPICAL_KS), _log_uniform(rng, *TYPICAL_THETA))
            elif verb == "thresholds":
                k = rng.choice((2, 3))
                yield Op(verb, ("thresholds", "--k", str(k), "--format", "json"), {"k": k})
            elif next(iterates) % 4 == 3:
                theta = _log_uniform(rng, 1.2, 3.0)
                yield _iterate_op("iterate.oscillate", 2, theta)
            else:
                m = (2, 4, 6)[next(converging) % 3]
                if m == 6:
                    theta = rng.choice(M6_CONVERGING_THETAS)
                else:
                    theta = rng.uniform(0.15, 0.8)
                yield _iterate_op("iterate.converge", m, theta)


def _iterate_op(kind: str, m: int, theta: float) -> Op:
    argv = ("iterate", "--m", str(m), "--k", "2", "--theta", repr(theta),
            "--format", "json")
    return Op(kind, argv, {"m": m, "k": 2, "theta": theta, "tol": 1e-10,
                           "max_iter": 10_000})


def _simulate_ops(rng: random.Random, scratch: Path) -> Iterator[Op]:
    out = str(scratch / "simulate.json")
    for i in count():
        kind, k, theta, measure, depth, samples = SIMULATE_JOBS[i % len(SIMULATE_JOBS)]
        seed = rng.randrange(2**32)
        argv = ("simulate", "--k", str(k), "--theta", repr(theta), "--measure",
                measure, "--depth", str(depth), "--samples", str(samples),
                "--seed", str(seed), "--out", out)
        params = {"k": k, "theta": theta, "measure": measure, "depth": depth,
                  "samples": samples, "out": out}
        yield Op(kind, argv, params, work=samples * vertex_count(k, depth))


def defect_probe(seed: int) -> list[Op]:
    """The seed's DEFECT_PROBE_CALLS classify/tisgm calls where the known
    defects live; they are run untimed after a queries run."""
    rng = random.Random(f"defects:{seed}")
    probe = []
    for i in range(DEFECT_PROBE_CALLS):
        verb = rng.choice(("classify",) * 14 + ("tisgm",) * 3)
        if i % 2 == 0:
            k = int(round(_log_uniform(rng, 2, 2000)))
            probe.append(_point_op(verb, k, 10.0 ** rng.uniform(-300, 300)))
        else:
            probe.append(_point_op(verb, rng.choice(TYPICAL_KS), _log_uniform(rng, *SMALL_THETA)))
    return probe


def ops(workload: str, seed: int, scratch: Path) -> Iterator[Op]:
    """Endless, seed-determined op stream for ``workload``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        return _sweep_ops(rng, scratch)
    if workload == "queries":
        return _query_ops(rng)
    if workload == "simulate":
        return _simulate_ops(rng, scratch)
    raise ValueError(f"unknown workload {workload!r}")
