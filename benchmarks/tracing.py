"""Span tracing and per-layer metrics for the benchmark's traced run.

For the length of a traced run, the names through which one hcsos module
calls into another are rebound to recording wrappers defined here, for
example ``hcsos.cli.enumerate_solutions`` or ``hcsos.tisgm.find_root``.
A few same-module names are rebound too (``enumerate_solutions`` calls
``solve_symmetric`` through its module globals), so nested calls get
their own spans.  ``model`` gets no span: its public calls are dataclass
validations whose cost lands in the caller's self time.

A span is (id, parent id, op id, name, start, end).  Spans stay in
memory and are written out once the run ends.  Self time is a span's
duration minus the durations of its direct children; calls are never
concurrent, so children never overlap.

A site missing from the program (a later version may drop a function)
is skipped and reported, and its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import vertex_count

# span name -> modules (under hcsos) whose global of that name is rebound
SITES = {
    "cli.build_parser": ("cli",),
    "cli.write_phase_csv": ("cli",),
    "tisgm.enumerate_solutions": ("cli",),
    "tisgm.solve_symmetric": ("cli", "tisgm", "extremality"),
    "tisgm.solve_asymmetric": ("tisgm", "extremality"),
    "tisgm.solve_k2_closed_form": ("cli", "extremality"),
    "tisgm.theta_cr": ("cli", "tisgm", "extremality"),
    "tisgm.iterate_boundary_law": ("cli",),
    "rootfind.find_root": ("tisgm", "extremality"),
    "rootfind.expand_bracket_decreasing": ("tisgm",),
    "chain.kernel_of": ("cli", "extremality"),
    "chain.spectrum_symmetric": ("extremality",),
    "chain.spectrum_asymmetric_k2": ("extremality",),
    "chain.spectrum_numeric": ("extremality",),
    "chain.stationary": ("cli", "sampler"),
    "chain.kappa_of": ("extremality",),
    "chain.gamma_of": ("extremality",),
    "extremality.classify_mu0": ("cli",),
    "extremality.classify_mu12": ("cli",),
    "extremality.classify_mu12_k2": ("extremality",),
    "extremality.classify_solution": ("cli", "extremality"),
    "extremality.thresholds": ("cli",),
    "extremality.h_func": ("extremality",),
    "extremality.q_func": ("extremality",),
    "sampler.estimate_marginals": ("cli",),
}

VERBS = ("sweep", "classify", "tisgm", "thresholds", "iterate", "simulate")


class Recorder:
    """In-memory span store plus the counts taken at span boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.errors: dict[int, str] = {}
        self.notes: dict[int, object] = {}
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.op_id = -1

    def span(self, name: str, fn, note=None, wrap_args=None):
        """``fn`` wrapped so that each call records one span named ``name``.

        ``note(args, result)`` keeps a value about a call; ``wrap_args``
        rewrites the arguments before the call (to count callbacks)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if wrap_args is not None:
                args = wrap_args(args)
            sid = len(self.names)
            self.names.append(name)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.op_ids.append(self.op_id)
            self.ends.append(0.0)
            self.stack.append(sid)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[sid] = type(exc).__name__
                raise
            finally:
                self.ends[sid] = perf_counter()
                self.stack.pop()
            if note is not None:
                self.notes[sid] = note(args, result)
            return result

        return traced

    def _count_evals(self, args):
        f = args[0]

        def counted(x):
            self.counts["rootfind.f_evals"] += 1
            return f(x)

        return (counted,) + tuple(args[1:])

    def wrapper_for(self, name: str, fn):
        if name == "rootfind.find_root":
            return self.span(name, fn, wrap_args=self._count_evals)
        if name == "tisgm.iterate_boundary_law":
            return self.span(name, fn, note=lambda a, r: (r.iterations, r.converged))
        if name == "sampler.estimate_marginals":
            return self.span(name, fn, note=lambda a, r: (a[1].k, a[1].depth, a[2]))
        return self.span(name, fn)

    def write(self, path: Path) -> None:
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        np.savez_compressed(
            path,
            names=np.array(table),
            name=np.array([code[n] for n in self.names], dtype=np.int16),
            parent=np.array(self.parents, dtype=np.int64),
            op=np.array(self.op_ids, dtype=np.int64),
            start=np.array(self.starts),
            end=np.array(self.ends),
        )


class Tracer:
    """Installs a Recorder's wrappers at every SITES entry and removes them."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def __enter__(self) -> "Tracer":
        self.missing = []
        for name, sites in SITES.items():
            home, attr = name.split(".")
            original = getattr(importlib.import_module(f"hcsos.{home}"), attr, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self.recorder.wrapper_for(name, original)
            for site in sites:
                module = importlib.import_module(f"hcsos.{site}")
                if getattr(module, attr, None) is original:
                    self.saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
                else:
                    self.missing.append(f"{site}.{attr}")
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()


def _self_times(rec: Recorder) -> list[float]:
    durations = [e - s for s, e in zip(rec.starts, rec.ends)]
    own = list(durations)
    for sid, parent in enumerate(rec.parents):
        if parent >= 0:
            own[parent] -= durations[sid]
    return own


def layer_metrics(rec: Recorder, main_spans: dict[int, str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced run: name -> (value, unit).

    ``main_spans`` maps the span id of each traced ``cli.main`` call to its
    verb.  A per-call mean over zero calls reads 0."""
    durations = [e - s for s, e in zip(rec.starts, rec.ends)]
    own = _self_times(rec)
    by_name: dict[str, list[int]] = defaultdict(list)
    for sid, name in enumerate(rec.names):
        by_name[name].append(sid)
    relayed = {rec.parents[sid] for sid in rec.errors}  # spans with a failing child

    def total(name: str, times=durations) -> float:
        return sum(times[sid] for sid in by_name.get(name, ()))

    def mean_us(name: str, times=durations) -> float:
        calls = len(by_name.get(name, ()))
        return 1e6 * total(name, times) / calls if calls else 0.0

    def originated(layer: str) -> int:
        # failures whose exception was raised in this layer, not passed up
        return sum(1 for sid in rec.errors
                   if rec.names[sid].startswith(layer + ".") and sid not in relayed)

    m: dict[str, tuple[float, str]] = {}
    m["cli.build_parser_us"] = (mean_us("cli.build_parser"), "us")
    for verb in VERBS:
        ids = [sid for sid, v in main_spans.items() if v == verb]
        value = 1e6 * statistics.fmean(own[sid] for sid in ids) if ids else 0.0
        m[f"cli.self_us.{verb}"] = (value, "us")
    writes = len(by_name.get("cli.write_phase_csv", ()))
    m["cli.write_phase_csv_s"] = (total("cli.write_phase_csv") / writes if writes else 0.0, "s")

    m["tisgm.solve_symmetric_us"] = (mean_us("tisgm.solve_symmetric"), "us")
    m["tisgm.solve_asymmetric_us"] = (mean_us("tisgm.solve_asymmetric"), "us")
    m["tisgm.solve_k2_closed_form_us"] = (mean_us("tisgm.solve_k2_closed_form"), "us")
    m["tisgm.enumerate_solutions_self_us"] = (mean_us("tisgm.enumerate_solutions", own), "us")
    m["tisgm.failures"] = (originated("tisgm"), "count")
    iterations = [(sid, rec.notes[sid]) for sid in by_name.get("tisgm.iterate_boundary_law", ())
                  if sid in rec.notes]
    steps = sum(n for _, (n, _) in iterations)
    m["tisgm.iterate_steps"] = (steps, "count")
    m["tisgm.iterate_steps_unconverged"] = (sum(n for _, (n, ok) in iterations if not ok), "count")
    busy = sum(durations[sid] for sid, _ in iterations)
    m["tisgm.iterate_us_per_step"] = (1e6 * busy / steps if steps else 0.0, "us")

    m["rootfind.find_root_calls"] = (len(by_name.get("rootfind.find_root", ())), "count")
    m["rootfind.f_evals"] = (rec.counts["rootfind.f_evals"], "count")
    m["rootfind.find_root_self_us"] = (mean_us("rootfind.find_root", own), "us")
    m["rootfind.expand_bracket_us"] = (mean_us("rootfind.expand_bracket_decreasing"), "us")
    m["rootfind.failures"] = (originated("rootfind"), "count")

    m["chain.kernel_of_us"] = (mean_us("chain.kernel_of"), "us")
    for route in ("symmetric", "asymmetric_k2", "numeric"):
        name = f"chain.spectrum_{route}"
        m[f"chain.spectrum_us.{route}"] = (mean_us(name), "us")
        m[f"chain.spectrum_calls.{route}"] = (len(by_name.get(name, ())), "count")
    m["chain.stationary_us"] = (mean_us("chain.stationary"), "us")
    pairs = len(by_name.get("chain.kappa_of", ()))
    kg = total("chain.kappa_of") + total("chain.gamma_of")
    m["chain.kappa_gamma_us"] = (1e6 * kg / pairs if pairs else 0.0, "us")

    m["extremality.classify_solution_self_us"] = (
        mean_us("extremality.classify_solution", own), "us")
    m["extremality.thresholds_ms"] = (mean_us("extremality.thresholds") / 1e3, "ms")
    m["extremality.margin_evals"] = (
        len(by_name.get("extremality.h_func", ())) + len(by_name.get("extremality.q_func", ())),
        "count")

    jobs = [(sid, rec.notes[sid]) for sid in by_name.get("sampler.estimate_marginals", ())
            if sid in rec.notes]
    vertex_samples = sum(n * vertex_count(k, depth) for _, (k, depth, n) in jobs)
    busy = sum(durations[sid] for sid, _ in jobs)
    m["sampler.ns_per_vertex_sample"] = (1e9 * busy / vertex_samples if vertex_samples else 0.0, "ns")
    m["sampler.estimate_marginals_s"] = (busy / len(jobs) if jobs else 0.0, "s")
    m["sampler.bytes_computed"] = (
        sum(sampler_bytes(k, depth, n) for _, (k, depth, n) in jobs), "B")
    return m


def sampler_bytes(k: int, depth: int, n: int) -> int:
    """Bytes of the arrays one estimate_marginals call allocates, computed
    from their shapes (not measured): float64 uniforms, int8 spins and the
    int8 copy each level's bincount ravels, over (n, V); per non-root
    level the int8 parent gather, the float64 (n, L, 3) cumulative-row
    gather, its bool comparison and the int8 sum; for the pair count two
    int8 (n, V - 1) gathers."""
    v = vertex_count(k, depth)
    edges = v - 1
    per_vertex = 8 + 1 + 1
    per_edge = 1 + 24 + 3 + 1 + 2
    return n * (per_vertex * v + per_edge * edges)
