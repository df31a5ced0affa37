"""hcsos benchmark: one workload, fresh processes, checked outputs, metrics.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload {sweep,queries,simulate,all} \\
        --seed N --seconds S --trace {0,1}

Each run starts the workload in a fresh child process (worker.py) that
imports hcsos from the checkout's ``src`` and drives it through
``hcsos.cli.main(argv)``.  ``setup_s`` is the median, over the workload's
process and SETUP_EACH_SIDE set-up-only processes before and after it, of
the time from process start to ``import hcsos.cli`` plus
``build_parser()``; ``peak_rss_mb`` is the peak RSS of the workload's own
process.

--trace 0 prints the end-to-end metrics; --trace 1 makes a separate
traced run and prints the per-layer metrics with the tracing overhead.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; everything above it is a readable report.
The full result, with run metadata, is also written to
``.bench_out/result-<workload>-seed<N>-trace<T>.json``; the spans of the
last traced run of a workload go to ``.bench_out/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
# Timed set-up-only processes before and after the workload, whose own
# set-up is timed too: the host's speed drifts in phases of seconds, so the
# samples are spread over the run.
SETUP_EACH_SIDE = 5
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 150

# Per workload: the name and unit under which the report repeats ops_per_s.
HEADLINE = {
    "sweep": ("sweep.points_per_s", "points/s"),
    "queries": ("queries.calls_per_s", "calls/s"),
    "simulate": ("simulate.vertex_samples_per_s", "vertex-samples/s"),
}


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class WorkerError(RuntimeError):
    """A child process failed to start, timed out or exited abnormally."""


def _spawn(root: Path, extra: list[str], timeout: float) -> tuple[float, str]:
    """Start worker.py, return (seconds until it printed 'ready', rest of stdout).

    A watchdog kills the worker after ``timeout`` seconds."""
    # hcsos does no BLAS-sized work (3x3 matrices at most); a BLAS thread pool
    # only makes start-up race for the host's cores, so pin it to one thread
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--root", str(root)] + extra
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup = perf_counter() - start
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode} "
                          f"(killed after {timeout} s if negative): {' '.join(extra)}")
    return setup, rest


def _setups(root: Path) -> list[float]:
    return [_spawn(root, ["--setup-only"], SETUP_TIMEOUT_S)[0] for _ in range(SETUP_EACH_SIDE)]


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method); a single value is its own percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, records: list, setup: list[float], rss_mb: float,
               probe: list) -> dict:
    """Metrics of an untraced run, (JSON-line metrics, report-only metrics),
    each name -> (value, unit)."""
    ok = [r for r in records if r[3] is None]
    m = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ops_per_s": (sum(r[2] for r in ok) / sum(r[1] for r in ok), "1/s"),
    }
    extra = {"failed_share": ((len(records) - len(ok)) / len(records), "1")}
    name, unit = HEADLINE[workload]
    extra[name] = (m["ops_per_s"][0], unit)
    verb_ms: dict[str, list[float]] = {}
    for kind, seconds, _, _ in ok:
        verb_ms.setdefault(kind.split(".")[0], []).append(1e3 * seconds)
    # report only: on sweep, whose calls come in three sizes (k = 2, 3, 8),
    # it spread more between runs of the same code than ops_per_s
    extra["call_p50_ms"] = (statistics.median(ms for v in verb_ms.values() for ms in v), "ms")
    if workload == "queries":
        for verb, q in (("classify", 50), ("classify", 99), ("tisgm", 50),
                        ("thresholds", 50), ("iterate", 50), ("iterate", 90)):
            if verb_ms.get(verb):
                extra[f"queries.{verb}.p{q}_ms"] = (_quantile(verb_ms[verb], q), "ms")
        extra["queries.defect_probe.failed_share"] = (
            sum(r is not None for r in probe) / len(probe), "1")
    return m, extra


def run_one(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    extra = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))]
    if trace:
        _, out = _spawn(root, extra, RUN_TIMEOUT_S)
    else:
        _spawn(root, ["--setup-only"], SETUP_TIMEOUT_S)  # fills bytecode and page caches
        setup = _setups(root)
        seconds_to_ready, out = _spawn(root, extra, RUN_TIMEOUT_S)
        setup += [seconds_to_ready] + _setups(root)
    raw = json.loads(out.strip().splitlines()[-1])
    records = raw["records"]
    probe = raw.get("probe", [])
    reasons = Counter(r[3] for r in records if r[3] is not None)
    probe_reasons = Counter(r for r in probe if r is not None)
    correct = not any(reason.startswith("unknown") for reason in reasons + probe_reasons)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": len(records), "failed": sum(reasons.values()),
        "failures": dict(sorted(reasons.items())),
        "probe_calls": len(probe), "probe_failures": dict(sorted(probe_reasons.items())),
        "meta": {
            "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": raw["numpy"],
            "git_sha": _git_sha(root),
        },
    }
    if trace:
        t = raw["trace"]
        metrics = dict(t["metrics"])
        metrics["trace.overhead_s"] = (t["traced_s"] - t["untraced_s"], "s")
        metrics["trace.overhead_share"] = ((t["traced_s"] - t["untraced_s"]) / t["untraced_s"], "1")
        result.update(metrics=metrics, extra={}, spans=t["spans"], missing_sites=t["missing"])
        correct = correct and t["same_outcomes"]
    else:
        metrics, extra_metrics = end_to_end(workload, records, setup, raw["peak_rss_mb"], probe)
        result.update(metrics=metrics, extra=extra_metrics, setup_samples=setup)
    result["correct"] = correct
    return result


def _print_report(result: dict) -> None:
    meta = result["meta"]
    print(f"# hcsos benchmark: workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    print(f"# nproc={meta['nproc']} cpu={meta['cpu']!r} python={meta['python']} "
          f"numpy={meta['numpy']} git_sha={meta['git_sha']}")
    for name, (value, unit) in {**result["metrics"], **result["extra"]}.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    print(f"# ops attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for reason, n in result["failures"].items():
        print(f"#   {n:>6}  {reason}")
    if result["probe_calls"]:
        print(f"# defect probe (untimed): calls={result['probe_calls']} "
              f"failed={sum(result['probe_failures'].values())}")
        for reason, n in result["probe_failures"].items():
            print(f"#   {n:>6}  {reason}")
    if result["trace"]:
        print(f"# spans recorded={result['spans']}")
    if result.get("missing_sites"):
        print(f"# trace sites absent from this version: {', '.join(result['missing_sites'])}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "hcsos" / "cli.py").is_file():
        print(f"error: {root} holds no hcsos source tree (src/hcsos/cli.py); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    scratch = root / ".bench_out"
    scratch.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        try:
            result = run_one(root, workload, args.seed, args.seconds, bool(args.trace))
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        name = f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
        (scratch / name).write_text(json.dumps(result, indent=1) + "\n")
        _print_report(result)
        summary = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        }
        print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
