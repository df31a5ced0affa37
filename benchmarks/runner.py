"""Timed closed loop over one workload, inside the worker process.

One client calls ``hcsos.cli.main(argv)`` for each op, waits for it, then
checks the output against ``oracles`` outside the timed region.  A call
that exits nonzero is replayed once, untimed, to find the exception and
the layer it came from, and is matched against the known defects.  After
an untraced queries run, the seed's defect probe (``workloads.defect_probe``)
is run the same way, untimed, so the known defects stay counted.
"""

from __future__ import annotations

import io
import resource
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import oracles
import tracing
from workloads import defect_probe, ops

WARMUP_S = 0.5
# A traced run spends this share of --seconds choosing its ops untraced; the
# replay, which runs each of them once untraced and once traced, takes the rest.
FIRST_PASS_SHARE = 0.3

# Failures the benchmark expects from the program as it stands.  Each entry
# is (defect, exception type, a function on the failing call path, the
# function that raised), or (defect, "wrong-output", None, failed check).
# Fixing a defect shows up as fewer failed probe calls.
KNOWN_DEFECTS = (
    # the lower k = 2 root (rho - sqrt(rho^2 - 4)) / 2 cancels at small theta
    ("k2-closed-form-cancellation", "ConsistencyError", "solve_k2_closed_form", "tisgm._checked"),
    # ... and below theta ~ 1e-14 it cancels to exactly 0
    ("k2-closed-form-cancellation", "ValueError", "solve_k2_closed_form", "model.__post_init__"),
    # ((k-1) k^k / 2^k) overflows: float(k)**k raises for k >= 144; at
    # k = 143 the product rounds to inf instead, so theta_cr = inf is
    # printed, theta**(k+1) overflows, or mu1/mu2 "do not exist" below it
    ("theta-cr-overflow", "OverflowError", "theta_cr", "tisgm.theta_cr"),
    ("theta-cr-overflow", "OverflowError", "solve_asymmetric", "tisgm.solve_asymmetric"),
    ("theta-cr-overflow", "ValueError", "classify_mu12", "extremality.classify_mu12"),
    ("theta-cr-overflow", "wrong-output", None, "theta_cr-finite"),
    # the symmetric root y ~ 2 theta is resolved only to abs_tol, so y = 0
    # for theta below ~1e-32
    ("tiny-theta-underflow", "ValueError", "solve_symmetric", "model.__post_init__"),
    # 60 doublings from x = 1 cannot reach the asymmetric root when theta is
    # small (k = 8 below ~0.0098, k = 16 below ~0.085)
    ("bracket-doubling-cap", "UnboundedBracketError", "solve_asymmetric",
     "rootfind.expand_bracket_decreasing"),
    # the upper asymmetric root x is so large for k near 144 that x**k
    # overflows while its residual is checked
    ("upper-root-residual-overflow", "OverflowError", "solve_asymmetric",
     "tisgm.compatibility_residual"),
    # theta * hi^(k+1) rounds below 2 theta at the bracket end hi = 2^(1/(k+1)),
    # so the certified bracket has no sign change for huge theta (k = 3 from ~1e17)
    ("huge-theta-symmetric-bracket", "BracketError", "solve_symmetric", "rootfind.__post_init__"),
)


def _known(etype: str, path: list[str], origin: str) -> str:
    for name, want_type, caller, raiser in KNOWN_DEFECTS:
        if etype == want_type and (caller is None or caller in path) and origin == raiser:
            return name
    return "unknown"


def execute(main, op) -> tuple[int, float, str]:
    """Run one op through the CLI entry point: (exit code, seconds, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            code = main(list(op.argv))
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code
        elapsed = perf_counter() - start
    return code, elapsed, out.getvalue()


def diagnose(cli, op) -> str:
    """Bucket of a failed call: known defect (or 'unknown'), exception, origin."""
    try:
        args = cli.build_parser().parse_args(list(op.argv))
        with redirect_stdout(io.StringIO()):
            args.func(args)
    except Exception as exc:
        frames = [f for f in traceback.extract_tb(exc.__traceback__)
                  if Path(f.filename).parent.name == "hcsos"]
        path = [f.name for f in frames]
        origin = f"{Path(frames[-1].filename).stem}.{frames[-1].name}" if frames else "?"
        etype = type(exc).__name__
        return f"{_known(etype, path, origin)} {etype}@{origin}"
    return "unknown not-reproduced"


def outcome(cli, op, code: int, stdout: str) -> str | None:
    """None for a correct call, else the reason it failed: the known defect
    (or 'unknown') followed by the exception and origin or the failed check."""
    if code != 0:
        return diagnose(cli, op)
    problem = oracles.check(op, stdout)
    if problem is None:
        return None
    return f"{_known('wrong-output', [], problem)} wrong-output@{problem}"


def _loop(cli, stream, seconds: float) -> tuple[list, list]:
    """Ops run until ``seconds`` have passed, and their records
    [kind, seconds, work, failure reason or None]."""
    done, records = [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        op = next(stream)
        code, elapsed, stdout = execute(cli.main, op)
        done.append(op)
        records.append([op.kind, elapsed, op.work, outcome(cli, op, code, stdout)])
    return done, records


def _traced_replay(cli, done: list, first_ok: list, scratch: Path, workload: str) -> dict:
    """Replay ``done`` with each op run untraced and traced back to back,
    alternating which goes first, so both sides see the same caches."""
    rec = tracing.Recorder()
    traced_main = rec.span("cli.main", cli.main)
    tracer = tracing.Tracer(rec)
    main_spans: dict[int, str] = {}
    busy = {False: 0.0, True: 0.0}
    same_outcomes = True
    for i, op in enumerate(done):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                rec.op_id = i
                main_spans[len(rec.names)] = op.argv[0]
                with tracer:
                    code, elapsed, stdout = execute(traced_main, op)
            else:
                code, elapsed, stdout = execute(cli.main, op)
            busy[traced] += elapsed
            # no diagnosis replay here: under the tracer it would add spans
            ok = code == 0 and oracles.check(op, stdout) is None
            same_outcomes = same_outcomes and ok == first_ok[i]
    rec.write(scratch / f"spans-{workload}.npz")
    return {"metrics": tracing.layer_metrics(rec, main_spans), "spans": len(rec.names),
            "missing": tracer.missing, "untraced_s": busy[False], "traced_s": busy[True],
            "same_outcomes": same_outcomes}


def run_workload(cli, workload: str, seed: int, seconds: float, traced: bool,
                 scratch: Path) -> dict:
    scratch.mkdir(exist_ok=True)
    stream = ops(workload, seed, scratch)
    _loop(cli, stream, WARMUP_S)
    if not traced:
        _, records = _loop(cli, stream, seconds)
        result = {
            "records": records,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "numpy": np.__version__,
            "probe": [],
        }
        if workload == "queries":
            for op in defect_probe(seed):
                code, _, stdout = execute(cli.main, op)
                result["probe"].append(outcome(cli, op, code, stdout))
        return result
    done, records = _loop(cli, stream, seconds * FIRST_PASS_SHARE)
    trace = _traced_replay(cli, done, [r[3] is None for r in records], scratch, workload)
    return {"records": records, "trace": trace, "numpy": np.__version__}
