"""Command-line front end: enumeration, classification, sweeps, sampling.

Subcommands: tisgm, classify, sweep, thresholds, simulate, iterate.
Exit codes: 0 success, 1 computation or domain failure, 2 usage error.
Floats are serialized with repr (shortest round-trip decimals), so every
emitted file parses back to bit-identical values.

All computations are pure, so sweep grid points are independent of one
another; records are emitted in grid order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .chain import kernel_of, stationary
from .extremality import (
    Measure,
    classify_mu0,
    classify_mu12,
    classify_solution,
    thresholds,
)
from .model import ModelParams, TisgmSolution
from .sampler import TreeConfig, estimate_marginals
from .tisgm import (
    BoundaryLaw,
    NumericalDomainError,
    SolutionSet,
    enumerate_solutions,
    iterate_boundary_law,
    solve_asymmetric,
    solve_symmetric,
    theta_cr,
)

CSV_HEADER = [
    "k",
    "theta",
    "theta_cr",
    "branch",
    "x",
    "y",
    "s2",
    "kappa",
    "ks_value",
    "msw_value",
    "verdict",
]


class UsageError(Exception):
    """Bad flag combination not expressible as a per-argument type check."""


@dataclass(frozen=True)
class SolutionRow:
    branch: str
    x: float
    y: float
    s2: float
    kappa: float
    ks_value: float
    msw_value: float
    verdict: str


@dataclass(frozen=True)
class PhaseRecord:
    """All solutions and verdicts at one (k, theta) grid point."""

    k: int
    theta: float
    theta_critical: float
    rows: tuple[SolutionRow, ...]

    @property
    def critical(self) -> bool:
        return any(r.verdict == "Critical" for r in self.rows)


def build_phase_record(k: int, theta: float) -> PhaseRecord:
    """Enumerate and classify every measure at one grid point.

    Grid points within the critical guard of theta_cr(k) carry the
    symmetric solution with verdict "Critical" instead of a
    classification (the asymmetric pair is not separable there).
    """
    sset = enumerate_solutions(k, theta)
    rows = []
    for sol in sset.solutions:
        v = classify_solution(k, theta, sol)
        verdict = "Critical" if sset.critical else v.verdict.value
        rows.append(
            SolutionRow(
                branch=sol.branch.value,
                x=sol.x,
                y=sol.y,
                s2=v.s2,
                kappa=v.kappa,
                ks_value=v.ks_value,
                msw_value=v.msw_value,
                verdict=verdict,
            )
        )
    return PhaseRecord(k, theta, sset.theta_critical, tuple(rows))


def sweep_records(
    k: int, theta_min: float, theta_max: float, steps: int
) -> list[PhaseRecord]:
    grid = np.linspace(theta_min, theta_max, steps)
    return [build_phase_record(k, float(t)) for t in grid]


def write_phase_csv(records: list[PhaseRecord], stream: io.TextIOBase) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rec in records:
        for row in rec.rows:
            writer.writerow(
                [
                    repr(rec.k),
                    repr(rec.theta),
                    repr(rec.theta_critical),
                    row.branch,
                    repr(row.x),
                    repr(row.y),
                    repr(row.s2),
                    repr(row.kappa),
                    repr(row.ks_value),
                    repr(row.msw_value),
                    row.verdict,
                ]
            )


def read_phase_csv(stream: io.TextIOBase) -> list[PhaseRecord]:
    """Parse a sweep CSV back into PhaseRecords (exact float round-trip)."""
    reader = csv.reader(stream)
    header = next(reader)
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header}")
    records: list[PhaseRecord] = []
    for line in reader:
        k, theta, tc = int(line[0]), float(line[1]), float(line[2])
        row = SolutionRow(
            branch=line[3],
            x=float(line[4]),
            y=float(line[5]),
            s2=float(line[6]),
            kappa=float(line[7]),
            ks_value=float(line[8]),
            msw_value=float(line[9]),
            verdict=line[10],
        )
        if records and records[-1].k == k and records[-1].theta == theta:
            last = records[-1]
            records[-1] = PhaseRecord(k, theta, tc, last.rows + (row,))
        else:
            records.append(PhaseRecord(k, theta, tc, (row,)))
    return records


def write_phase_jsonl(records: list[PhaseRecord], stream: io.TextIOBase) -> None:
    for rec in records:
        obj = {
            "k": rec.k,
            "theta": rec.theta,
            "theta_cr": rec.theta_critical,
            "critical": rec.critical,
            "solutions": [asdict(r) for r in rec.rows],
        }
        stream.write(json.dumps(obj, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# argument types (argparse reports failures as usage errors, exit code 2)
# ---------------------------------------------------------------------------


def _order_type(text: str) -> int:
    k = int(text)
    if k < 2:
        raise argparse.ArgumentTypeError(f"tree order k must be >= 2, got {k}")
    return k


def _positive_float(text: str) -> float:
    v = float(text)
    if not 0 < v < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {v}")
    return v


def _even_m(text: str) -> int:
    m = int(text)
    if m < 2 or m % 2 != 0:
        raise argparse.ArgumentTypeError(f"m must be even and >= 2, got {m}")
    return m


def _nonneg_int(text: str) -> int:
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {v}")
    return v


def _positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {v}")
    return v


def _steps_type(text: str) -> int:
    v = int(text)
    if v < 2:
        raise argparse.ArgumentTypeError(f"steps must be >= 2, got {v}")
    return v


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _print_or_dump(args, text_lines: list[str], obj) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _solution_set_obj(sset: SolutionSet) -> dict:
    return {
        "k": sset.k,
        "theta": sset.theta,
        "theta_cr": sset.theta_critical,
        "critical": sset.critical,
        "solutions": [
            {"branch": s.branch.value, "x": s.x, "y": s.y} for s in sset.solutions
        ],
    }


def cmd_tisgm(args) -> int:
    sset = enumerate_solutions(args.k, args.theta)
    lines = [
        f"k = {sset.k}  theta = {sset.theta!r}  theta_cr = {sset.theta_critical!r}",
        f"{len(sset)} translation-invariant solution(s)"
        + ("  [critical: asymmetric pair merged]" if sset.critical else ""),
        f"{'branch':<10} {'x':<24} {'y':<24}",
    ]
    for s in sset.solutions:
        lines.append(f"{s.branch.value:<10} {s.x!r:<24} {s.y!r:<24}")
    _print_or_dump(args, lines, _solution_set_obj(sset))
    return 0


def _verdict_obj(v) -> dict:
    return {
        "measure": v.measure.value,
        "verdict": v.verdict.value,
        "s2": v.s2,
        "kappa": v.kappa,
        "gamma": v.gamma,
        "ks_value": v.ks_value,
        "msw_value": v.msw_value,
    }


def _verdict_lines(v) -> list[str]:
    return [
        f"{v.measure.value}: {v.verdict.value}",
        f"  s2 = {v.s2!r}  kappa = {v.kappa!r}  gamma = {v.gamma!r}",
        f"  ks_value = {v.ks_value!r}  msw_value = {v.msw_value!r}",
    ]


def cmd_classify(args) -> int:
    k, theta = args.k, args.theta
    verdicts = []
    if args.measure in ("mu0", "all"):
        verdicts.append(classify_mu0(k, theta))
    for name, measure in (("mu1", Measure.MU1), ("mu2", Measure.MU2)):
        if args.measure == name:
            verdicts.append(classify_mu12(k, theta, measure))
        elif args.measure == "all" and theta < theta_cr(k):
            verdicts.append(classify_mu12(k, theta, measure))
    lines: list[str] = []
    for v in verdicts:
        lines.extend(_verdict_lines(v))
    if args.measure == "all" and theta >= theta_cr(k):
        lines.append(
            f"mu1/mu2 do not exist (theta >= theta_cr = {theta_cr(k)!r})"
        )
    _print_or_dump(args, lines, [_verdict_obj(v) for v in verdicts])
    return 0


def cmd_sweep(args) -> int:
    if not args.theta_min < args.theta_max:
        raise UsageError(
            f"need theta_min < theta_max, got {args.theta_min} >= {args.theta_max}"
        )
    records = sweep_records(args.k, args.theta_min, args.theta_max, args.steps)
    if args.out == "-":
        target = sys.stdout
        close = False
    else:
        target = open(args.out, "w", encoding="utf-8", newline="")
        close = True
    try:
        if args.format == "json":
            write_phase_jsonl(records, target)
        else:
            write_phase_csv(records, target)
    finally:
        if close:
            target.close()
    return 0


def cmd_thresholds(args) -> int:
    if args.k >= 4:
        print(
            f"k = {args.k}: no extremality thresholds; the symmetric measure "
            "is non-extreme for every theta > 0 once k >= 4."
        )
        return 0
    table = thresholds(args.k)
    if getattr(args, "format", "text") == "json":
        print(
            json.dumps(
                {
                    "k": table.k,
                    "thresholds": [
                        {
                            "name": t.name,
                            "value": t.value,
                            "closed_form": t.closed_form,
                            "root_found": t.root_found,
                            "provenance": t.provenance,
                        }
                        for t in table.entries
                    ],
                },
                sort_keys=True,
            )
        )
        return 0
    print(f"k = {table.k}")
    print(f"{'name':<8} {'closed-form':<24} {'root-found':<24} {'difference':<12}")
    for t in table.entries:
        closed = repr(t.closed_form) if t.closed_form is not None else "-"
        diff = (
            f"{abs(t.closed_form - t.root_found):.3e}"
            if t.closed_form is not None
            else "-"
        )
        print(f"{t.name:<8} {closed:<24} {t.root_found!r:<24} {diff:<12}")
    return 0


def _solution_for_measure(k: int, theta: float, measure: str) -> TisgmSolution:
    if measure == "mu0":
        return solve_symmetric(k, theta)
    pair = solve_asymmetric(k, theta)
    if not pair:
        raise ValueError(f"measure {measure} does not exist at k={k}, theta={theta}")
    upper, lower = pair
    return upper if measure == "mu1" else lower


def cmd_simulate(args) -> int:
    sol = _solution_for_measure(args.k, args.theta, args.measure)
    kern = kernel_of(sol, args.k, args.theta)
    cfg = TreeConfig(k=args.k, depth=args.depth, seed=args.seed)
    stats = estimate_marginals(kern, cfg, args.samples)
    pf = stats.pair_frequencies
    n_edges = args.samples * (cfg.vertex_count - 1)
    bad_mass = float(pf[0, 2] + pf[1, 1] + pf[2, 0])
    payload = {
        "k": args.k,
        "theta": args.theta,
        "measure": args.measure,
        "depth": args.depth,
        "samples": args.samples,
        "seed": args.seed,
        "solution": {"branch": sol.branch.value, "x": sol.x, "y": sol.y},
        "stationary": list(map(float, stationary(kern))),
        "level_frequencies": [list(map(float, f)) for f in stats.level_frequencies],
        "pair_frequencies": [[float(v) for v in row] for row in pf],
        "inadmissible_edges": int(round(bad_mass * n_edges)),
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def cmd_iterate(args) -> int:
    params = ModelParams(k=args.k, theta=args.theta, m=args.m)
    if args.init is not None:
        entries = tuple(float(v) for v in args.init.split(","))
        init = BoundaryLaw(entries)
    else:
        init = BoundaryLaw.ones(args.m)
    outcome = iterate_boundary_law(params, init, args.max_iter, args.tol)
    if outcome.converged:
        law = outcome.law
        obj = {
            "converged": True,
            "iterations": outcome.iterations,
            "residual": outcome.residual,
            "law": list(law.z),
        }
        lines = [
            f"converged in {outcome.iterations} iteration(s), "
            f"last step {outcome.residual!r}",
            "z = (" + ", ".join(repr(v) for v in law.z) + ")",
        ]
        if args.m == 2:
            x, y = law.z[0] ** (1.0 / args.k), law.z[1] ** (1.0 / args.k)
            obj["x"] = x
            obj["y"] = y
            lines.append(f"roots: x = {x!r}  y = {y!r}")
    else:
        obj = {
            "converged": False,
            "iterations": outcome.iterations,
            "residual": outcome.residual,
            "tail": [list(t) for t in outcome.tail],
        }
        lines = [
            f"no convergence after {outcome.iterations} iterations "
            f"(last step {outcome.residual!r}); trajectory tail:",
        ]
        for t in outcome.tail:
            lines.append("  (" + ", ".join(repr(v) for v in t) + ")")
    _print_or_dump(args, lines, obj)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcsos",
        description=(
            "Translation-invariant Gibbs measures of the three-state "
            "hard-core SOS wand model on Cayley trees."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tisgm", help="enumerate fixed points at one (k, theta)")
    p.add_argument("--k", type=_order_type, required=True)
    p.add_argument("--theta", type=_positive_float, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_tisgm)

    p = sub.add_parser("classify", help="extremality verdict for a measure")
    p.add_argument("--k", type=_order_type, required=True)
    p.add_argument("--theta", type=_positive_float, required=True)
    p.add_argument(
        "--measure", choices=["mu0", "mu1", "mu2", "all"], default="all"
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep", help="phase records over a theta grid")
    p.add_argument("--k", type=_order_type, required=True)
    p.add_argument("--theta-min", type=_positive_float, required=True)
    p.add_argument("--theta-max", type=_positive_float, required=True)
    p.add_argument("--steps", type=_steps_type, required=True)
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("thresholds", help="classification thresholds for k in {2,3}")
    p.add_argument("--k", type=_order_type, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("simulate", help="sample configurations, report statistics")
    p.add_argument("--k", type=_order_type, required=True)
    p.add_argument("--theta", type=_positive_float, required=True)
    p.add_argument("--measure", choices=["mu0", "mu1", "mu2"], default="mu0")
    p.add_argument("--depth", type=_nonneg_int, default=4)
    p.add_argument("--samples", type=_positive_int, default=10_000)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("iterate", help="forward boundary-law iteration (any even m)")
    p.add_argument("--m", type=_even_m, default=2)
    p.add_argument("--k", type=_order_type, required=True)
    p.add_argument("--theta", type=_positive_float, required=True)
    p.add_argument("--max-iter", type=_positive_int, default=10_000)
    p.add_argument("--tol", type=_positive_float, default=1e-10)
    p.add_argument(
        "--init", default=None, help="comma-separated start law (default all ones)"
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_iterate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError, NumericalDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
