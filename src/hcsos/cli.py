"""Command-line front end: enumeration, classification, sweeps, sampling.

Subcommands: tisgm, classify, sweep, thresholds, simulate, iterate.
Exit codes: 0 success, 1 computation or domain failure, 2 usage error.
Floats are serialized with repr (shortest round-trip decimals), so every
emitted file parses back to bit-identical values.

A sweep is one ``SweepTable``, a column per CSV field.  ``grid``, which
only ``sweep`` imports, builds it; ``write_phase_csv``,
``write_phase_jsonl`` and ``read_phase_csv`` write and parse it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from itertools import chain, repeat
from operator import sub
from typing import NamedTuple

from .chain import kernel_of, stationary
from .extremality import (
    Measure, classify_solution, no_pair_text, solution_of, thresholds
)
from .model import Branch, ModelParams
from .sampler import TreeConfig, estimate_marginals
from .tisgm import BoundaryLaw, SolutionSet, enumerate_solutions, iterate_boundary_law

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


class SweepTable(NamedTuple):
    """A sweep's solutions and verdicts as columns, one per ``CSV_HEADER`` field.

    k, theta and theta_cr hold one entry per grid point, the other
    fields one entry per solution, in grid order (Symmetric, Upper,
    Lower at each point); point i's solutions end at ``ends[i]``.  A
    point within the critical guard of theta_cr has only the
    symmetric solution, with verdict "Critical" instead of a
    classification (the asymmetric pair is not separable there).
    """

    columns: list
    ends: list[int]


def write_phase_csv(table: SweepTable, stream: io.TextIOBase) -> None:
    """Write one CSV line per solution, as ``csv.writer`` would, in one write.

    Numbers are written as their repr, and the header, branch and
    verdict names verbatim: csv quotes none of them.
    """
    columns, ends = table
    point = map(",".join, zip(*(map(repr, column) for column in columns[:3])))
    prefix = chain.from_iterable(map(repeat, point, map(sub, ends, [0, *ends])))
    branch, *numbers, verdict = columns[3:]
    rows = zip(prefix, branch, *(map(repr, column) for column in numbers), verdict)
    lines = [",".join(CSV_HEADER), *map(",".join, rows)]
    stream.write("\n".join(lines) + "\n")


def read_phase_csv(stream: io.TextIOBase) -> SweepTable:
    """Parse a sweep CSV back into its table (exact float round-trip).

    Each grid point's rows start with its Symmetric row, so a point
    starts at every Symmetric row, and wherever k or theta changes.
    """
    reader = csv.reader(stream)
    header = next(reader)
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header}")
    columns: list[list] = [[] for _ in CSV_HEADER]
    ks, thetas, tcs, *fields = columns
    ends: list[int] = []
    for line in reader:
        k, theta, tc = int(line[0]), float(line[1]), float(line[2])
        row = (line[3], *map(float, line[4:10]), line[10])
        symmetric = row[0] == Branch.SYMMETRIC.value
        if not ends or symmetric or (ks[-1], thetas[-1]) != (k, theta):
            ks.append(k)
            thetas.append(theta)
            tcs.append(tc)
            ends.append(ends[-1] if ends else 0)
        for column, value in zip(fields, row):
            column.append(value)
        ends[-1] += 1
    return SweepTable(columns, ends)


def write_phase_jsonl(table: SweepTable, stream: io.TextIOBase) -> None:
    """Write one JSON line per grid point, with its solutions as objects."""
    (ks, thetas, tcs, *fields), ends = table
    rows = [dict(zip(CSV_HEADER[3:], row)) for row in zip(*fields)]
    verdicts = fields[-1]
    for k, theta, tc, start, end in zip(ks, thetas, tcs, [0, *ends], ends):
        obj = {
            "k": k,
            "theta": theta,
            "theta_cr": tc,
            "critical": "Critical" in verdicts[start:end],
            "solutions": rows[start:end],
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
    if args.format == "json":
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
    if args.measure == "all":
        sols = enumerate_solutions(k, theta).solutions
    else:
        sols = (solution_of(k, theta, Measure(args.measure)),)
    verdicts = [classify_solution(k, theta, s) for s in sols]
    lines = [line for v in verdicts for line in _verdict_lines(v)]
    if args.measure == "all" and len(sols) == 1:
        lines.append(no_pair_text(k, theta, at_point=False))
    _print_or_dump(args, lines, [_verdict_obj(v) for v in verdicts])
    return 0


def cmd_sweep(args) -> int:
    if not args.theta_min < args.theta_max:
        raise UsageError(
            f"need theta_min < theta_max, got {args.theta_min} >= {args.theta_max}"
        )
    from .grid import sweep_table

    table = sweep_table(args.k, args.theta_min, args.theta_max, args.steps)
    if args.out == "-":
        target = sys.stdout
        close = False
    else:
        target = open(args.out, "w", encoding="utf-8", newline="")
        close = True
    try:
        if args.format == "json":
            write_phase_jsonl(table, target)
        else:
            write_phase_csv(table, target)
    finally:
        if close:
            target.close()
    return 0


def cmd_thresholds(args) -> int:
    table = thresholds(args.k).values()
    if not table:
        note = (
            f"k = {args.k}: no extremality thresholds; the symmetric measure "
            "is non-extreme for every theta > 0"
        )
        if args.k == 4:
            note += " except theta = 1, where 4 s2^2 = 1 exactly (Undetermined)"
        _print_or_dump(args, [note + "."], {"k": args.k, "thresholds": []})
        return 0
    lines = [
        f"k = {args.k}",
        f"{'name':<8} {'closed-form':<24} {'root-found':<24} {'difference':<12}",
    ]
    for t in table:
        closed = repr(t.closed_form) if t.closed_form is not None else "-"
        diff = (
            f"{abs(t.closed_form - t.root_found):.3e}"
            if t.closed_form is not None
            else "-"
        )
        lines.append(f"{t.name:<8} {closed:<24} {t.root_found!r:<24} {diff:<12}")
    obj = {
        "k": args.k,
        "thresholds": [
            {
                "name": t.name,
                "value": t.value,
                "closed_form": t.closed_form,
                "root_found": t.root_found,
                "provenance": t.provenance,
            }
            for t in table
        ],
    }
    _print_or_dump(args, lines, obj)
    return 0


def cmd_simulate(args) -> int:
    cfg = TreeConfig(k=args.k, depth=args.depth, seed=args.seed)
    sol = solution_of(args.k, args.theta, Measure(args.measure))
    kern = kernel_of(sol, args.k, args.theta)
    stats = estimate_marginals(kern, cfg, args.samples)
    pc = stats.pair_counts
    payload = {
        "k": args.k,
        "theta": args.theta,
        "measure": args.measure,
        "depth": args.depth,
        "samples": args.samples,
        "seed": args.seed,
        "solution": {"branch": sol.branch.value, "x": sol.x, "y": sol.y},
        "stationary": stationary(kern),
        "level_frequencies": stats.level_frequencies,
        "pair_frequencies": stats.pair_frequencies,
        "inadmissible_edges": pc[0][2] + pc[1][1] + pc[2][0],
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
        try:
            entries = tuple(map(float, args.init.split(",")))
        except ValueError:
            text = f"--init takes comma-separated numbers, got {args.init!r}"
            raise ValueError(text) from None
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
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: not enough memory for this request", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
