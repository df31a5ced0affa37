"""Child process of the benchmark: set up hcsos, run one workload, report.

run.py starts this file in a fresh interpreter with PYTHONPATH set to the
checkout's ``src``.  It imports ``hcsos.cli`` and builds its parser (the
set-up that ``setup_s`` times), prints ``ready``, runs the workload
in-process through ``hcsos.cli.main(argv)`` and prints one JSON line with
the raw results.  With ``--setup-only`` it stops after ``ready``.

Untraced (``--trace 0``): a short warm-up, then ops until ``--seconds``
have passed.  Traced (``--trace 1``): an untraced pass over part of the
time, then a traced replay of exactly the same ops; the difference of
their busy times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    return parser.parse_args()


def main() -> int:
    args = _parse_args()
    from hcsos import cli

    cli.build_parser()
    print("ready", flush=True)
    src = (args.root / "src").resolve()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"hcsos was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        return 0
    import json

    from runner import run_workload

    result = run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace),
                          args.root / ".bench_out")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
