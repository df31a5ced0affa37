"""Golden corpus of CLI outputs: record a manifest, or diff two source trees.

A seeded generator lists a few thousand ``hcsos`` command lines in
classes (random and typical single-point calls, the neighbourhood of
theta_cr, k = 143, thresholds, sweeps, simulate and iterate runs, usage
errors and the known defects).  Each command runs in process through
``hcsos.cli.main`` and is recorded as one tab-separated line: its class,
its argv, its exit code and the SHA-256 of its stdout and of its stderr.
A call that raises out of ``main`` records ``raised-<type>`` as its exit
code and the exception's text after its stderr.

    python tests/golden.py record         # rewrite tests/golden.tsv from src/
    python tests/golden.py diff A B       # commands whose output differs
    python tests/golden.py without-numpy  # the numpy-free commands, checked

``diff`` runs the corpus on two trees, each a directory holding
``src/hcsos`` or a git revision of this repository (extracted to a
temporary directory), and prints every differing command and the count
per class; it exits 1 if any command differs.  ``run`` prints the lines
for the ``hcsos`` on ``sys.path``; ``record`` and ``diff`` start it in a
fresh interpreter per tree.  ``without-numpy`` blocks the import of
numpy and replays every manifest command that runs without it, for the
``hcsos`` on ``sys.path``; it prints every command whose record differs
from its row and exits 1 if any does, or if none ran.  ``tests/test_golden.py`` replays a
stratified subset of the manifest in tier 1.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import math
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden.tsv"
HEADER = "class\targv\texit\tstdout_sha256\tstderr_sha256"

# k = 2-40, 50, 80, 100 and 142: theta_cr(k) is finite in floats
BAND_KS = (*range(2, 41), 50, 80, 100, 142)
BAND_OFFSETS = (0.3e-9, 0.7e-9, 1.5e-9)
# theta_cr(143) is 71.841495340002402..., the float 71.84149534000238;
# _theta_cr's product form overflows to inf there, so these thetas are
# listed by hand around it
K143_THETAS = (
    1e-3, 0.5, 1.0, 10.0, 50.0, 60.0, 71.0, 71.8414953400022, 71.8414953400023,
    71.84149534000234, 71.84149534000237, 71.84149534000238, 71.8414953400024,
    71.84149534000241, 72.0, 80.0, 1e3,
)

# Commands under ROADMAP's Known defects, and the runner's defect buckets
KNOWN_DEFECTS = (
    "tisgm --k 143 --theta 50",
    "classify --k 143 --theta 80 --measure mu1",
    "classify --k 1000 --theta 0.5",
    "tisgm --k 400 --theta 1",
    "classify --k 200 --theta 60 --measure mu1",
    "classify --k 100 --theta 0.5 --measure mu1",
    "tisgm --k 3 --theta 1e-5",
    "classify --k 3 --theta 1e-200 --measure mu1",
    "sweep --k 20 --theta-min 0.05 --theta-max 3 --steps 1500",
    "classify --k 20 --theta 1e-20 --measure mu0",
    "simulate --k 20 --theta 1e-20 --measure mu0 --depth 2 --samples 10",
    "classify --k 8 --theta 0.005 --measure mu1",
    "tisgm --k 2 --theta 1e-40",
    "classify --k 3 --theta 1e20",
    "tisgm --k 140 --theta 1e-3",
)

USAGE_ERRORS = (
    "",
    "bogus --k 2",
    "classify --theta 0.5",
    "classify --k 1 --theta 0.5",
    "classify --k 2 --theta 0",
    "classify --k 2 --theta inf",
    "classify --k 2 --theta nan",
    "classify --k 2 --theta 0.5 --measure mu3",
    "tisgm --k two --theta 0.5",
    "sweep --k 2 --theta-min 0.5 --theta-max 0.4 --steps 5",
    "sweep --k 2 --theta-min 0.5 --theta-max 0.5 --steps 5",
    "sweep --k 2 --theta-min 0.5 --theta-max 0.6 --steps 1",
    "thresholds --k 2 --format csv",
    "simulate --k 2 --theta 0.5 --samples 0",
    "simulate --k 2 --theta 0.5 --depth -1",
    "iterate --m 3 --k 2 --theta 0.5",
    "iterate --k 2 --theta 0.5 --tol 0",
    "iterate --k 2 --theta 0.5 --init 1,0,1",
    "iterate --k 2 --theta 0.5 --init 1,2",
    "classify --k 2 --theta abc",
    "iterate --k 2 --theta 1 --m two",
)


def _theta_cr(k: int) -> float:
    # theta_cr(k) as the package forms it today, so the corpus does not
    # depend on the tree it runs on
    try:
        return ((k - 1) * float(k) ** k / 2.0**k) ** (1.0 / (k + 1))
    except OverflowError:
        return math.inf


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _point(verb: str, k: int, theta: float, *extra: str) -> str:
    return " ".join((verb, "--k", str(k), "--theta", repr(theta), *extra))


def _sweep(k: int, lo: float, hi: float, steps: int, fmt: str = "csv") -> str:
    return (f"sweep --k {k} --theta-min {lo!r} --theta-max {hi!r} --steps {steps}"
            f" --format {fmt}")


def _band_commands(k: int, theta: float) -> list[str]:
    # the seven commands whose output depends on whether the pair exists
    return [
        _point("classify", k, theta),
        _point("classify", k, theta, "--format", "json"),
        _point("classify", k, theta, "--measure", "mu1"),
        _point("classify", k, theta, "--measure", "mu2", "--format", "json"),
        _point("tisgm", k, theta),
        _point("tisgm", k, theta, "--format", "json"),
        _point("simulate", k, theta, "--measure", "mu2", "--depth", "3", "--samples", "50"),
    ]


def corpus() -> list[tuple[str, str]]:
    """(class, command line) of every command, in a fixed order."""
    rng = random.Random("hcsos golden corpus")
    out: list[tuple[str, str]] = []
    add = lambda cls, cmds: out.extend((cls, c) for c in cmds)

    measures = ("all", "mu0", "mu1", "mu2")
    for i in range(700):
        k = int(round(_log_uniform(rng, 2, 1e4)))
        k = 142 if k == 143 else k
        if i % 2:
            theta = 10.0 ** rng.uniform(-300, 300)
        else:
            theta = _log_uniform(rng, 0.01, 100.0)
        fmt = ("--format", rng.choice(("text", "json")))
        if rng.random() < 0.7:
            add("random", [_point("classify", k, theta, "--measure", rng.choice(measures), *fmt)])
        else:
            add("random", [_point("tisgm", k, theta, *fmt)])

    for _ in range(200):
        k, theta = rng.choice((2, 3, 4, 5, 8)), _log_uniform(rng, 0.1, 50.0)
        add("typical", [_point("classify", k, theta, "--format", "json")])

    for k in BAND_KS:
        tc = _theta_cr(k)
        below = [tc]
        for _ in range(4):
            below.append(math.nextafter(below[-1], 0.0))
        thetas = [tc + s * d for d in BAND_OFFSETS for s in (-1, 1)] + below[1:]
        for theta in thetas:
            add("theta-cr-band", _band_commands(k, theta))

    for theta in K143_THETAS:
        add("k143-point", _band_commands(143, theta))
    add("k143-sweep", [
        _sweep(143, 71.8414953400023, 71.84149534000238, 7, fmt) for fmt in ("csv", "json")
    ] + [_sweep(143, 60.0, 71.84149534000238, 50, fmt) for fmt in ("csv", "json")])

    add("thresholds", [
        f"thresholds --k {k} --format {fmt}" for k in range(1, 8) for fmt in ("text", "json")
    ])

    sweeps = []
    for fmt in ("csv", "json"):
        sweeps += [_sweep(k, 0.1, 2.5, 250, fmt) for k in (2, 3, 8)]
        sweeps += [_sweep(k, 0.5, 1.5, 1001, fmt) for k in (2, 4)]
        for k in (2, 3, 8, 20, 142):
            tc = _theta_cr(k)
            sweeps.append(_sweep(k, tc - 2e-9, tc, 9, fmt))
    sweeps.append(_sweep(3, 0.05, 3.0, 200, "json"))
    for _ in range(20):
        lo, hi = sorted((_log_uniform(rng, 0.05, 5.0), _log_uniform(rng, 0.05, 5.0)))
        sweeps.append(_sweep(rng.randint(2, 12), lo, hi, rng.randint(2, 400),
                             rng.choice(("csv", "json"))))
    add("sweep", sweeps)

    for _ in range(30):
        k = rng.randint(2, 8)
        theta = _log_uniform(rng, 0.05, 5.0)
        add("simulate", [_point(
            "simulate", k, theta, "--measure", rng.choice(("mu0", "mu1", "mu2")),
            "--depth", str(rng.randint(0, 6)), "--samples", str(rng.randint(1, 40_000)),
            "--seed", str(rng.randrange(2**32)),
        )])

    for _ in range(30):
        m = rng.choice((2, 2, 4, 6))
        extra = ["--m", str(m), "--max-iter", str(rng.choice((1, 50, 500, 3000)))]
        if rng.random() < 0.3:
            init = [_log_uniform(rng, 0.2, 5.0) for _ in range(m)] + [1.0]
            extra += ["--init", ",".join(map(repr, init))]
        if rng.random() < 0.3:
            extra += ["--tol", repr(10.0 ** rng.uniform(-14, -4))]
        extra += ["--format", rng.choice(("text", "json"))]
        k = rng.randint(2, 5)
        add("iterate", [_point("iterate", k, _log_uniform(rng, 0.1, 3.0), *extra)])

    add("usage", USAGE_ERRORS)
    for cmd in KNOWN_DEFECTS:
        add("k143-point" if " --k 143 " in cmd else "known-defects", [cmd])
    return out


def run_command(main, command: str) -> tuple[str, str, str]:
    """(exit code, SHA-256 of stdout, SHA-256 of stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = str(main(command.split()))
        except SystemExit as exc:  # argparse reports usage errors this way
            code = str(exc.code)
        except Exception as exc:  # a traceback in a real process
            code = f"raised-{type(exc).__name__}"
            err.write(str(exc))
    digest = lambda s: hashlib.sha256(s.getvalue().encode()).hexdigest()
    return code, digest(out), digest(err)


def read_manifest(path: Path = MANIFEST) -> list[tuple[str, ...]]:
    """Rows (class, argv, exit, stdout digest, stderr digest) of a manifest."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0] != HEADER:
        raise ValueError(f"{path} does not start with the manifest header")
    return [tuple(line.split("\t")) for line in lines[1:]]


def _run(stream) -> None:
    from hcsos.cli import main

    stream.write(HEADER + "\n")
    for cls, command in corpus():
        stream.write("\t".join((cls, command, *run_command(main, command))) + "\n")


def without_numpy() -> int:
    """Replay, with numpy blocked, each manifest command that needs no numpy."""
    sys.modules["numpy"] = None  # every later import of numpy raises
    from hcsos.cli import main

    rows = read_manifest()
    ran = differ = 0
    for row in rows:
        record = run_command(main, row[1])
        if record[0] == "raised-ModuleNotFoundError":
            continue  # the command needs numpy
        ran += 1
        if (*row[:2], *record) != row:
            differ += 1
            print(f"{row[0]}\t{row[1]}\texit {row[2]} -> {record[0]}")
    print(f"# {ran} of {len(rows)} commands need no numpy; {differ} of them differ")
    return 1 if differ or not ran else 0


def _tree(spec: str, target: Path) -> Path:
    """The directory of a tree: ``spec`` itself, or revision ``spec`` of this
    repository, extracted to ``target``."""
    path = Path(spec)
    if (path / "src" / "hcsos").is_dir():
        return path.resolve()
    target.mkdir()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", spec, "src"],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")
    return target


def _start(tree: Path, out: Path) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    with open(out, "w", encoding="utf-8") as fh:
        return subprocess.Popen(
            [sys.executable, __file__, "run", "--expect", str(tree / "src")],
            stdout=fh, env=env,
        )


def diff(a: str, b: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        trees = [_tree(spec, scratch / name) for spec, name in ((a, "a"), (b, "b"))]
        outs = [scratch / "a.tsv", scratch / "b.tsv"]
        procs = [_start(tree, out) for tree, out in zip(trees, outs)]
        if any(p.wait() != 0 for p in procs):
            raise SystemExit("the corpus did not run on both trees")
        rows_a, rows_b = (read_manifest(out) for out in outs)
    changed = Counter()
    for ra, rb in zip(rows_a, rows_b):
        if ra[:2] != rb[:2]:
            raise SystemExit("the two runs listed different commands")
        if ra != rb:
            changed[ra[0]] += 1
            print(f"{ra[0]}\t{ra[1]}\texit {ra[2]} -> {rb[2]}"
                  f"{'' if ra[3] == rb[3] else '; stdout differs'}"
                  f"{'' if ra[4] == rb[4] else '; stderr differs'}")
    total = Counter(row[0] for row in rows_a)
    for cls in total:
        if changed[cls]:
            print(f"# {cls}: {changed[cls]} of {total[cls]} differ")
    print(f"# {sum(changed.values())} of {len(rows_a)} commands differ")
    return 1 if changed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="print the manifest of the hcsos on sys.path")
    p.add_argument("--expect", type=Path, help="fail unless hcsos comes from here")
    sub.add_parser("record", help=f"rewrite {MANIFEST.relative_to(ROOT)} from src/")
    p = sub.add_parser("diff", help="commands whose output differs between two trees")
    p.add_argument("a")
    p.add_argument("b")
    sub.add_parser("without-numpy", help="check the numpy-free commands, numpy blocked")
    args = parser.parse_args(argv)
    if args.command == "run":
        import hcsos

        if args.expect and not Path(hcsos.__file__).resolve().is_relative_to(
            args.expect.resolve()
        ):
            raise SystemExit(f"hcsos was imported from {hcsos.__file__}")
        _run(sys.stdout)
        return 0
    if args.command == "record":
        partial = MANIFEST.with_suffix(".tmp")
        if _start(ROOT, partial).wait() != 0:
            raise SystemExit("the corpus did not run")
        partial.replace(MANIFEST)
        return 0
    if args.command == "without-numpy":
        return without_numpy()
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
