"""The benchmark's contract, checked in tier 1.

The first ops of each workload in ``benchmarks/`` run through
``hcsos.cli.main`` and must pass the benchmark's own output checks, as
must ``classify --measure all`` around theta_cr, and the defect probes
of seeds 1-3 must file every failing call under a known defect.  Nothing
under ``benchmarks/`` is written.
"""

import math
import sys
from itertools import islice
from pathlib import Path

import pytest

from hcsos import cli
from hcsos.tisgm import theta_cr

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
FIRST_OPS = {"sweep": 3, "queries": 40, "simulate": 3}


@pytest.fixture(scope="module")
def bench():
    # the benchmark's modules import each other by bare name
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import oracles
        import runner
        import workloads

        yield runner, workloads, oracles
    finally:
        sys.path.remove(str(BENCHMARKS))


@pytest.mark.parametrize("workload", sorted(FIRST_OPS))
def test_first_ops_pass_the_benchmark_checks(bench, workload, tmp_path):
    runner, workloads, _ = bench
    stream = workloads.ops(workload, 1, tmp_path)
    for op in islice(stream, FIRST_OPS[workload]):
        code, _, stdout = runner.execute(cli.main, op)
        assert runner.outcome(cli, op, code, stdout) is None, op.argv


@pytest.mark.parametrize("k", [2, 3, 8])
def test_classify_all_passes_the_benchmark_check_around_theta_cr(bench, k):
    # where solve_asymmetric gives no pair, classify --measure all prints
    # mu0 alone; the benchmark's own check must accept that
    runner, workloads, oracles = bench
    below = [theta_cr(k)]
    for _ in range(4):
        below.append(math.nextafter(below[-1], 0.0))
    for theta in (*below, below[0] - 0.5e-9, below[0] - 2e-9):
        argv = ("classify", "--k", str(k), "--theta", repr(theta), "--measure", "all",
                "--format", "json")
        op = workloads.Op("classify", argv, {"k": k, "theta": theta})
        code, _, stdout = runner.execute(cli.main, op)
        assert code == 0, argv
        assert oracles.check(op, stdout) is None, argv


def test_defect_probe_files_every_failure_under_a_known_defect(bench):
    runner, workloads, _ = bench
    buckets = []
    for seed in (1, 2, 3):
        for op in workloads.defect_probe(seed):
            code, _, stdout = runner.execute(cli.main, op)
            buckets.append(runner.outcome(cli, op, code, stdout))
    unknown = [b for b in buckets if b is not None and b.startswith("unknown")]
    assert not unknown
