"""The benchmark's contract, checked in tier 1.

The first ops of each workload in ``benchmarks/`` run through
``hcsos.cli.main`` and must pass the benchmark's own output checks, and
the seed-1 defect probe must file every failing call under a known
defect.  Nothing under ``benchmarks/`` is written.
"""

import sys
from itertools import islice
from pathlib import Path

import pytest

from hcsos import cli

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
FIRST_OPS = {"sweep": 3, "queries": 40, "simulate": 3}


@pytest.fixture(scope="module")
def bench():
    # the benchmark's modules import each other by bare name
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import runner
        import workloads

        yield runner, workloads
    finally:
        sys.path.remove(str(BENCHMARKS))


@pytest.mark.parametrize("workload", sorted(FIRST_OPS))
def test_first_ops_pass_the_benchmark_checks(bench, workload, tmp_path):
    runner, workloads = bench
    stream = workloads.ops(workload, 1, tmp_path)
    for op in islice(stream, FIRST_OPS[workload]):
        code, _, stdout = runner.execute(cli.main, op)
        assert runner.outcome(cli, op, code, stdout) is None, op.argv


def test_defect_probe_files_every_failure_under_a_known_defect(bench):
    runner, workloads = bench
    buckets = []
    for op in workloads.defect_probe(1):
        code, _, stdout = runner.execute(cli.main, op)
        buckets.append(runner.outcome(cli, op, code, stdout))
    unknown = [b for b in buckets if b is not None and b.startswith("unknown")]
    assert not unknown
