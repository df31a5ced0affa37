"""Replay of the golden corpus (``tests/golden.py``) in tier 1.

A stratified subset, at most PER_CLASS evenly spaced commands of each
class, runs in process and must give the exit code and the stdout and
stderr digests that ``tests/golden.tsv`` records.
"""

from collections import defaultdict

import numpy as np
import pytest

import golden
from hcsos.cli import main

PER_CLASS = 30


def _subset():
    by_class = defaultdict(list)
    for row in golden.read_manifest():
        by_class[row[0]].append(row)
    return [
        row
        for rows in by_class.values()
        for row in rows[:: -(-len(rows) // PER_CLASS)]
    ]


def test_manifest_lists_the_corpus():
    # the manifest was recorded from the generator as it stands
    assert [row[:2] for row in golden.read_manifest()] == golden.corpus()


@pytest.mark.parametrize("row", _subset(), ids=lambda row: f"{row[0]}: {row[1]}")
def test_replay(row):
    cls, command, *recorded = row
    assert list(golden.run_command(main, command)) == recorded


@pytest.mark.parametrize("command", [
    "iterate --k 5 --theta 0.10298929806153578 --m 6 --max-iter 500 --format json",
    "simulate --k 20 --theta 1e-20 --measure mu0 --depth 2 --samples 10",
])
def test_error_texts_ignore_numpy_print_options(command):
    # both errors print an array, in numpy's default format whatever the
    # process has set
    recorded = {row[1]: list(row[2:]) for row in golden.read_manifest()}[command]
    with np.printoptions(precision=4, suppress=True, floatmode="fixed", sign="+"):
        assert list(golden.run_command(main, command)) == recorded
