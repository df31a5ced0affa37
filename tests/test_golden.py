"""Replay of the golden corpus (``tests/golden.py``) in tier 1.

A stratified subset, at most PER_CLASS evenly spaced commands of each
class, runs in process and must give the exit code and the stdout and
stderr digests that ``tests/golden.tsv`` records.
"""

from collections import defaultdict

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
