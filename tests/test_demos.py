"""Smoke test: every demo script runs to the end against the current API."""

import contextlib
import io
import runpy
from pathlib import Path

import numpy as np
import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("[0-9]*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    # demos 03 and 04 set numpy's print options; restore them afterwards,
    # so that they do not leak into later tests
    out = io.StringIO()
    with contextlib.redirect_stdout(out), np.printoptions():
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()
