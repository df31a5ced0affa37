import os
import pkgutil
import subprocess
import sys

import hcsos


def _modules_after_fresh_import(*tops):
    """Modules under the top-level names ``tops`` that importing hcsos and
    every submodule in a fresh interpreter loads, and the submodule count."""
    names = [f"hcsos.{m.name}" for m in pkgutil.iter_modules(hcsos.__path__)]
    code = (
        "import importlib, sys\n"
        f"for name in {['hcsos', *names]!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {tops!r}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(hcsos.__path__[0])},
        timeout=60,
    )
    return out.stdout.strip(), len(names)


def test_runtime_imports_neither_scipy_nor_mpmath():
    # scipy and mpmath are installed for the tests only; importing the
    # package and every submodule in a fresh interpreter must not pull
    # either in
    loaded, submodules = _modules_after_fresh_import("scipy", "mpmath")
    assert submodules >= 7
    assert loaded == "[]"


def test_import_leaves_thread_pool_unloaded():
    # the sampler imports concurrent.futures only when it starts a pool;
    # loading it at import time would add milliseconds to every CLI start
    loaded, _ = _modules_after_fresh_import("concurrent")
    assert loaded == "[]"
