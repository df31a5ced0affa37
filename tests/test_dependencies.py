import os
import pkgutil
import subprocess
import sys

import hcsos


def test_runtime_imports_neither_scipy_nor_mpmath():
    # scipy and mpmath are installed for the tests only; importing the
    # package and every submodule in a fresh interpreter must not pull
    # either in
    names = [f"hcsos.{m.name}" for m in pkgutil.iter_modules(hcsos.__path__)]
    code = (
        "import importlib, sys\n"
        f"for name in {['hcsos', *names]!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(hcsos.__path__[0])},
        timeout=60,
    )
    assert len(names) >= 7
    assert out.stdout.strip() == "[]"
