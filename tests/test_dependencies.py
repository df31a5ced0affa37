import os
import pkgutil
import subprocess
import sys
from types import ModuleType

import hcsos


def _modules_in_fresh_process(code, *tops):
    """Modules under the names ``tops`` (a top-level package or a dotted
    subpackage) loaded after running ``code`` in a fresh interpreter."""
    code += (
        "import sys\n"
        f"print(sorted(m for m in sys.modules if m.startswith({tops!r})))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(hcsos.__path__[0])},
        timeout=60,
    )
    return out.stdout.strip()


def _import_every_submodule():
    """Code that imports hcsos and every submodule, and the submodule count."""
    names = [f"hcsos.{m.name}" for m in pkgutil.iter_modules(hcsos.__path__)]
    code = (
        "import importlib\n"
        f"for name in {['hcsos', *names]!r}:\n"
        "    importlib.import_module(name)\n"
    )
    return code, len(names)


def test_runtime_imports_neither_scipy_nor_mpmath():
    # scipy and mpmath are installed for the tests only; importing the
    # package and every submodule in a fresh interpreter must not pull
    # either in
    code, submodules = _import_every_submodule()
    assert submodules >= 7
    assert _modules_in_fresh_process(code, "scipy", "mpmath") == "[]"


def test_import_leaves_thread_pool_unloaded():
    # nothing in the package starts a thread pool; loading concurrent.futures
    # at import time would add milliseconds to every CLI start
    code, _ = _import_every_submodule()
    assert _modules_in_fresh_process(code, "concurrent") == "[]"


def test_simulate_leaves_thread_pool_and_numpy_random_unloaded():
    # importing hcsos.cli imports every submodule; concurrent.futures would
    # add milliseconds to every CLI start, and numpy.random megabytes of RSS
    # to every simulate call, whose counts come from the standard library's
    # random
    code = (
        "import os\n"
        "from hcsos.cli import main\n"
        "argv = ['simulate', '--k', '3', '--theta', '0.5', '--measure', 'mu1',\n"
        "        '--depth', '4', '--samples', '40000', '--out', os.devnull]\n"
        "assert main(argv) == 0\n"
    )
    loaded = _modules_in_fresh_process(code, "concurrent", "numpy.random")
    assert loaded == "[]"


def test_sweep_leaves_hashlib_numpy_random_and_thread_pool_unloaded():
    # a long sweep runs the lockstep route; each of these modules would add
    # to the RSS of every sweep process (hashlib alone about 3 MB)
    code = (
        "import os\n"
        "from hcsos.cli import main\n"
        "for fmt in ('csv', 'json'):\n"
        "    argv = ['sweep', '--k', '3', '--theta-min', '0.1', '--theta-max',\n"
        "            '2.5', '--steps', '250', '--format', fmt, '--out', os.devnull]\n"
        "    assert main(argv) == 0\n"
    )
    loaded = _modules_in_fresh_process(code, "hashlib", "numpy.random", "concurrent")
    assert loaded == "[]"


def test_public_surface_is_all_and_small():
    # __all__ is sorted, names each public object once, and holds at most
    # 35 names; every other public name of the package is a submodule
    names = hcsos.__all__
    assert names == sorted(set(names))
    assert all(hasattr(hcsos, name) for name in names)
    assert len(names) <= 35
    public = {
        name for name, value in vars(hcsos).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == set(names)
