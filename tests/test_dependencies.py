import os
import pkgutil
import subprocess
import sys
from types import ModuleType

import pytest

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
    # simulate loads the sampler; concurrent.futures would add milliseconds
    # to every simulate call, and numpy.random megabytes of RSS, although its
    # counts come from the standard library's random
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


@pytest.mark.parametrize("code", ["import hcsos\n", "import hcsos.cli\n"])
def test_import_leaves_numpy_and_grid_unloaded(code):
    # only a sweep needs arrays; numpy costs tens of milliseconds per process
    assert _modules_in_fresh_process(code, "numpy", "hcsos.grid") == "[]"


@pytest.mark.parametrize(
    "argv,code",
    [
        (["classify", "--k", "2", "--theta", "0.7"], 0),
        (["classify", "--k", "3", "--theta", "0.5", "--measure", "mu1"], 0),
        (["tisgm", "--k", "3", "--theta", "0.5"], 0),
        (["thresholds", "--k", "2"], 0),
        (["thresholds", "--k", "3"], 0),
        # a domain failure through the bracket ladder
        (["classify", "--k", "100", "--theta", "0.5", "--measure", "mu1"], 1),
    ],
)
def test_single_point_verbs_leave_numpy_and_grid_unloaded(argv, code):
    run = (
        "import contextlib, io\n"
        "from hcsos.cli import main\n"
        "for fmt in ('text', 'json'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"        assert main({argv!r} + ['--format', fmt]) == {code}\n"
    )
    assert _modules_in_fresh_process(run, "numpy", "hcsos.grid") == "[]"


_SIMULATE = ["simulate", "--k", "3", "--theta", "0.5", "--measure", "mu1",
             "--depth", "4", "--samples", "40000"]


@pytest.mark.parametrize(
    "argv,code",
    [
        (_SIMULATE, 0),
        (_SIMULATE + ["--out", os.devnull], 0),
        # a domain failure through the bracket ladder
        (["simulate", "--k", "100", "--theta", "0.5", "--measure", "mu1",
          "--depth", "1", "--samples", "1"], 1),
        # a refused kernel, whose message states its entries
        (["simulate", "--k", "20", "--theta", "1e-20", "--measure", "mu0",
          "--depth", "2", "--samples", "10"], 1),
    ],
)
def test_simulate_leaves_numpy_and_grid_unloaded(argv, code):
    # the counts and frequencies are plain ints and floats
    run = (
        "import contextlib, io\n"
        "from hcsos.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert main({argv!r}) == {code}\n"
    )
    assert _modules_in_fresh_process(run, "numpy", "hcsos.grid") == "[]"


@pytest.mark.parametrize(
    "module", ["tisgm", "extremality", "rootfind", "chain", "sampler"]
)
def test_scalar_modules_leave_grid_unloaded(module):
    loaded = _modules_in_fresh_process(f"import hcsos.{module}\n", "numpy", "hcsos.grid")
    assert loaded == "[]"


def test_scalar_routes_leave_numpy_unloaded():
    # a kernel, its stationary law, the verdicts, the activity matrix and
    # the sampler's counts are plain floats and ints: only a sweep and the
    # boundary-law iteration build arrays
    code = (
        "from hcsos.chain import kernel_of, stationary\n"
        "from hcsos.extremality import classify_solution\n"
        "from hcsos.model import activity_matrix\n"
        "from hcsos.sampler import TreeConfig, estimate_marginals\n"
        "from hcsos.tisgm import enumerate_solutions\n"
        "for sol in enumerate_solutions(3, 0.5).solutions:\n"
        "    kern = kernel_of(sol, 3, 0.5)\n"
        "    stationary(kern)\n"
        "    classify_solution(3, 0.5, sol)\n"
        "    estimate_marginals(kern, TreeConfig(k=3, depth=4), 1000)\n"
        "activity_matrix(6, 0.5)\n"
    )
    assert _modules_in_fresh_process(code, "numpy") == "[]"


def test_public_surface_is_all_and_small():
    # __all__ is sorted, names each public object once, and holds at most
    # 26 names; every other public name of the package is a submodule
    names = hcsos.__all__
    assert names == sorted(set(names))
    assert all(hasattr(hcsos, name) for name in names)
    assert len(names) <= 26
    public = {
        name for name, value in vars(hcsos).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == set(names)
