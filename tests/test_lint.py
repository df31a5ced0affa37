import ast
from pathlib import Path

import hcsos

# From Python 3.12 on the built-in sum adds floats with compensation, so a
# float total it makes differs in the last bit between Pythons; float totals
# are written out left to right.  It stays only where no rounding shows:
SUM_ALLOWED = {
    ("grid.py", "sweep_table"): "numpy columns, tested for finiteness only",
    ("sampler.py", "estimate_marginals"): "Python ints, which add exactly",
}

# Arrays are confined to the two routes that need them, the lockstep sweep
# and the boundary-law iteration; numpy is imported only here:
NUMPY_ALLOWED = {
    ("grid.py", "<module>"): "the sweep's columns",
    ("tisgm.py", "_map_once"): "one step of the map on an array",
    ("tisgm.py", "iterate_boundary_law"): "the iterate as an array",
    ("tisgm.py", "TYPE_CHECKING"): "the annotations of _map_once",
}


def _sites(tree, is_site):
    """Where each node that ``is_site`` accepts sits: the name of its
    enclosing function, "TYPE_CHECKING" inside an ``if TYPE_CHECKING:``
    block, or "<module>"."""
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.If)
                and isinstance(child.test, ast.Name)
                and child.test.id == "TYPE_CHECKING"
            ):
                visit(child, "TYPE_CHECKING")
                continue
            if is_site(child):
                sites.append(where)
            visit(child, where)

    visit(tree, "<module>")
    return sites


def _is_sum_call(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
    )


def _is_numpy_import(node):
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        modules = [node.module or ""]
    else:
        return False
    return any(m == "numpy" or m.startswith("numpy.") for m in modules)


def _found(is_site):
    return {
        (path.name, where)
        for path in Path(hcsos.__path__[0]).glob("*.py")
        for where in _sites(ast.parse(path.read_text()), is_site)
    }


def test_builtin_sum_only_where_no_rounding_shows():
    assert _found(_is_sum_call) == set(SUM_ALLOWED)


def test_numpy_imported_only_by_the_array_routes():
    assert _found(_is_numpy_import) == set(NUMPY_ALLOWED)
