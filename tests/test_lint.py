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


def _sum_calls(tree):
    """Name of the enclosing function of each call to the built-in sum."""
    calls = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "sum"
            ):
                calls.append(where)
            visit(child, where)

    visit(tree, "<module>")
    return calls


def test_builtin_sum_only_where_no_rounding_shows():
    found = {
        (path.name, where)
        for path in Path(hcsos.__path__[0]).glob("*.py")
        for where in _sum_calls(ast.parse(path.read_text()))
    }
    assert found == set(SUM_ALLOWED)
