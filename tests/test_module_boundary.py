"""The solve path stays apart from the independent check routes: no
solver module imports oracles, verification or trig_products, not even
inside a function."""

import ast
import pathlib

import pytest

_PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "extremal_poly"
SOLVE_PATH = ("binomial_family", "jacobi_family", "poly_core", "solvers", "energy", "lemniscate")
CHECK_ROUTES = {"oracles", "verification", "trig_products"}


def imported_names(source: str) -> set[str]:
    """Every dotted part of every module named by an import or from-import
    node anywhere in source, and every name a from-import takes."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            names.update(node.module.split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update(alias.name.split("."))
    return names


def test_imports_are_found_at_any_depth():
    source = (
        "import extremal_poly.trig_products\n"
        "def f():\n"
        "    from . import oracles\n"
        "    class C:\n"
        "        def g(self):\n"
        "            from .verification import run_suite\n"
    )
    assert CHECK_ROUTES <= imported_names(source)


@pytest.mark.parametrize("module", SOLVE_PATH)
def test_solve_path_imports_no_check_route(module):
    source = (_PACKAGE / (module + ".py")).read_text()
    assert not imported_names(source) & CHECK_ROUTES
