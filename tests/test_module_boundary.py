"""The solve path stays apart from the independent check routes: no
solver module imports oracles, verification or trig_products, not even
inside a function, and neither `import extremal_poly` nor the CLI loads
them until one of their names is first used."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import extremal_poly

_PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "extremal_poly"
SOLVE_PATH = ("binomial_family", "jacobi_family", "poly_core", "solvers", "energy", "lemniscate")
CHECK_ROUTES = {"oracles", "verification", "trig_products"}
ENTRY_POINTS = ("__init__", "cli")


def imported_names(source: str, at_import: bool = False) -> set[str]:
    """Every dotted part of every module named by an import or from-import
    node anywhere in source, and every name a from-import takes. With
    at_import, only the imports that run when the module is imported:
    those outside every function body."""
    names = set()
    todo = [ast.parse(source)]
    while todo:
        node = todo.pop()
        if not (at_import and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))):
            todo.extend(ast.iter_child_nodes(node))
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


def test_imports_at_import_time_skip_function_bodies():
    source = (
        "try:\n"
        "    from .oracles import jacobi_disc\n"
        "except ImportError:\n"
        "    pass\n"
        "class C:\n"
        "    import extremal_poly.trig_products\n"
        "def f():\n"
        "    from .verification import run_suite\n"
        "async def g():\n"
        "    from . import verification\n"
    )
    assert imported_names(source, at_import=True) & CHECK_ROUTES == {"oracles", "trig_products"}


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_entry_points_import_no_check_route_at_import(module):
    source = (_PACKAGE / (module + ".py")).read_text()
    assert not imported_names(source, at_import=True) & CHECK_ROUTES


def loaded_check_routes(code: str) -> list[list[str]]:
    """Run code in a fresh interpreter on this source tree; each
    `report()` in it records which check routes are loaded by then."""
    prelude = (
        "import json, sys\n"
        "def report():\n"
        "    print(json.dumps(sorted(m for m in %r if 'extremal_poly.' + m in sys.modules)), file=sys.stderr)\n"
    ) % sorted(CHECK_ROUTES)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(_PACKAGE.parent), env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", prelude + code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return [json.loads(line) for line in out.stderr.splitlines()]


def test_import_and_solve_load_no_check_route_until_first_use():
    assert loaded_check_routes(
        "import extremal_poly\n"
        "report()\n"
        "import extremal_poly.cli\n"
        "report()\n"
        "extremal_poly.cli.main(['solve-disc', '--a', '1', '--d', '6', '--m', '100'])\n"
        "report()\n"
        "extremal_poly.run_suite\n"
        "report()\n"
    ) == [[], [], [], sorted(CHECK_ROUTES)]


def test_public_names_resolve_to_their_defining_objects():
    for name in extremal_poly.__all__:
        value = getattr(extremal_poly, name)
        owner = getattr(value, "__module__", None)
        if owner and owner.startswith("extremal_poly."):
            assert getattr(sys.modules[owner], name) is value, name
    assert extremal_poly.TOL_ORACLE is extremal_poly.oracles.TOL_ORACLE
    for name in CHECK_ROUTES:
        assert getattr(extremal_poly, name) is sys.modules["extremal_poly." + name]
    assert set(extremal_poly.__all__) <= set(dir(extremal_poly))
    namespace = {}
    exec("from extremal_poly import *", namespace)
    assert set(extremal_poly.__all__) <= set(namespace)


def test_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="no_such_name"):
        extremal_poly.no_such_name


def test_every_lazy_name_is_exported_and_resolves():
    # a name dropped from __all__ but left in the first-use table would
    # still import on access, and none of the tests above would notice
    table = extremal_poly._ON_FIRST_USE
    for name, owner in table.items():
        assert name in CHECK_ROUTES or name in extremal_poly.__all__, name
        assert owner in CHECK_ROUTES, name
        value = getattr(extremal_poly, name)
        expected = sys.modules["extremal_poly." + owner]
        assert value is (expected if name == owner else getattr(expected, name)), name
