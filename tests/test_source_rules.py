"""Rules on the package source itself."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "linres").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # internal checks raise Falsification, so they still run under python -O
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_are_stdlib(path):
    # linres needs only the standard library at run time
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0]
    outside = sorted({m for m in modules
                      if m.split(".")[0] != "linres"
                      and m.split(".")[0] not in sys.stdlib_module_names})
    assert not outside, f"{path.name}: imports outside the standard library: {outside}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_work_bounds_are_not_parameters(path):
    # work bounds are module constants (betti.MULTIDEGREE_CAP,
    # rees.GROEBNER_BUDGET, ...) that tests monkeypatch, not knobs
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        f"{node.name}({arg.arg}) at line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
                    *filter(None, (node.args.vararg, node.args.kwarg)))
        if arg.arg in ("budget", "budget_limit") or arg.arg.endswith(("_budget", "_cap"))
    ]
    assert not found, f"{path.name}: work bounds as parameters: {found}"
