"""Rules on the package source itself."""

import ast
import os
import subprocess
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


def absolute_imports(path):
    """The modules path imports by absolute name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    return modules + [node.module for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) and node.level == 0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_are_stdlib(path):
    # linres needs only the standard library at run time
    modules = absolute_imports(path)
    outside = sorted({m for m in modules
                      if m.split(".")[0] != "linres"
                      and m.split(".")[0] not in sys.stdlib_module_names})
    assert not outside, f"{path.name}: imports outside the standard library: {outside}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    # the value types are plain classes on linres.value.Value, so importing
    # linres runs no code generation
    assert "dataclasses" not in {m.split(".")[0] for m in absolute_imports(path)}


def test_cli_imports_without_dataclasses():
    # the same, counted in a fresh interpreter: nothing linres.cli imports
    # loads the dataclasses module, nor traceback, which only the
    # internal-error branch of cli.main imports
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, linres.cli; print(linres.cli.__file__); "
            "print('dataclasses' in sys.modules, 'traceback' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    where, loaded = proc.stdout.splitlines()
    assert Path(where).resolve().parent.parent == Path(src)
    assert loaded == "False False"


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


ROOT = Path(__file__).resolve().parent.parent
# where a public function of linres may be called from: the package
# itself (its re-exports aside), the demos, the benchmark and the
# acceptance gates; a function only tests call belongs under tests/
CALLERS = [*(p for p in SOURCES if p.name != "__init__.py"),
           *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]


def nodes_outside(tree, skip=None):
    """Every node of tree outside the subtree skip."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def read_attributes(tree, skip=None):
    """Every attribute read in tree, outside the subtree skip."""
    return {node.attr for node in nodes_outside(tree, skip) if isinstance(node, ast.Attribute)}


def referenced_names(tree, skip=None):
    """Every name and attribute read in tree, outside the subtree skip."""
    return read_attributes(tree, skip) | {
        node.id for node in nodes_outside(tree, skip) if isinstance(node, ast.Name)}


def test_every_public_function_has_a_caller():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in CALLERS}
    names = {path: referenced_names(tree) for path, tree in trees.items()}
    uncalled = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        elsewhere = set().union(*(v for p, v in names.items() if p != path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("_"):
                continue
            # the function's own body is no caller of it
            within = referenced_names(tree, skip=node) if path in names else set()
            if node.name not in elsewhere | within:
                uncalled.append(f"{path.stem}.{node.name}")
    assert not uncalled, f"public functions without a caller: {uncalled}"


def test_every_public_method_has_a_caller():
    # the same rule for the methods and properties of linres's classes,
    # matched by attribute name; dunders are the language's to call
    attrs = {path: read_attributes(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
             for path in CALLERS}
    uncalled = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        elsewhere = set().union(*(v for p, v in attrs.items() if p != path))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        or node.name.startswith("_")):
                    continue
                within = read_attributes(tree, skip=node) if path in attrs else set()
                if node.name not in elsewhere | within:
                    uncalled.append(f"{path.stem}.{cls.name}.{node.name}")
    assert not uncalled, f"public methods without a caller: {uncalled}"
