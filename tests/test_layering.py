"""Module layering: every import in the package sits at module level, and
every function parameter is read.

An import inside a function body hides a module cycle (it only works
because it runs after both modules finished loading), so none is allowed.
A parameter the body never reads is a dead input that callers still have
to supply, so none is allowed either.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rfslam"
MODULES = sorted(SRC.glob("*.py"))


def function_level_imports(tree: ast.AST):
    """(function name, line) of every import nested in a function body."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.append((node.name, inner.lineno))
    return found


def unread_parameters(tree: ast.AST):
    """(function name, parameter) of every parameter its body never reads.

    ``self`` and ``cls`` are exempt; a read in a nested function counts.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args,
                                      args.vararg, *args.kwonlyargs,
                                      args.kwarg) if a is not None]
            read = {inner.id for stmt in node.body for inner in ast.walk(stmt)
                    if isinstance(inner, ast.Name)
                    and isinstance(inner.ctx, ast.Load)}
            found += [(node.name, name) for name in params
                      if name not in read and name not in ("self", "cls")]
    return found


def test_modules_found():
    assert {"association.py", "update.py", "motion.py"} <= {
        p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert function_level_imports(tree) == []


def test_detector_sees_nested_imports():
    tree = ast.parse("def f():\n    def g():\n        from . import x\n")
    assert ("g", 3) in function_level_imports(tree)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unread_parameters(tree) == []


def test_detector_sees_unread_parameters():
    tree = ast.parse("class C:\n    def f(self, a, b, *rest, c, **kw):\n"
                     "        def g():\n            return a\n"
                     "        return g, kw\n")
    assert unread_parameters(tree) == [("f", "b"), ("f", "rest"), ("f", "c")]
