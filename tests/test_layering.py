"""Module layering: every import in the package sits at module level, every
function parameter is read, and every definition has a caller.

An import inside a function body hides a module cycle (it only works
because it runs after both modules finished loading), so none is allowed.
A parameter the body never reads is a dead input that callers still have
to supply, so none is allowed either.  A function, class, method or
property that neither the package nor the benchmark names is code only
tests keep alive; the few the README documents as API are listed here.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rfslam"
MODULES = sorted(SRC.glob("*.py"))
BENCH_SCRIPTS = sorted((ROOT / "perfbench").glob("*.py"))

#: Definitions the README documents as library API that no package or
#: benchmark code calls: the acceptance gate's finite-difference oracle and
#: the CSV projection that mirrors ``deterministic_report_view``.
API_ONLY = ["cli.deterministic_metrics_view", "geometry.measure_jacobian"]


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


def defined_names(module: str, tree: ast.AST):
    """(qualified name, name) of every top-level function and class, and of
    every method or property of a top-level class; dunder methods, which
    Python itself calls, are exempt."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for inner in node.body:
                if (isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (inner.name.startswith("__")
                                 and inner.name.endswith("__"))):
                    yield f"{module}.{node.name}.{inner.name}", inner.name


def referenced_names(tree: ast.AST) -> set:
    """Every name the code mentions: identifiers, attribute names, imported
    names, and string constants shaped like an identifier (``getattr``
    and attribute substitution by name)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)
    return names


def unreferenced(modules: dict, referencing) -> list:
    """Qualified names defined in ``modules`` (name -> tree) that no tree in
    ``referencing`` mentions."""
    used = set().union(*(referenced_names(tree) for tree in referencing))
    return [qualified for module, tree in modules.items()
            for qualified, name in defined_names(module, tree)
            if name not in used]


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


def test_every_definition_is_referenced():
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p))
               for p in MODULES}
    bench = [ast.parse(p.read_text(), filename=str(p)) for p in BENCH_SCRIPTS]
    assert BENCH_SCRIPTS
    found = unreferenced(modules, [*modules.values(), *bench])
    assert [name for name in found if name not in API_ONLY] == []
    # An allowlisted name that gained a caller leaves the list.
    assert [name for name in API_ONLY if name not in found] == []


def test_detector_sees_unreferenced_definitions():
    """A function and a method that nothing names are flagged.

    The guard matches names, not objects: a definition counts as referenced
    when any code names anything by its name.  It cannot see, for example,
    ``AssociationVector.misdetected`` while ``ChildParts.misdetected`` is
    called, or ``ChannelModel.dim`` behind ``GaussianComponent.dim``; such
    leftovers have to be found and deleted by hand.
    """
    tree = ast.parse(
        "def helper():\n    return 1\n\n"
        "def orphan():\n    return helper()\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.size = helper()\n\n"
        "    @property\n    def area(self):\n        return self.size\n\n"
        "    def spare(self):\n        return self.area\n\n"
        "box = Box()\n")
    assert unreferenced({"toy": tree}, [tree]) == ["toy.orphan",
                                                    "toy.Box.spare"]
