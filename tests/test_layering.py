"""Module layering: every import in the package sits at module level, every
function parameter is read, every parameter default is passed by some call,
every position of a returned tuple is read, every definition has a
caller, every dataclass field has a reader, one module factors matrices,
one function wraps angles, no module calls builtin ``sum``, every
docstring cross-reference resolves, README's Layout table names every
module, and the code stays within its line budgets.

An import inside a function body hides a module cycle (it only works
because it runs after both modules finished loading), so none is allowed.
A parameter the body never reads is a dead input that callers still have
to supply, so none is allowed either; nor is a parameter default that no
call overrides, which is a setting with no user, nor a returned tuple
position that every caller discards, which is an output with no reader.
A function, class, method or property that neither the package nor the
benchmark names is code only tests keep alive; the few the README
documents as API are listed here.  ``association.chol_solve`` is the one
Cholesky entry: a second path, through numpy's or scipy's wrappers or
LAPACK itself, would round differently or skip its finiteness test, so
none may come back.  ``geometry.wrap_angle`` is the one modulo by 2 pi,
so every angle wraps by one rule.  A dataclass field that nothing reads
is a copy kept for no one.  Builtin ``sum`` of floats is compensated from
Python 3.12 on, so a float sum takes ``density.sum_in_order``, which adds
left to right on every interpreter.  The line budgets, of code lines
and of all lines, are ratchets: a change that adds lines raises its
budget in its own diff and says why in CHANGES.md.
The field counts of the two settings objects, ``RunConfig`` and
``FilterConfig``, are pinned the same way: a new setting raises its
constant in its own diff and names its user in CHANGES.md.
"""

import ast
import dataclasses
import io
import math
import re
import tokenize
from pathlib import Path

import pytest

from rfslam.cli import RunConfig
from rfslam.update import FilterConfig

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rfslam"
MODULES = sorted(SRC.glob("*.py"))
BENCH_SCRIPTS = sorted((ROOT / "perfbench").glob("*.py"))

#: Definitions the README documents as library API that no package or
#: benchmark code calls: the acceptance gate's finite-difference oracle and
#: the CSV projection that mirrors ``deterministic_report_view``.
API_ONLY = ["cli.deterministic_metrics_view", "geometry.measure_jacobian"]

#: Code lines of ``src/rfslam``, counted by :func:`code_lines`.
CODE_LINE_BUDGET = 2202

#: All lines of ``src/rfslam``, as ``wc -l`` counts them: code, docstrings,
#: comments and blank lines.
TOTAL_LINE_BUDGET = 3540

#: Fields of the two settings objects.
SETTINGS_FIELDS = {RunConfig: 10, FilterConfig: 11}

#: Tokens that hold no code.
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines that hold a token of code: blank lines, comments and the
    docstrings of modules, classes and functions do not count."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


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


def method_classes(tree: ast.AST) -> dict:
    """id of every definition in a class body -> the class name."""
    return {id(inner): node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) for inner in node.body}


def call_name(call: ast.Call):
    """The name a call matches by: the function's or the method's."""
    func = call.func
    return (func.id if isinstance(func, ast.Name) else
            func.attr if isinstance(func, ast.Attribute) else None)


def default_parameters(tree: ast.AST):
    """(qualified name, call name, parameter, positional index or None) of
    every parameter with a default.  A method's index leaves out
    ``self``/``cls``, and ``__init__`` is called by its class name."""
    methods = method_classes(tree)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = [a.arg for a in (*args.posonlyargs, *args.args)]
        qualified = name = node.name
        if id(node) in methods:
            qualified = f"{methods[id(node)]}.{name}"
            if positional[:1] in (["self"], ["cls"]):
                positional = positional[1:]
            if name == "__init__":
                name = methods[id(node)]
        for index in range(len(positional) - len(args.defaults),
                           len(positional)):
            yield qualified, name, positional[index], index
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield qualified, name, arg.arg, None


def passed_arguments(trees) -> dict:
    """Call name -> (keywords passed, most positional arguments passed) over
    every call in ``trees``; ``*args`` or ``**kwargs`` pass everything."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            keywords, most = calls.get(name, (set(), 0))
            keywords |= {kw.arg or "**" for kw in node.keywords}
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls[name] = (keywords,
                           max(most, math.inf if starred else len(node.args)))
    return calls


def unpassed_defaults(modules: dict, calling) -> list:
    """``module.function.parameter`` of every parameter default in
    ``modules`` (name -> tree) that no call in ``calling`` passes, by
    keyword or by position; calls match by name."""
    calls = passed_arguments(calling)
    found = []
    for module, tree in modules.items():
        for qualified, name, param, index in default_parameters(tree):
            keywords, most = calls.get(name, (set(), 0))
            if not (param in keywords or "**" in keywords
                    or (index is not None and most > index)):
                found.append(f"{module}.{qualified}.{param}")
    return found


def own_returns(func: ast.AST):
    """The ``return`` statements of ``func`` outside its nested scopes."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Return):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def tuple_returns(tree: ast.AST):
    """(qualified name, call name, length) of every function whose every
    own ``return`` gives a tuple of one fixed length."""
    methods = method_classes(tree)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        lengths = {len(ret.value.elts) if isinstance(ret.value, ast.Tuple)
                   and not any(isinstance(e, ast.Starred)
                               for e in ret.value.elts) else None
                   for ret in own_returns(node)}
        if len(lengths) == 1 and None not in lengths:
            qualified = (f"{methods[id(node)]}.{node.name}"
                         if id(node) in methods else node.name)
            yield qualified, node.name, lengths.pop()


def unpackings(trees) -> dict:
    """Call name -> one entry per call in ``trees``: the targets a plain
    tuple assignment unpacks its result into, or None for any other use."""
    uses = {}
    for tree in trees:
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            parent = parents.get(node)
            targets = None
            if (isinstance(parent, ast.Assign) and len(parent.targets) == 1
                    and isinstance(parent.targets[0], (ast.Tuple, ast.List))):
                targets = parent.targets[0].elts
                if any(isinstance(e, ast.Starred) for e in targets):
                    targets = None
            uses.setdefault(name, []).append(targets)
    return uses


def unread_return_positions(modules: dict, calling) -> list:
    """``module.function[position]`` of every position of a fixed-length
    tuple result that every call in ``calling`` unpacks into ``_``; calls
    match by name, and any other use of a result reads every position."""
    uses = unpackings(calling)
    found = []
    for module, tree in modules.items():
        for qualified, name, length in tuple_returns(tree):
            calls = uses.get(name, [])
            unread = set(range(length)) if calls else set()
            for targets in calls:
                if targets is None or len(targets) != length:
                    targets = []
                unread &= {k for k, e in enumerate(targets)
                           if isinstance(e, ast.Name) and e.id == "_"}
            found += [f"{module}.{qualified}[{k}]" for k in sorted(unread)]
    return found


#: Calls that factor outside ``association.chol_solve``.
CHOLESKY_CALLS = {"cholesky", "cho_factor", "cho_solve"}


def cholesky_paths(tree: ast.AST) -> list:
    """(what, line) of every LAPACK import or reference and every call of a
    Cholesky wrapper in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None)
            names = [f"{module}.{a.name}" if module else a.name
                     for a in node.names]
            found += [(name, node.lineno) for name in names
                      if f"{name}.".startswith("scipy.linalg.lapack.")]
        elif isinstance(node, ast.Attribute) and node.attr == "lapack":
            found.append(("lapack", node.lineno))
        elif isinstance(node, ast.Call) and call_name(node) in CHOLESKY_CALLS:
            found.append((call_name(node), node.lineno))
    return found


def dataclass_fields(module: str, tree: ast.AST):
    """(qualified name, name) of every annotated field of every top-level
    class decorated with ``dataclass``."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [getattr(d, "func", d) for d in node.decorator_list]
        if "dataclass" not in {getattr(d, "id", getattr(d, "attr", None))
                               for d in decorators}:
            continue
        for stmt in node.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                yield f"{module}.{node.name}.{stmt.target.id}", stmt.target.id


def read_attributes(tree: ast.AST) -> set:
    """Every attribute name the code loads, and every string constant
    shaped like an identifier (``getattr`` by name)."""
    return {node.attr if isinstance(node, ast.Attribute) else node.value
            for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load))
            or (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.isidentifier())}


def unread_fields(modules: dict, reading) -> list:
    """Qualified dataclass fields of ``modules`` (name -> tree) whose name
    no tree in ``reading`` loads as an attribute; fields match by name."""
    read = set().union(*(read_attributes(tree) for tree in reading))
    return [qualified for module, tree in modules.items()
            for qualified, name in dataclass_fields(module, tree)
            if name not in read]


def builtin_sums(tree: ast.AST) -> list:
    """Lines of every call of the bare name ``sum``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sum"]


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


def test_every_parameter_default_is_passed():
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p))
               for p in MODULES}
    bench = [ast.parse(p.read_text(), filename=str(p)) for p in BENCH_SCRIPTS]
    assert unpassed_defaults(modules, [*modules.values(), *bench]) == []


def test_detector_sees_unpassed_defaults():
    """Defaults no call overrides are flagged; keyword, positional,
    starred and method calls (without ``self``) each count as passing.

    Calls match by name, so a call to any function of the same name counts:
    the guard can miss a dead default, never flag a live one.
    """
    tree = ast.parse(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n\n"
        "def g(x=0, y=1):\n    return x\n\n"
        "class Box:\n"
        "    def __init__(self, size=1, tag=None):\n        self.size = size\n\n"
        "    def grow(self, by=1, cap=9):\n        return by\n\n"
        "f(0, 5, d=6)\ng(*[1])\nBox(2).grow(3)\n")
    assert unpassed_defaults({"toy": tree}, [tree]) == [
        "toy.f.c", "toy.f.e", "toy.Box.__init__.tag", "toy.Box.grow.cap"]


def test_every_returned_position_is_read():
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p))
               for p in MODULES}
    bench = [ast.parse(p.read_text(), filename=str(p)) for p in BENCH_SCRIPTS]
    assert unread_return_positions(modules, [*modules.values(), *bench]) == []


def test_detector_sees_unread_return_positions():
    """A tuple position every call unpacks into ``_`` is flagged.  A
    function that also returns another shape (here ``None``) or whose tuple
    is a nested function's is not; a call used any other way, or one that
    unpacks another length (a same-named method), reads every position."""
    tree = ast.parse(
        "def pair(x):\n    if x:\n        return 1, 2\n    return 3, 4\n\n"
        "def triple():\n    return 1, 2, 3\n\n"
        "def maybe(x):\n    if x:\n        return 1, 2\n    return None\n\n"
        "def outer():\n    def inner():\n        return 1, 2\n"
        "    return inner\n\n"
        "class Box:\n    def size(self):\n        return 1, 2\n\n"
        "    def both(self):\n        return 1, 2\n\n"
        "class Crate:\n    def both(self):\n        return 1, 2, 3\n\n"
        "_, a = pair(0)\n_, b = pair(1)\n"
        "c, _, _ = triple()\nprint(triple())\n"
        "_, d = maybe(1)\n_, e = outer()\n_, h = Box().size()\n"
        "f, _ = Box().both()\n_, g, _ = Crate().both()\n")
    assert unread_return_positions({"toy": tree}, [tree]) == [
        "toy.pair[0]", "toy.Box.size[0]"]


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


def test_every_dataclass_field_is_read():
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p))
               for p in MODULES}
    bench = [ast.parse(p.read_text(), filename=str(p)) for p in BENCH_SCRIPTS]
    assert unread_fields(modules, [*modules.values(), *bench]) == []


def test_detector_sees_unread_fields():
    """A field read only as a bare name, only written, or only passed to
    the constructor is flagged; an attribute load or a ``getattr`` string
    reads it.  A class without the decorator has no fields."""
    tree = ast.parse(
        "from dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\nclass Pred:\n"
        "    pd: float\n    z: object\n    hph: object\n    tag: str\n\n"
        "@dataclasses.dataclass\nclass Cell:\n    beta: float = 0.0\n    mass: float = 0.0\n\n"
        "class Plain:\n    size: int\n\n"
        "pred = Pred(1.0, None, hph=None, tag='a')\n"
        "hph = pred.pd\nprint(hph)\ncell = Cell()\ncell.beta = 1.0\n"
        "mass = getattr(cell, 'mass')\nprint(pred.z)\n")
    assert unread_fields({"toy": tree}, [tree]) == [
        "toy.Pred.hph", "toy.Pred.tag", "toy.Cell.beta"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_builtin_sum(path):
    assert builtin_sums(ast.parse(path.read_text(), filename=str(path))) == []


def test_detector_sees_builtin_sums():
    tree = ast.parse("a = sum(x)\nb = np.sum(x)\nc = x.sum()\n"
                     "def f(v):\n    return sum(w * v for w in v)\n")
    assert builtin_sums(tree) == [1, 5]


def test_code_lines_within_budget():
    total = sum(code_lines(path.read_text()) for path in MODULES)
    assert total <= CODE_LINE_BUDGET


def test_total_lines_within_budget():
    total = sum(path.read_text().count("\n") for path in MODULES)
    assert total <= TOTAL_LINE_BUDGET


def layout_modules(readme: str) -> list:
    """The modules the rows of README's Layout table name, in order."""
    table = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `rfslam\.(\w+)` \|", table, re.MULTILINE)


def test_layout_table_names_every_module():
    named = layout_modules((ROOT / "README.md").read_text())
    assert sorted(named) == sorted(p.stem for p in MODULES
                                   if p.stem != "__init__")


#: A cross-reference in a docstring or a ``#:`` comment: its role and its
#: target.
CROSS_REFERENCE = re.compile(r":(func|class|mod|data):`~?\.?([\w.]+)`")


def definitions(tree: ast.AST) -> set:
    """Names a module or class body defines: functions, classes and
    assigned names, and each class's own as ``Class.name``."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names |= {f"{node.name}.{name}" for name in definitions(node)}
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)):
            names.add(node.target.id)
    return names


def broken_references(sources: dict) -> list:
    """``module: role:`target``` of every cross-reference in ``sources``
    (module name -> source) that names no module of the package or no
    definition.  A target resolves, ``rfslam.`` prefix dropped, as a
    module, as a definition of its own module or a name that module
    imports from a sibling that defines it, or as ``module.name``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = {module: definitions(tree) for module, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        known = set(defined[module])
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                known |= {a.asname or a.name for a in node.names
                          if a.name in defined.get(node.module, ())}
        for role, target in CROSS_REFERENCE.findall(sources[module]):
            name = target.removeprefix("rfslam.")
            owner, _, rest = name.partition(".")
            if not (name in trees if role == "mod" else
                    name in known or rest in defined.get(owner, ())):
                found.append(f"{module}: {role}:`{target}`")
    return found


def test_every_cross_reference_resolves():
    assert broken_references({p.stem: p.read_text() for p in MODULES}) == []


def test_detector_sees_broken_references():
    sources = {
        "toy": ('"""Uses :func:`helper`, :class:`Box`, :func:`Box.size`,\n'
                ':data:`LIMIT`, :func:`shared`, :mod:`rfslam.other`,\n'
                ':func:`other.shared`, :func:`~rfslam.other.shared`;\n'
                'not :func:`gone`, :func:`Box.gone`, :mod:`nowhere`,\n'
                ':func:`other.gone` or :func:`missing`."""\n'
                "from .other import missing, shared\n"
                "LIMIT = 3\n\ndef helper():\n    return LIMIT\n\n"
                "class Box:\n    def size(self):\n        return 1\n"),
        "other": "def shared():\n    return 1\n",
    }
    assert broken_references(sources) == [
        "toy: func:`gone`", "toy: func:`Box.gone`", "toy: mod:`nowhere`",
        "toy: func:`other.gone`", "toy: func:`missing`"]


@pytest.mark.parametrize("settings", SETTINGS_FIELDS,
                         ids=lambda cls: cls.__name__)
def test_settings_field_count_pinned(settings):
    assert len(dataclasses.fields(settings)) == SETTINGS_FIELDS[settings]


def test_code_line_count_leaves_out_prose():
    source = ('"""Module\ndocstring."""\n\n# A comment.\n'
              'def f(a):\n    """One line."""\n'
              '    text = """two\nlines"""  # counted\n'
              '    return (a,\n\n            text)\n')
    # def, both lines of the string that is no docstring, and the two
    # lines of the return.
    assert code_lines(source) == 5


#: numpy's transcendental functions, which do not round as ``math`` does.
NUMPY_TRANSCENDENTALS = {"arctan2", "arctan", "hypot", "sin", "cos", "tan",
                         "arcsin", "arccos", "exp", "log"}


def numpy_transcendentals(tree: ast.AST) -> list:
    """(name, line) of every ``np.<name>`` or ``numpy.<name>`` reference to
    a numpy transcendental function."""
    return [(node.attr, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in NUMPY_TRANSCENDENTALS
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")]


def test_geometry_takes_transcendentals_from_math():
    # The bit rule of rfslam.geometry: the stacked kernel's angles come from
    # math per row, never from numpy's stacked functions.
    path = SRC / "geometry.py"
    assert numpy_transcendentals(
        ast.parse(path.read_text(), filename=str(path))) == []


def test_detector_sees_numpy_transcendentals():
    tree = ast.parse("a = np.arctan2(y, x)\nb = math.atan2(y, x)\n"
                     "c = numpy.hypot(x, y)\nd = np.sqrt(x)\n"
                     "e = np.log(x) + np.exp(y)\nf = x.sin\n")
    assert numpy_transcendentals(tree) == [
        ("arctan2", 1), ("hypot", 3), ("log", 5), ("exp", 5)]


#: Calls that take a modulo: ``np.mod``, ``np.remainder``, ``math.fmod``.
MODULO_CALLS = {"mod", "remainder", "fmod"}


def is_two_pi(node: ast.AST) -> bool:
    """Whether ``node`` is the name ``TWO_PI`` (bare or an attribute) or a
    product of the constant 2 and a name ``pi``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        factors = {type(f).__name__: f for f in (node.left, node.right)}
        pi = factors.get("Attribute", factors.get("Name"))
        return (getattr(factors.get("Constant"), "value", None) == 2
                and getattr(pi, "attr", getattr(pi, "id", None)) == "pi")
    return getattr(node, "id", getattr(node, "attr", None)) == "TWO_PI"


def two_pi_modulos(tree: ast.AST, owner=None) -> list:
    """(innermost enclosing function or None, line) of every ``%``,
    ``%=`` and modulo call in ``tree`` whose divisor is 2 pi."""
    found = []
    for node in ast.iter_child_nodes(tree):
        divisor = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.Mod):
            divisor = getattr(node, "right", getattr(node, "value", None))
        elif (isinstance(node, ast.Call) and call_name(node) in MODULO_CALLS
              and len(node.args) == 2):
            divisor = node.args[1]
        if divisor is not None and is_two_pi(divisor):
            found.append((owner, node.lineno))
        found += two_pi_modulos(node, node.name if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)
    return found


def test_one_angle_wrap():
    # Angles wrap in one place: a second modulo by 2 pi is a second rule.
    found = {p.stem: two_pi_modulos(ast.parse(p.read_text(),
                                              filename=str(p)))
             for p in MODULES}
    assert [owner for owner, _ in found.pop("geometry")] == ["wrap_angle"]
    assert {module: sites for module, sites in found.items() if sites} == {}


def test_detector_sees_two_pi_modulos():
    tree = ast.parse(
        "a = x % TWO_PI\nb = np.mod(x, geometry.TWO_PI)\n"
        "def f(x):\n    return math.fmod(x, 2.0 * math.pi)\n"
        "def g(x):\n    def h():\n        x %= 2 * np.pi\n"
        "    return np.remainder(x, TWO_PI), x % 3, np.mod(x, PI)\n"
        "c = x % (np.pi * 2)\nd = f'{x % TWO_PI}'\ne = x % (3 * np.pi)\n")
    assert two_pi_modulos(tree) == [
        (None, 1), (None, 2), ("f", 4), ("h", 7), ("g", 8), (None, 9),
        (None, 10)]


def test_one_cholesky_path():
    paths = {p.stem: cholesky_paths(ast.parse(p.read_text(), filename=str(p)))
             for p in MODULES}
    # association imports LAPACK's factor and solve and calls neither
    # wrapper; no other module does either.
    assert [what for what, _ in paths.pop("association")] == [
        "scipy.linalg.lapack.dpotrf", "scipy.linalg.lapack.dpotrs"]
    assert {module: found for module, found in paths.items() if found} == {}


def test_detector_sees_cholesky_paths():
    tree = ast.parse(
        "import scipy.linalg.lapack\nfrom scipy.linalg import lapack, solve\n"
        "from scipy.linalg.lapack import dpotrf\nimport scipy.linalg\n"
        "L = np.linalg.cholesky(a)\nf = cho_factor(a)\n"
        "x = scipy.linalg.cho_solve(f, b)\ny = scipy.linalg.lapack.dpotrs\n"
        "z = np.linalg.solve(a, b)\n")
    assert cholesky_paths(tree) == [
        ("scipy.linalg.lapack", 1), ("scipy.linalg.lapack", 2),
        ("scipy.linalg.lapack.dpotrf", 3), ("cholesky", 5),
        ("cho_factor", 6), ("cho_solve", 7), ("lapack", 8)]
