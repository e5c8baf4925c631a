"""Every name a package or test module imports is read in that module,
every module-level name of the package is read by some package or test
module, every field of a package dataclass is read as an attribute by
some package or test module, every parameter of a package function is
read in its function, the package's ``__all__`` lists exactly what its
``__init__`` imports, and every function the benchmark hooks by name
exists."""

import ast
import importlib
import importlib.util
import inspect
import types
from pathlib import Path

import pytest

import digitlab

PACKAGE = Path(digitlab.__file__).parent
MODULES = (sorted(PACKAGE.glob("*.py"))
           + sorted(Path(__file__).parent.glob("*.py")))
# (module, function, parameter) left unread on purpose: every suite in
# verify.SUITES takes the seed, and the constants suite draws nothing.
UNREAD_PARAMETERS = {("verify.py", "_suite_constants", "seed")}
# (module, name) defined and left unread on purpose: the import system
# reads __all__, and __version__ is for the package's users.
UNREAD_NAMES = {("__init__.py", "__all__"), ("__init__.py", "__version__")}


def dead_imports(tree: ast.Module, exported=()) -> list:
    """Names bound by import statements that the module never loads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read and name not in exported)


def exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    exported = exported_names(tree) if path.name == "__init__.py" else ()
    assert dead_imports(tree, exported) == []


def test_scan_sees_a_dead_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import math\nfrom os import path, sep\n"
                     "print(path.join(sep))\n")
    assert dead_imports(tree) == [(2, "math")]


def api_gaps(tree: ast.Module, module) -> tuple:
    """The names a package's ``__init__`` imports from its modules but
    leaves out of ``__all__``, and the names of ``__all__`` that the
    imported ``module`` lacks, each sorted."""
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom)
                and node.module != "__future__" for alias in node.names}
    exported = exported_names(tree)
    return (sorted(imported - exported),
            sorted(n for n in exported if not hasattr(module, n)))


def test_api_lists_what_it_imports():
    init = PACKAGE / "__init__.py"
    tree = ast.parse(init.read_text(), filename=str(init))
    assert api_gaps(tree, digitlab) == ([], [])


def test_scan_sees_an_api_gap():
    source = ("from __future__ import annotations\n"
              "from os import path, sep\n"
              "__all__ = ['path', 'RationalFrequency']\n")
    module = types.ModuleType("synthetic")
    exec(compile(source, "synthetic", "exec"), module.__dict__)
    assert api_gaps(ast.parse(source), module) == (
        ["sep"], ["RationalFrequency"])


def defined_names(tree: ast.Module) -> dict:
    """The module-level functions, classes and constants of a module, by
    name, with the line that binds each."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update((n.id, node.lineno) for t in targets
                         for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def read_names(tree: ast.Module) -> set:
    """The names a module loads, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def dead_names(tree: ast.Module, readers) -> list:
    """(line, name) for each module-level name of ``tree`` that no module
    in ``readers`` loads."""
    read = set().union(*map(read_names, readers))
    return sorted((line, name) for name, line in defined_names(tree).items()
                  if name not in read)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_dead_names(path):
    readers = [ast.parse(p.read_text(), filename=str(p)) for p in MODULES]
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [(line, name) for line, name in dead_names(tree, readers)
            if (path.name, name) not in UNREAD_NAMES] == []


def test_scan_sees_a_dead_name():
    tree = ast.parse("import math\nLIMIT: int = 3\nA, (B, C) = 1, (2, 3)\n"
                     "def used():\n    return LIMIT + math.pi\n"
                     "def unused():\n    pass\n"
                     "class Box:\n    pass\n")
    reader = ast.parse("import m\nm.used()\nprint(A, m.C)\n")
    assert dead_names(tree, [tree, reader]) == [
        (3, "B"), (6, "unused"), (8, "Box")]


def dataclass_fields(tree: ast.Module) -> list:
    """(line, class, field) for each annotated field of a module-level
    class decorated with ``dataclass`` or ``dataclass(...)``."""
    fields = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id",
                        None) == "dataclass"
                for d in node.decorator_list):
            fields += [(stmt.lineno, node.name, stmt.target.id)
                       for stmt in node.body
                       if isinstance(stmt, ast.AnnAssign)]
    return fields


def dead_fields(tree: ast.Module, readers) -> list:
    """(line, class, field) for each dataclass field of ``tree`` that no
    module in ``readers`` loads as an attribute (``obj.field``)."""
    read = {n.attr for reader in readers for n in ast.walk(reader)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [f for f in dataclass_fields(tree) if f[2] not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_dead_fields(path):
    readers = [ast.parse(p.read_text(), filename=str(p)) for p in MODULES]
    tree = ast.parse(path.read_text(), filename=str(path))
    assert dead_fields(tree, readers) == []


def test_scan_sees_a_dead_field():
    tree = ast.parse("from dataclasses import dataclass\n"
                     "@dataclass(frozen=True)\n"
                     "class Approx:\n    ell: int\n    a: int\n"
                     "    limit = 3\n"
                     "@dataclass\n"
                     "class Ledger:\n    sums: list\n"
                     "class Plain:\n    unread: int\n")
    reader = ast.parse("r = Approx(ell=1, a=2)\nprint(r.ell, r.sums)\n"
                       "r.a = 5\n")
    assert dead_fields(tree, [tree, reader]) == [(5, "Approx", "a")]


def dead_parameters(tree: ast.Module) -> list:
    """(line, function, parameter) for each parameter of a function or
    lambda that its body (nested functions included) never loads."""
    dead = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        dead += [(node.lineno, name, p.arg) for p in params
                 if p.arg not in read]
    return sorted(dead)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_dead_parameters(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [(line, fn, arg) for line, fn, arg in dead_parameters(tree)
            if (path.name, fn, arg) not in UNREAD_PARAMETERS] == []


def test_scan_sees_a_dead_parameter():
    tree = ast.parse("def f(a, b, *rest, c=1, **kw):\n"
                     "    b = a + c\n"
                     "    def g(x):\n"
                     "        return kw\n"
                     "    return g\n"
                     "h = lambda y, z: y\n")
    assert dead_parameters(tree) == [
        (1, "f", "b"), (1, "f", "rest"), (3, "g", "x"), (6, "<lambda>", "z")]


INPROC = Path(__file__).parents[1] / "perfbench" / "inproc.py"


def unresolved_hooks(inproc) -> list:
    """The dotted names in the hook tables of ``perfbench/inproc.py`` that
    name no attribute of an importable module."""
    names = [d for targets in inproc.SPANS.values() for d in targets]
    names += [*inproc.OBSERVERS, *inproc.CALL_COUNTERS.values(),
              *inproc.YIELD_COUNTERS.values()]
    missing = []
    for dotted in names:
        modname, _, attr = dotted.rpartition(".")
        try:
            getattr(importlib.import_module(modname), attr)
        except (ImportError, AttributeError):
            missing.append(dotted)
    return missing


def load_inproc():
    spec = importlib.util.spec_from_file_location("perfbench_inproc", INPROC)
    inproc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inproc)
    return inproc


def test_benchmark_hooks_resolve(monkeypatch):
    # the benchmark drops a hook whose target is gone and reports its
    # metrics as missing, so a rename in the package must fail here first
    inproc = load_inproc()
    assert unresolved_hooks(inproc) == []
    monkeypatch.delattr(digitlab.fourier, "grid_values")
    assert unresolved_hooks(inproc) == ["digitlab.fourier.grid_values"] * 2


def test_yield_counters_wrap_generators():
    # a yield counter hands callers a generator and counts its items; a
    # target that returned a list would change the count's meaning
    for dotted in load_inproc().YIELD_COUNTERS.values():
        modname, _, attr = dotted.rpartition(".")
        fn = getattr(importlib.import_module(modname), attr)
        assert inspect.isgeneratorfunction(fn), dotted


def unbound_observer_args(inproc) -> list:
    """(dotted hook, name) for each ``args["name"]`` an observer in
    ``perfbench/inproc.py`` reads that its hooked function's signature
    lacks.  The benchmark binds the hook's arguments by name, and a failed
    observer only leaves a note, so a renamed parameter would lose a
    count without failing the run."""
    tree = ast.parse(INPROC.read_text(), filename=str(INPROC))
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    missing = []
    for dotted, (observer, _) in inproc.OBSERVERS.items():
        if observer is None:
            continue
        node = defs[observer.__name__]
        args_name = node.args.args[1].arg
        read = {n.slice.value for n in ast.walk(node)
                if isinstance(n, ast.Subscript)
                and isinstance(n.value, ast.Name) and n.value.id == args_name
                and isinstance(n.slice, ast.Constant)}
        modname, _, attr = dotted.rpartition(".")
        params = inspect.signature(
            getattr(importlib.import_module(modname), attr)).parameters
        missing += [(dotted, name) for name in sorted(read)
                    if name not in params]
    return missing


def test_observer_arguments_bind(monkeypatch):
    inproc = load_inproc()
    assert unbound_observer_args(inproc) == []
    monkeypatch.setattr(digitlab.arcs, "direct_count",
                        lambda digits, k, weight: 0.0)
    assert unbound_observer_args(inproc) == [
        ("digitlab.arcs.direct_count", "ds")]
