"""Every name a package or test module imports is read in that module,
every module-level name of the package is read by some package or test
module, every field of a package dataclass is read as an attribute by
some package or test module, every parameter of a package function is
read in its function, the package's ``__all__`` lists exactly the names
its ``__init__`` loads lazily, each from its home module, ``import
digitlab`` loads no numpy, the CLI sets its BLAS thread default before
numpy loads, the package makes no BLAS call, only the kernel
``fourier.e`` and the oracle take a complex exponential, only the
transform engine's functions reference ``numpy.fft``, only the loop of
``arcs._classification`` over the neighbourhoods names the functions
that make class codes, only ``digits.check_cap`` builds a
``CapExceededError``, every call of
``arcs._weight_vector`` is the direct argument of an engine pass that
reduces the weight's spectrum as it makes it, no two module-level
functions of the package share a name, and every function the benchmark
hooks by name exists."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import digitlab

PACKAGE = Path(digitlab.__file__).parent
MODULES = (sorted(PACKAGE.glob("*.py"))
           + sorted(Path(__file__).parent.glob("*.py")))
# (module, function, parameter) left unread on purpose: every suite in
# verify.SUITES takes the seed, and the constants suite draws nothing;
# every sweep in expsums.SWEEPS takes the rng, and the prime sweep draws
# nothing.
UNREAD_PARAMETERS = {("verify.py", "_suite_constants", "seed"),
                     ("expsums.py", "_prime_sweep", "rng")}
# (module, name) defined and left unread on purpose: the import system
# reads __all__ and calls __getattr__ (PEP 562), and __version__ is for
# the package's users.
UNREAD_NAMES = {("__init__.py", "__all__"), ("__init__.py", "__getattr__"),
                ("__init__.py", "__version__")}


def dead_imports(tree: ast.Module) -> list:
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
                  if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_imports(path):
    # the package's __init__ re-exports by name, not by import, so it has
    # no exemption either
    tree = ast.parse(path.read_text(), filename=str(path))
    assert dead_imports(tree) == []


def test_scan_sees_a_dead_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import math\nfrom os import path, sep\n"
                     "print(path.join(sep))\n")
    assert dead_imports(tree) == [(2, "math")]


def api_gaps(package) -> tuple:
    """The names that are in only one of a lazy package's ``__all__`` and
    its table ``_HOMES`` of home modules, and the names in both that do
    not resolve to the object of that name in their home module, each
    sorted."""
    table, exported = set(package._HOMES), set(package.__all__)
    unresolved = []
    for name in sorted(table & exported):
        home = importlib.import_module(
            f"{package.__name__}.{package._HOMES[name]}")
        try:
            if getattr(package, name) is getattr(home, name):
                continue
        except AttributeError:
            pass
        unresolved.append(name)
    return sorted(table ^ exported), unresolved


def test_api_lists_what_it_imports():
    assert api_gaps(digitlab) == ([], [])


def test_scan_sees_an_api_gap(monkeypatch):
    # "sep" is unlisted, "extra" has no home, "ghost" is not in its home
    # and the package binds "shadow" itself
    source = ("import importlib\n"
              "_HOMES = {'path': 'low', 'sep': 'low', 'ghost': 'low',\n"
              "          'shadow': 'low'}\n"
              "__all__ = ['extra', 'ghost', 'path', 'shadow']\n"
              "shadow = None\n"
              "def __getattr__(name):\n"
              "    home = importlib.import_module('.' + _HOMES[name],\n"
              "                                   __name__)\n"
              "    return getattr(home, name)\n")
    package = types.ModuleType("synthetic")
    exec(compile(source, "synthetic", "exec"), package.__dict__)
    home = types.ModuleType("synthetic.low")
    home.path = home.sep = home.shadow = object()
    monkeypatch.setitem(sys.modules, "synthetic", package)
    monkeypatch.setitem(sys.modules, "synthetic.low", home)
    assert api_gaps(package) == (["extra", "sep"], ["ghost", "shadow"])


def child_output(code: str, **env) -> str:
    """Stdout of a fresh interpreter running ``code`` on the package's
    source, with ``OPENBLAS_NUM_THREADS`` only as given in ``env``."""
    base = {k: v for k, v in os.environ.items()
            if k != "OPENBLAS_NUM_THREADS"}
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True,
                          env={**base, "PYTHONPATH": str(PACKAGE.parent),
                               **env})
    return done.stdout.strip()


def test_package_import_leaves_numpy_out():
    assert child_output("import sys, digitlab\n"
                        "print('numpy' in sys.modules)") == "False"


# the thread count numpy's import sees: an audit hook reads the variable
# when numpy's import starts
NUMPY_SEES = ("import os, sys\n"
              "seen = []\n"
              "sys.addaudithook(lambda event, args: event == 'import'\n"
              "                 and args[0] == 'numpy' and seen.append(\n"
              "                     os.environ.get('OPENBLAS_NUM_THREADS')))\n"
              "import digitlab.cli\n"
              "print(*seen)")


def test_cli_sets_one_blas_thread_before_numpy():
    assert child_output(NUMPY_SEES) == "1"


def test_callers_blas_threads_win():
    assert child_output(NUMPY_SEES, OPENBLAS_NUM_THREADS="2") == "2"


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


# numpy routines that call BLAS; anything under ``linalg`` does too
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}


def blas_calls(tree: ast.Module) -> list:
    """(line, name) for each BLAS entry point a module uses: the ``@``
    operator, a call or attribute named in ``BLAS_NAMES``, and any
    ``linalg`` attribute or import."""
    found = []
    for node in ast.walk(tree):
        names = []
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            names = ["@"] if isinstance(node.op, ast.MatMult) else []
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            names = [node.func.id]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "",
                     *(alias.name for alias in node.names)]
        found += [(node.lineno, n) for n in names
                  if n == "@" or n in BLAS_NAMES or "linalg" in n.split(".")]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_blas_calls(path):
    # the CLI runs OpenBLAS with one thread, which costs nothing only
    # while the package makes no BLAS call: adding one must revisit that
    tree = ast.parse(path.read_text(), filename=str(path))
    assert blas_calls(tree) == []


def test_scan_sees_a_blas_call():
    tree = ast.parse("import numpy as np\n"
                     "from numpy.linalg import norm\n"
                     "from numpy import einsum, kron\n"
                     "a = np.ones((2, 2))\n"
                     "inner = a @ a\n"
                     "a @= np.kron(a, a)\n"
                     "b = np.dot(a, a) + a.dot(a) + np.linalg.det(a)\n"
                     "c = einsum('ij->', a) + inner + kron(a, a)\n")
    assert blas_calls(tree) == [
        (2, "numpy.linalg"), (3, "einsum"), (5, "@"), (6, "@"), (7, "dot"),
        (7, "dot"), (7, "linalg"), (8, "einsum")]


# (module, function) that may take a complex exponential: fourier.e is
# the one kernel, and eval_direct the oracle that checks it
EXP_HOMES = {("fourier.py", "e"), ("fourier.py", "eval_direct")}
# (module, function, name) that the scan reports and that makes no root:
# the lemma's left side 2 + 2 cos(2 pi t) is real
NOT_ROOTS = {("verify.py", "lemma_inequality", "math.cos")}
# the attributes of each module that make a root of unity: exp of a
# complex, cos and sin of its parts, or rect of its polar form
ROOT_ATTRS = {"numpy": {"exp", "cos", "sin"},
              "cmath": {"exp", "cos", "sin", "rect"},
              "math": {"cos", "sin"}}


def exp_references(tree: ast.Module) -> list:
    """(line, function, name) for each reference to an attribute in
    ``ROOT_ATTRS`` of numpy, cmath or math (as np, or the module's name,
    or an alias a module imports it under), and each ``from`` import of
    one; function is the innermost enclosing def, None at module level."""
    modules = {"np": "numpy", **{name: name for name in ROOT_ATTRS}} | {
        alias.asname or alias.name: alias.name for node in ast.walk(tree)
        if isinstance(node, ast.Import) for alias in node.names
        if alias.name in ROOT_ATTRS}
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute)
                    and isinstance(child.value, ast.Name)
                    and child.attr in ROOT_ATTRS.get(
                        modules.get(child.value.id), ())):
                found.append((child.lineno, func,
                              f"{child.value.id}.{child.attr}"))
            elif (isinstance(child, ast.ImportFrom)
                  and child.module in ROOT_ATTRS):
                found.extend((child.lineno, func,
                              f"{child.module}.{alias.name}")
                             for alias in child.names
                             if alias.name in ROOT_ATTRS[child.module])
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else func)

    visit(tree, None)
    return found


def test_one_root_rule():
    # every complex exponential comes from fourier.e, so no second rule
    # for a root (cos + i sin, say) can come back beside it
    found = {(path.name, func)
             for path in sorted(PACKAGE.glob("*.py"))
             for _, func, name in exp_references(ast.parse(path.read_text()))
             if (path.name, func, name) not in NOT_ROOTS}
    assert found == EXP_HOMES


def test_scan_sees_an_exp_reference():
    tree = ast.parse("import cmath\n"
                     "import numpy as xp\n"
                     "import math as mt\n"
                     "from numpy import exp\n"
                     "from cmath import rect, phase\n"
                     "def unit(r):\n"
                     "    return xp.exp(r) + cmath.exp(r)\n"
                     "def twiddle(m):\n"
                     "    def inner(t):\n"
                     "        return numpy.exp(t)\n"
                     "    return exp(m) + math.exp(m) + np.exp(m)\n"
                     "def polar(t):\n"
                     "    z = np.cos(t) + 1j * xp.sin(t) + cmath.rect(1, t)\n"
                     "    return z + mt.cos(t) + 1j * math.sin(t) + mt.tan(t)\n")
    assert exp_references(tree) == [
        (4, None, "numpy.exp"), (5, None, "cmath.rect"),
        (7, "unit", "xp.exp"), (7, "unit", "cmath.exp"),
        (10, "inner", "numpy.exp"), (11, "twiddle", "np.exp"),
        (13, "polar", "np.cos"), (13, "polar", "xp.sin"),
        (13, "polar", "cmath.rect"), (14, "polar", "mt.cos"),
        (14, "polar", "math.sin")]


# (module, function) that may reference numpy.fft: the transform engine's
# column pass, the indicator's high grid and the row transforms of a real
# weight
FFT_HOMES = {("fourier.py", "_four_step"), ("fourier.py", "_indicator"),
             ("fourier.py", "column_spectrum")}


def fft_references(tree: ast.Module) -> list:
    """(line, function, name) for each reference to numpy's ``fft``
    module: the attribute ``fft`` of numpy (as np, numpy or an alias a
    module imports it under), ``import numpy.fft``, ``from numpy import
    fft`` and ``from numpy.fft import ...``; function is the innermost
    enclosing def, None at module level."""
    modules = {"np", "numpy"} | {
        alias.asname or alias.name for node in ast.walk(tree)
        if isinstance(node, ast.Import) for alias in node.names
        if alias.name == "numpy"}
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr == "fft"
                    and isinstance(child.value, ast.Name)
                    and child.value.id in modules):
                found.append((child.lineno, func, f"{child.value.id}.fft"))
            elif (isinstance(child, ast.Import) and any(
                    alias.name.split(".")[:2] == ["numpy", "fft"]
                    for alias in child.names)) or (
                    isinstance(child, ast.ImportFrom) and (
                        (child.module or "").split(".")[:2] == ["numpy", "fft"]
                        or child.module == "numpy" and any(
                            alias.name == "fft" for alias in child.names))):
                found.append((child.lineno, func, "numpy.fft"))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else func)

    visit(tree, None)
    return found


def test_one_transform_engine():
    # every transform goes through the engine in fourier, so no second
    # FFT path (a length-Q rfft, say) can come back beside it
    found = {(path.name, func)
             for path in sorted(PACKAGE.glob("*.py"))
             for _, func, _ in fft_references(ast.parse(path.read_text()))}
    assert found == FFT_HOMES


def test_scan_sees_an_fft_reference():
    tree = ast.parse("import numpy as xp\n"
                     "import numpy.fft\n"
                     "from numpy import fft, exp\n"
                     "def spectrum(w):\n"
                     "    from numpy.fft import rfft\n"
                     "    return xp.fft.rfft(w) + rfft(w)\n"
                     "def grid(x):\n"
                     "    def inner(t):\n"
                     "        return np.fft.ifft(t) + scipy.fft.fft(t)\n"
                     "    return numpy.fft.fft(x) + exp(x)\n")
    assert fft_references(tree) == [
        (2, None, "numpy.fft"), (3, None, "numpy.fft"),
        (5, "spectrum", "numpy.fft"), (6, "spectrum", "xp.fft"),
        (9, "inner", "np.fft"), (10, "grid", "numpy.fft")]


# The functions that make a class code from a numerator, and the one loop
# of arcs._classification that may name them.
CLASSIFIERS = ("_batch_dirichlet", "_codes")
CLASSIFICATION_LOOP = ("_classification", "_neighbourhoods(Q, r, dmax)")


def classifier_references(tree: ast.Module) -> list:
    """(line, function, loop, name) for each reference to a name in
    ``CLASSIFIERS``, and (line, function, loop, None) for each loop:
    function is the innermost enclosing def (None at module level), loop
    the source of the innermost enclosing for loop's iterable ("while" or
    "comprehension" for the other loops, None outside one)."""
    found = []

    def visit(node, func, loop):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Name) and child.id in CLASSIFIERS
                    and isinstance(child.ctx, ast.Load)):
                found.append((child.lineno, func, loop, child.id))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name, None)
                continue
            inner = loop
            if isinstance(child, (ast.For, ast.AsyncFor)):
                inner = ast.unparse(child.iter)
            elif isinstance(child, ast.While):
                inner = "while"
            elif isinstance(child, (ast.ListComp, ast.SetComp, ast.DictComp,
                                    ast.GeneratorExp)):
                inner = "comprehension"
            if inner is not loop:
                found.append((child.lineno, func, inner, None))
            visit(child, func, inner)

    visit(tree, None, None)
    return found


def test_one_classification_path():
    # every class code comes from the one loop over the neighbourhoods,
    # so no second path (Euclid over every a <= Q/2, say) can come back
    found = [(path.name, func, loop, name)
             for path in sorted(PACKAGE.glob("*.py"))
             for _, func, loop, name in classifier_references(
                 ast.parse(path.read_text()))
             if name or func == "_classification"]
    assert sorted(found, key=str) == [
        ("arcs.py", *CLASSIFICATION_LOOP, "_batch_dirichlet"),
        ("arcs.py", *CLASSIFICATION_LOOP, "_codes"),
        ("arcs.py", *CLASSIFICATION_LOOP, None)]


def test_scan_sees_a_second_classification_path():
    tree = ast.parse(
        "def _classification(Q, D0, A):\n"
        "    for a, ell, d in _neighbourhoods(Q, r, dmax):\n"
        "        codes[a] = _codes(d, beta, Q, thr)\n"
        "    for start in range(0, half + 1, BLOCK):\n"
        "        _, d, beta = _batch_dirichlet(a, Q, D0)\n"
        "        while [c for c in _codes(d, beta, Q, thr)]:\n"
        "            pass\n"
        "def check(a):\n"
        "    f = _batch_dirichlet\n"
        "    return f(a, 7, 1)\n")
    assert classifier_references(tree) == [
        (2, "_classification", "_neighbourhoods(Q, r, dmax)", None),
        (3, "_classification", "_neighbourhoods(Q, r, dmax)", "_codes"),
        (4, "_classification", "range(0, half + 1, BLOCK)", None),
        (5, "_classification", "range(0, half + 1, BLOCK)",
         "_batch_dirichlet"),
        (6, "_classification", "while", None),
        (6, "_classification", "comprehension", None),
        (6, "_classification", "comprehension", "_codes"),
        (9, "check", None, "_batch_dirichlet")]


# The engine passes that reduce a weight's column spectrum as they make
# it: no complex or whole weight spectrum is held beside them.
WEIGHT_REDUCERS = ("half_products", "half_weight_moduli")


def reference_name(node: ast.AST):
    """f of a name f or an attribute x.f, else None."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def weight_vector_uses(tree: ast.Module) -> list:
    """(line, consumer) for each reference to ``_weight_vector``: consumer
    is the callee of the call that takes its call as a direct argument,
    None when it is called elsewhere (bound to a name, returned, passed
    on) or not called."""
    parent = {child: node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if reference_name(node) != "_weight_vector":
            continue
        call = parent[node]
        outer = parent.get(call)
        consumer = None
        if (isinstance(call, ast.Call) and call.func is node
                and isinstance(outer, ast.Call) and outer.func is not call):
            consumer = reference_name(outer.func)
        found.append((node.lineno, consumer))
    return sorted(found, key=lambda use: (use[0], str(use[1])))


def test_weight_spectrum_reduced_in_one_pass():
    # the column spectrum is consumed where it is made, so the scan stage
    # holds |S_w| and the ledger Re(F*S_w), never the complex S_w
    found = [(path.name, consumer)
             for path in sorted(PACKAGE.glob("*.py"))
             for _, consumer in weight_vector_uses(
                 ast.parse(path.read_text()))]
    assert sorted(found, key=str) == [("arcs.py", name)
                                      for name in WEIGHT_REDUCERS]


def test_scan_sees_a_held_weight_spectrum():
    tree = ast.parse(
        "def stages(w, q, k):\n"
        "    spectrum = _weight_vector(w, q, k)\n"
        "    s = half_weight_moduli(spectrum, q ** k)\n"
        "    t = fou.half_products(ctx, arcs._weight_vector(w, q, k))\n"
        "    u = half_weight_spectrum(_weight_vector(w, q, k), q ** k)\n"
        "    return _weight_vector(w, q, k), arcs._weight_vector\n")
    assert weight_vector_uses(tree) == [
        (2, None), (4, "half_products"), (5, "half_weight_spectrum"),
        (6, None), (6, None)]


def shared_function_names(trees) -> list:
    """The names that more than one module-level def of ``trees`` takes."""
    names = [node.name for tree in trees for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return sorted({name for name in names if names.count(name) > 1})


def test_no_shared_function_names():
    trees = [ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))]
    assert shared_function_names(trees) == []


def test_scan_sees_a_shared_function_name():
    trees = [ast.parse("def _residues(q, k):\n    pass\n"
                       "class T:\n    def f(self):\n        pass\n"),
             ast.parse("def _residues(ns):\n    pass\n"
                       "def f():\n    pass\n")]
    assert shared_function_names(trees) == ["_residues"]


# (module, function) that may build a CapExceededError: the one
# statement of every resource cap
CAP_HOMES = [("digits.py", "check_cap")]


def cap_error_builds(tree: ast.Module) -> list:
    """(line, function) for each call of ``CapExceededError`` (by its name,
    an alias a module imports it under, or as an attribute) and each
    ``raise`` of the bare class; function is the innermost enclosing def,
    None at module level."""
    names = {"CapExceededError"} | {
        alias.asname for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names
        if alias.name == "CapExceededError" and alias.asname}

    def is_cap_error(node):
        return (isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Attribute)
                and node.attr == "CapExceededError")

    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and is_cap_error(child.func)
                    or isinstance(child, ast.Raise)
                    and is_cap_error(child.exc)):
                found.append((child.lineno, func))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else func)

    visit(tree, None)
    return found


def test_one_cap_check():
    # every cap error comes from digits.check_cap, so no site can restate
    # the compare-raise-and-name rule beside it
    found = [(path.name, func)
             for path in sorted(PACKAGE.glob("*.py"))
             for _, func in cap_error_builds(ast.parse(path.read_text()))]
    assert found == CAP_HOMES


def test_scan_sees_a_cap_error_built():
    tree = ast.parse("from .errors import CapExceededError as Cap\n"
                     "from . import errors\n"
                     "LIMIT = CapExceededError('module level')\n"
                     "def grid(q, k):\n"
                     "    if q ** k > 10:\n"
                     "        raise CapExceededError(f'{q}^{k} too big')\n"
                     "def sieve(x):\n"
                     "    def inner(n):\n"
                     "        raise errors.CapExceededError('sieve')\n"
                     "    raise Cap\n"
                     "def caught():\n"
                     "    try:\n"
                     "        pass\n"
                     "    except CapExceededError as exc:\n"
                     "        raise exc\n")
    assert cap_error_builds(tree) == [
        (3, None), (6, "grid"), (9, "inner"), (10, "sieve")]

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
