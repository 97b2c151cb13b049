"""Guards for the benchmark tooling and for the library's module boundaries."""

import ast
import importlib
import importlib.util
import inspect
import json
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import kreinfield

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
PACKAGE = ROOT / "src" / "kreinfield"


def _perfbench_module(name: str):
    """perfbench/<name>.py, loaded read-only: no bytecode cache is written."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_traced_names_resolve():
    # a traced run wraps every (module, attribute) with getattr, so a name
    # removed from the library fails the whole run
    tracing = _perfbench_module("tracing")
    for mod in tracing.PACKAGE_MODULES:
        importlib.import_module(f"kreinfield.{mod}")
    pairs = {(modname, attr) for _, modname, attr in tracing.TRACED}
    assert ("kreinfield.wightman", "line_quadrature") in pairs
    assert ("kreinfield.testfunctions", "TestFunction.__call__") in pairs
    missing = []
    for modname, attr in sorted(pairs):
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{modname}.{attr}")
    assert missing == []


_BENCHMARK_WORKLOADS = [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", _BENCHMARK_WORKLOADS)
def test_benchmark_checks_pass(workload, seed, tmp_path):
    # the benchmark's own checks against its recorded references, so a
    # change that moves a pinned value fails here before the benchmark runs
    workloads = _perfbench_module("workloads")
    references = json.loads(
        (PERFBENCH / "references.json").read_text(encoding="utf-8"))["values"]
    setup, ops = workloads.WORKLOADS[workload]
    ctx = setup(seed, str(tmp_path))
    failures = {}
    for op in ops:
        check = workloads.Check(f"{workload}/{op.__name__}", references, record=False)
        op(ctx, check)
        if check.failures:
            failures[op.__name__] = check.failures
    assert failures == {}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_imports(source: str) -> list:
    """Lines that import, or reach through an imported module for, a private name."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{node.lineno}: import {alias.name}")
                # ``from . import mod`` binds a module
                modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_private_import_guard_catches_both_forms():
    assert _private_imports("from .quadrature import _subdivide") != []
    assert _private_imports("from . import quadrature\nquadrature._BLOCK") != []
    assert _private_imports("import numpy as np\nnp._core") != []
    assert _private_imports(
        "from . import __version__\nfrom .quadrature import refine\n"
        "class A:\n    def f(self):\n        return self._x") == []


def test_no_module_imports_another_modules_private_names():
    # ROADMAP design rule: private helpers stay inside their module
    offenders = {path.name: _private_imports(path.read_text())
                 for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}


def _unused_imports(source: str) -> list:
    """Module-level imports whose bound name the module never uses."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{line}: {name}" for name, line in bound.items() if name not in used)


def test_unused_import_guard_catches_both_forms():
    assert _unused_imports("import math\nfrom typing import List\n") == [
        "1: math", "2: List"]
    assert _unused_imports(
        "from __future__ import annotations\nimport numpy as np\nimport os.path\n"
        "from typing import List\nx: List[int] = np.zeros(os.path.sep)") == []
    # a name in a string is no use
    assert _unused_imports("import math\nx = 'math.pi'") == ["1: math"]


def test_no_module_imports_a_name_it_never_uses():
    offenders = {path.name: _unused_imports(path.read_text())
                 for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}


def _asserts(source: str) -> list:
    """Line numbers of the assert statements in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_assert_guard_catches_nested_asserts():
    assert _asserts("assert x\ndef f():\n    if y:\n        assert y, 'msg'\n") == [1, 4]
    assert _asserts("x = 'assert y'\nraise ValueError('assert')\n") == []


def test_no_assert_in_library_code():
    # python -O strips assert statements, so a library check must raise
    offenders = {path.name: _asserts(path.read_text())
                 for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}


def _public_callables():
    """(qualified name, kind, callable) for every public function and method
    of kreinfield, kind "function" or "method"."""
    for info in pkgutil.iter_modules(kreinfield.__path__):
        module = importlib.import_module(f"kreinfield.{info.name}")
        for name, obj in vars(module).items():
            if _private(name) or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if not _private(attr) and inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", "method", member
            elif inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", "function", obj


def _is_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ImportError:  # the part before the last dot is not a package
        return False


def _module_names(tree) -> set:
    """Names that the imports in ``tree`` bind to a module.

    ``import a.b`` binds a, ``import a as b`` binds b, and ``from p import y``
    binds y when p.y is a module; relative imports are resolved against
    kreinfield, the one package whose sources use them.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = importlib.util.resolve_name(
                "." * node.level + (node.module or ""), "kreinfield")
            names.update(alias.asname or alias.name for alias in node.names
                         if _is_module(f"{package}.{alias.name}"))
    return names


def _called_names(sources) -> set:
    """(kind, name) for each call in any of the sources.

    A bare call f(...) and a call m.f(...) through an imported module m
    count as ("function", "f"); any other call x.f(...) counts as
    ("method", "f").  Found in the syntax tree, so a name that appears only
    in a string or a docstring does not count.  Receivers are not resolved:
    x.f(...) credits every public method named f, whatever the class of x.
    """
    names = set()
    for source in sources:
        tree = ast.parse(source)
        modules = _module_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    names.add(("function", func.id))
                elif isinstance(func, ast.Attribute):
                    receiver = func.value
                    through_module = (isinstance(receiver, ast.Name)
                                      and receiver.id in modules)
                    names.add(("function" if through_module else "method", func.attr))
    return names


def _unplaced(callables, called: set) -> list:
    """Public names with no call of their kind in ``called`` and no ``Check:`` line."""
    out = []
    for qualname, kind, fn in callables:
        short = qualname.rsplit(".", 1)[-1]
        if short.startswith("__") or (kind, short) in called:
            continue
        doc = inspect.getdoc(fn) or ""
        if not any(line.startswith("Check:") for line in doc.splitlines()):
            out.append(qualname)
    return sorted(out)


def test_public_names_have_a_caller_or_name_their_check():
    # a public function or method is either used by the library, the demos
    # or the benchmark, or it is an oracle whose docstring names the test
    # or acceptance criterion it serves
    sources = [path.read_text() for folder in ("src", "demos", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    assert _unplaced(_public_callables(), _called_names(sources)) == []


def test_public_name_guard_catches_a_test_only_name():
    def orphan():
        """Used by a test only."""

    def oracle():
        """Reference value.

        Check: test_something.
        """

    def used():
        """Called by the library."""

    called = _called_names(["used()\nobj.attr_call()\nx = 'orphan()'"])
    assert called == {("function", "used"), ("method", "attr_call")}
    pairs = [("m.orphan", "function", orphan), ("m.oracle", "function", oracle),
             ("m.used", "function", used), ("m.C.__call__", "method", orphan)]
    assert _unplaced(pairs, called) == ["m.orphan"]

    # a call of one kind does not credit a name of the other: a local
    # integral(n) is no call of a method integral, itertools.product(...) no
    # call of a method product; module functions are credited through their
    # module, relative imports resolved against kreinfield
    called = _called_names([
        "import itertools\nfrom kreinfield import hssc\nfrom . import quadrature\n"
        "from .testfunctions import TestFunction\n"
        "integral(8)\nitertools.product([], [])\nhssc.hssc_certify()\n"
        "quadrature.refine()\nTestFunction.gaussian()\ng.scale(2.0)\n"])
    assert called == {("function", "integral"), ("function", "product"),
                      ("function", "hssc_certify"), ("function", "refine"),
                      ("method", "gaussian"), ("method", "scale")}
    pairs = [("m.C.integral", "method", used), ("m.C.product", "method", used),
             ("m.hssc_certify", "function", used), ("m.refine", "function", used),
             ("m.C.gaussian", "method", used), ("m.gaussian", "function", used),
             ("m.D.scale", "method", used)]
    assert _unplaced(pairs, called) == ["m.C.integral", "m.C.product", "m.gaussian"]


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_oracle(node) -> bool:
    """Whether the definition's docstring has a ``Check:`` line."""
    return any(line.startswith("Check:")
               for line in (ast.get_docstring(node) or "").splitlines())


def _oracle_names(sources) -> set:
    """Names of the functions, methods and classes in ``sources`` whose
    docstring has a ``Check:`` line, the mark of a test-only oracle."""
    return {node.name for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, _DEFS) and _is_oracle(node)}


def _oracle_calls(source: str, oracles: set) -> list:
    """Calls in ``source`` of a name in ``oracles``, f(...) or x.f(...),
    outside the oracles' own bodies.  A bare name defined inside an
    enclosing function is that local definition, not the oracle."""
    found = []

    def visit(node, local: frozenset) -> None:
        if isinstance(node, _DEFS):
            if _is_oracle(node):
                return
            if not isinstance(node, ast.ClassDef):
                local = local | {inner.name for inner in ast.walk(node)
                                 if isinstance(inner, _DEFS) and inner is not node}
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id not in local:
                name = func.id
            else:
                name = func.attr if isinstance(func, ast.Attribute) else None
            if name in oracles:
                found.append(f"{node.lineno}: {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(ast.parse(source), frozenset())
    return found


def test_oracle_call_guard_catches_a_library_call():
    # the shape of the masked three-slot bracket when the d = 1 evaluator
    # still called it
    source = (
        'def bracket_scalar(k0s, kv_sqs, spec):\n'
        '    """Masked bracket.\n\n    Check: test_x.\n    """\n'
        '    return bracket_scalar(k0s[1:], kv_sqs, spec)\n'
        'def three_point_eval_1d(f, spec):\n'
        '    def inner(k2):\n'
        '        return f(k2) * bracket_scalar(k2, 0.0, spec)\n'
        '    return inner\n')
    assert _oracle_names([source]) == {"bracket_scalar"}
    assert _oracle_calls(source, {"bracket_scalar"}) == ["9: bracket_scalar"]
    # an oracle class may build itself, a local function shadows an oracle
    # method's name, and a method call through any receiver counts
    source = (
        'class Quaternion:\n'
        '    """Algebra.\n\n    Check: test_q.\n    """\n'
        '    def __mul__(self, other):\n'
        '        return Quaternion()\n'
        'def density_eval(g):\n'
        '    if g:\n'
        '        def integral(n):\n'
        '            return n\n'
        '    return integral(8) + g.integral()\n')
    assert _oracle_calls(source, {"Quaternion", "integral"}) == ["12: integral"]


def test_no_library_code_calls_a_test_only_name():
    # a Check: line marks an oracle that only tests run, so the library's
    # run path must not reach one
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    oracles = _oracle_names(sources.values())
    assert {"bracket_scalar", "Quaternion", "integral"} <= oracles
    offenders = {name: _oracle_calls(src, oracles) for name, src in sources.items()}
    assert {name: found for name, found in offenders.items() if found} == {}


def _check_names(source: str) -> list:
    """One "owner: name" entry per test_* name in the ``Check:`` paragraphs
    of the docstrings in ``source``; a paragraph runs from its ``Check:``
    line to the next blank line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        owner = getattr(node, "name", "(module)")
        text = ""
        for line in (ast.get_docstring(node) or "").splitlines():
            text = line if line.startswith("Check:") else (text and line)
            found.extend(f"{owner}: {name}" for name in re.findall(r"\btest_\w+", text))
    return found


def _test_names() -> set:
    """Every test function and test module name under tests/."""
    names = set()
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        names.add(path.stem)
        names.update(node.name for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and node.name.startswith("test_"))
    return names


def test_check_guard_reads_the_whole_paragraph():
    source = (
        '"""Module.\n\nCheck: test_top."""\n'
        'def f():\n'
        '    """Doc naming test_outside.\n\n'
        '    Check: test_a and\n    test_b, the oracle.\n\n'
        '    test_after is not in the paragraph.\n    """\n')
    assert _check_names(source) == ["(module): test_top", "f: test_a", "f: test_b"]


def test_check_lines_name_tests_that_exist():
    # a Check: line is where a test-only oracle says which test serves it,
    # so a renamed or deleted test must not leave it pointing nowhere
    known = _test_names()
    assert "test_levy" in known and "test_traced_names_resolve" in known
    dangling = {path.name: [entry for entry in _check_names(path.read_text())
                            if entry.split(": ")[1] not in known]
                for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in dangling.items() if found} == {}


def test_records_reach_readers_through_collect_only():
    # refine emits to the open collect() block; laplace_bridge_check keeps
    # recorder= as the one adapter onto it
    takers = sorted(name for name, _, fn in _public_callables()
                    if "recorder" in inspect.signature(fn).parameters)
    assert takers == ["kreinfield.wightman.laplace_bridge_check"]
    from kreinfield.quadrature import refine
    assert list(inspect.signature(refine).parameters) == [
        "value", "schedule", "rtol", "atol", "op"]



RECORD_KEYS = {"op", "value", "tolerance", "history", "residual"}


def _emitted_literals(source: str) -> list:
    """(line, keys) of each ``emit({...})`` dict literal in ``source``."""
    return [(node.lineno, {k.value for k in node.args[0].keys
                           if isinstance(k, ast.Constant)})
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "emit" and node.args
            and isinstance(node.args[0], ast.Dict)]


def _short_records(source: str) -> list:
    """The ``emit({...})`` literals that lack one of the record keys."""
    return [f"{line}: {sorted(RECORD_KEYS - keys)}"
            for line, keys in _emitted_literals(source) if not RECORD_KEYS <= keys]


def test_record_guard_catches_a_literal_without_residual():
    assert _short_records(
        'emit({"op": "x", "value": [1.0, 0.0], "tolerance": 0.0, "history": []})'
    ) == ["1: ['residual']"]
    assert _short_records(
        'emit({"op": "x", "value": None, "tolerance": 0.0, "history": [],'
        ' "residual": 0.0, "error": "why"})\nemit(record)') == []


def test_every_emitted_record_has_the_full_shape():
    # hssc_certify sums the records' residuals, so every success record
    # carries one; the literals are refine's two, the d = 1 shell closed
    # form and the alpha < 1/2 bridge loop
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert sum(len(_emitted_literals(src)) for src in sources.values()) >= 4
    offenders = {name: _short_records(src) for name, src in sources.items()}
    assert {name: found for name, found in offenders.items() if found} == {}
