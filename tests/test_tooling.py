"""Guards for the benchmark tooling and for the library's module boundaries."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import kreinfield

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = ROOT / "src" / "kreinfield"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    # a traced run wraps every (module, attribute) with getattr, so a name
    # removed from the library fails the whole run
    tracing = _tracing_module()
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


def _public_callables():
    """(qualified name, callable) for every public function and method of kreinfield."""
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
                        yield f"{module.__name__}.{name}.{attr}", member
            elif inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj


def _called_names(sources) -> set:
    """Names that a call in any of the sources invokes, as f(...) or x.f(...).

    Found in the syntax tree, so a name that appears only in a string or a
    docstring does not count.
    """
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    names.add(func.id)
                elif isinstance(func, ast.Attribute):
                    names.add(func.attr)
    return names


def _unplaced(callables, called: set) -> list:
    """Public names with no call site in ``called`` and no ``Check:`` line."""
    out = []
    for qualname, fn in callables:
        short = qualname.rsplit(".", 1)[-1]
        if short.startswith("__") or short in called:
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
    assert called == {"used", "attr_call"}
    pairs = [("m.orphan", orphan), ("m.oracle", oracle), ("m.used", used),
             ("m.C.__call__", orphan)]
    assert _unplaced(pairs, called) == ["m.orphan"]


def test_records_reach_readers_through_collect_only():
    # refine emits to the open collect() block; laplace_bridge_check keeps
    # recorder= as the one adapter onto it
    takers = sorted(name for name, fn in _public_callables()
                    if "recorder" in inspect.signature(fn).parameters)
    assert takers == ["kreinfield.wightman.laplace_bridge_check"]
    from kreinfield.quadrature import refine
    assert list(inspect.signature(refine).parameters) == [
        "value", "schedule", "rtol", "atol", "op"]

