"""Guards for the benchmark tooling, which names library functions by string."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
