"""Tests for how the verify suites reach the layer functions they check."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from pgw.verify import run_suite

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).parent.parent / "perfbench" / "tracer.py")
_tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracer)

# The module-level functions the benchmark tracer wraps; class methods are
# patched on their class and so are seen from any module.
TRACED_FUNCTIONS = [(module, attr) for _, module, attr, _ in _tracer.TARGETS
                    if "." not in attr and module != "pgw.workbench_cli"]


@pytest.mark.parametrize("module, attr", TRACED_FUNCTIONS,
                         ids=[f"{m}.{a}" for m, a in TRACED_FUNCTIONS])
def test_suites_call_each_traced_function_through_its_module(monkeypatch, module, attr):
    """The tracer replaces a function only in the pgw modules it lists, and
    pgw.verify is not one of them. So the suites must look each traced
    function up on its own module at call time: a function imported into
    verify by name would keep running the original and its calls would go
    missing from the per-layer counts. Replacing it on its own module alone
    must therefore still reach the suites."""
    owner = importlib.import_module(module)
    original = getattr(owner, attr)
    calls = []

    def counting(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counting)
    report = run_suite("all", 1, 2)
    assert report.passed
    assert calls
