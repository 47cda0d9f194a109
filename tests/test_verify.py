"""Tests for how the verify suites and truth tables reach the layer
functions they check, and for what starting pgw loads."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pgw
from pgw import mb_bridge, optical_gates
from pgw.verify import run_suite
from pgw.workbench_cli import cmd_truth_table

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


# A truth table for each traced gate function that its mb_bridge.GATES
# configurations run.
TABLE_OF = {("pgw.optical_gates", "f_gate"): "f_gate",
            ("pgw.optical_gates", "destructive_cnot"): "d_cnot",
            ("pgw.qubit_teleport", "telegate_t"): "telegate_t",
            ("pgw.qubit_teleport", "cz_via_two_telegates"): "cz2t",
            ("pgw.qubit_teleport", "cnot_via_cz"): "cnot_cz"}


@pytest.mark.parametrize("module, attr", sorted(TABLE_OF),
                         ids=[f"{m}.{a}" for m, a in sorted(TABLE_OF)])
def test_truth_tables_call_each_traced_gate_through_its_module(monkeypatch, capsys, module, attr):
    """A GATES configuration must run the gate function as its module holds
    it when the table is printed, not as it was at import, or a traced run
    would miss its calls."""
    assert (module, attr) in TRACED_FUNCTIONS
    owner = importlib.import_module(module)
    original = getattr(owner, attr)
    calls = []

    def counting(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counting)
    assert cmd_truth_table(TABLE_OF[module, attr]) == 0
    assert capsys.readouterr().out.startswith(f"truth-table: {TABLE_OF[module, attr]}\n")
    assert calls


def _counted_compiles(monkeypatch) -> list[int]:
    """Count every mb_bridge.compile_branches call from here on."""
    calls, original = [], mb_bridge.compile_branches

    def counting(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(mb_bridge, "compile_branches", counting)
    return calls


@pytest.mark.parametrize("trials, compiles", [(100, 15), (0, 9)])
def test_one_run_compiles_each_configuration_once(monkeypatch, trials, compiles):
    """`--suite all` compiles each GATES configuration it reads once, shared by
    the suites and the bridge checks, plus the teleport suite's four
    product-auxiliary operators at 100 trials; a second run compiles again."""
    calls = _counted_compiles(monkeypatch)
    first = run_suite("all", 12345, trials)
    assert first.passed and len(calls) == compiles
    assert run_suite("all", 12345, trials).to_text() == first.to_text()
    assert len(calls) == 2 * compiles


def test_a_gate_patched_between_runs_is_seen(monkeypatch):
    run_suite("all", 1, 0)
    calls, original = [], optical_gates.e_cnot

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(optical_gates, "e_cnot", counting)
    assert run_suite("all", 1, 0).passed
    assert len(calls) == 4  # one compile of e_cnot, on its four basis inputs


_IMPORT_COMPILES = """
import sys
calls = []
sys.setprofile(lambda frame, event, arg: calls.append(frame.f_code.co_name)
               if event == "call" and frame.f_code.co_name == "compile_branches" else None)
import pgw
sys.setprofile(None)
print(len(calls), len(pgw.mb_bridge.GATES))
"""


def test_import_compiles_no_gate():
    """GATES holds functions, so `import pgw` runs no compile_branches."""
    src = str(Path(pgw.__file__).parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_COMPILES],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "12"]


_STARTUP = """
import contextlib, io, json, sys
import pgw
from pgw.verify import TRUTH_TABLES
from pgw.workbench_cli import main
seen = {"import numpy": "numpy" in sys.modules,
        "modules": [m for m in json.loads(sys.argv[1]) if m in sys.modules]}
with contextlib.redirect_stdout(io.StringIO()):
    seen["simulate"] = [main(["simulate", path]) for path in sys.argv[2:]]
    seen["simulate numpy"] = "numpy" in sys.modules
    seen["verify"] = [main(["verify", "--trials", "0"]), main(["verify"])]
    seen["verify numpy"] = "numpy" in sys.modules
    seen["truth-table"] = [main(["truth-table", gate]) for gate in TRUTH_TABLES]
seen["truth-table numpy"] = "numpy" in sys.modules
print(json.dumps(seen))
"""


def test_numpy_is_loaded_by_none_of_import_simulate_verify_or_truth_table():
    """`import pgw`, `pgw simulate`, `pgw verify` (at 0 and 100 trials) and
    every `pgw truth-table` never import numpy. `import pgw` still loads
    every module that the benchmark tracer reads from sys.modules. This runs
    in a fresh interpreter, as this one already holds numpy."""
    src = str(Path(pgw.__file__).parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fixtures = sorted(str(p) for p in (Path(pgw.__file__).parent / "circuits").glob("*.circuit"))
    assert len(fixtures) == 2
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP, json.dumps(_tracer._MODULES), *fixtures],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import numpy": False, "modules": list(_tracer._MODULES), "simulate": [0, 0],
        "simulate numpy": False, "verify": [0, 0], "verify numpy": False,
        "truth-table": [0] * 8, "truth-table numpy": False}


_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # from here on, `import numpy` raises ImportError
import pgw
from pgw.verify import TRUTH_TABLES
from pgw.workbench_cli import main
with contextlib.redirect_stdout(io.StringIO()):
    seen = {"simulate": [main(["simulate", path]) for path in sys.argv[1:]],
            "verify": [main(["verify", "--trials", "0"]), main(["verify"])],
            "truth-table": [main(["truth-table", gate]) for gate in TRUTH_TABLES]}
seen["matrix"] = repr(pgw.hwp(pgw.Register(("A",)), "A", 22.5).matrix)
print(json.dumps(seen))
"""


def test_pgw_runs_with_numpy_unimportable():
    """numpy is not a runtime dependency: with every import of it failing,
    `import pgw`, `pgw simulate` on both fixtures, `pgw verify` at 0 and 100
    trials, every `pgw truth-table` and a ModeTransform's matrix all work."""
    src = str(Path(pgw.__file__).parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fixtures = sorted(str(p) for p in (Path(pgw.__file__).parent / "circuits").glob("*.circuit"))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, *fixtures],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "simulate": [0, 0], "verify": [0, 0], "truth-table": [0] * 8,
        "matrix": repr(pgw.hwp(pgw.Register(("A",)), "A", 22.5).matrix)}
