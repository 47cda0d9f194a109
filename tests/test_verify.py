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
from pgw import mb_bridge, optical_gates, qubit_teleport, verify
from pgw.fock_core import GateResult
from pgw.mb_bridge import BranchOperators
from pgw.verify import run_suite
from pgw.workbench_cli import cmd_truth_table, main

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).parent.parent / "perfbench" / "tracer.py")
_tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracer)

# The module-level functions the benchmark tracer wraps; class methods are
# patched on their class and so are seen from any module.
TRACED_FUNCTIONS = [(module, attr) for _, module, attr, _ in _tracer.TARGETS
                    if "." not in attr and module != "pgw.workbench_cli"]


# The traced library gates whose GATES configurations are `gate` lines: they
# compile from the gate's expansion (optical_gates.GATE_EXPANDERS), not through
# the library gate, so the suites do not call them.
COMPILED_FROM_EXPANSION = {("pgw.optical_gates", "destructive_cnot"),
                           ("pgw.optical_gates", "e_cnot")}
SUITE_FUNCTIONS = [t for t in TRACED_FUNCTIONS if t not in COMPILED_FROM_EXPANSION]


def _counting(monkeypatch, owner, attr) -> list[str]:
    """Replace owner.attr by a wrapper that records each call; return the record."""
    original, calls = getattr(owner, attr), []

    def counting(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counting)
    return calls


@pytest.mark.parametrize("module, attr", SUITE_FUNCTIONS,
                         ids=[f"{m}.{a}" for m, a in SUITE_FUNCTIONS])
def test_suites_call_each_traced_function_through_its_module(monkeypatch, module, attr):
    """The tracer replaces a function only in the pgw modules it lists, and
    pgw.verify is not one of them. So the suites must look each traced
    function up on its own module at call time: a function imported into
    verify by name would keep running the original and its calls would go
    missing from the per-layer counts. Replacing it on its own module alone
    must therefore still reach the suites."""
    calls = _counting(monkeypatch, importlib.import_module(module), attr)
    report = run_suite("all", 1, 2)
    assert report.passed
    assert calls


def test_suites_do_not_call_the_gates_compiled_from_their_expansion(monkeypatch):
    assert COMPILED_FROM_EXPANSION <= set(TRACED_FUNCTIONS)
    calls = [_counting(monkeypatch, importlib.import_module(module), attr)
             for module, attr in sorted(COMPILED_FROM_EXPANSION)]
    assert run_suite("all", 1, 2).passed
    assert calls == [[], []]


# A truth table for each traced gate function that its mb_bridge.GATES
# configurations run.
TABLE_OF = {("pgw.qubit_teleport", "telegate_t"): "telegate_t",
            ("pgw.qubit_teleport", "cz_via_two_telegates"): "cz2t",
            ("pgw.qubit_teleport", "cnot_via_cz"): "cnot_cz"}


@pytest.mark.parametrize("module, attr", sorted(TABLE_OF),
                         ids=[f"{m}.{a}" for m, a in sorted(TABLE_OF)])
def test_truth_tables_call_each_traced_gate_through_its_module(monkeypatch, capsys, module, attr):
    """A GATES configuration must run the gate function as its module holds
    it when the table is printed, not as it was at import, or a traced run
    would miss its calls."""
    assert (module, attr) in TRACED_FUNCTIONS
    calls = _counting(monkeypatch, importlib.import_module(module), attr)
    assert cmd_truth_table(TABLE_OF[module, attr]) == 0
    assert capsys.readouterr().out.startswith(f"truth-table: {TABLE_OF[module, attr]}\n")
    assert calls


def _counting_expander(monkeypatch, name: str) -> list[tuple[str, ...]]:
    """Replace GATE_EXPANDERS[name] by a wrapper that records each call's ports."""
    (expander, arity), calls = optical_gates.GATE_EXPANDERS[name], []

    def counting(*ports):
        calls.append(ports)
        return expander(*ports)

    monkeypatch.setitem(optical_gates.GATE_EXPANDERS, name, (counting, arity))
    return calls


@pytest.mark.parametrize("name", ["f_gate", "parity_check", "d_cnot", "e_cnot"])
def test_truth_tables_reach_the_expander_of_their_gate_line(monkeypatch, capsys, name):
    """An optical table's configurations are `gate name ...` lines: each looks
    its expander up in GATE_EXPANDERS as it compiles, once per configuration."""
    calls = _counting_expander(monkeypatch, name)
    assert cmd_truth_table(name) == 0
    assert capsys.readouterr().out.startswith(f"truth-table: {name}\n")
    configurations = verify.TRUTH_TABLES[name][2]
    assert calls == [mb_bridge.GATES[c][0][1:] for c in configurations]


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
    calls = _counting_expander(monkeypatch, "e_cnot")
    assert run_suite("all", 1, 0).passed
    assert len(calls) == 1  # one compile of e_cnot, which expands its line once


def test_the_optical_configurations_compose_once_per_configuration_and_run(monkeypatch):
    """Filling the six optical configurations composes each one's elements
    once, and each of its outcomes' corrections once: 6 element lists and 8
    correction lists (f_gate, f_gate minus and parity_check one each, the two
    d_cnot one each, e_cnot three). A second BranchOperators composes again."""
    calls = _counting(monkeypatch, optical_gates, "_compose")
    optical = [name for name, (_, _, enc) in mb_bridge.GATES.items() if enc is not None]
    ops, again = BranchOperators(), BranchOperators()
    for name in optical * 2:
        ops[name]
    assert len(optical) == 6 and len(calls) == 14
    for name in optical:
        again[name]
    assert len(calls) == 28


def test_a_pbm_that_drops_a_branch_fails_its_check_in_the_printed_report(monkeypatch, capsys):
    """pbm returning only its Psi+ branch is a failed check with got=nan, not a crash."""
    original = qubit_teleport.pbm
    monkeypatch.setattr(qubit_teleport, "pbm", lambda state, pair: GateResult(
        original(state, pair).accepted_branches[:1]))
    assert main(["verify", "--trials", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    for check_id in ("pbm-resolves-odd-bells", "pbm-rejects-even-bells"):
        (line,) = [line for line in lines if line.startswith(f"[FAIL] {check_id} | ")]
        assert line.endswith(" | got=nan want=0.0 tol=1e-12")
    assert lines[-1].startswith("result: FAIL ")


_IMPORT_COMPILES = """
import sys
calls = []
sys.setprofile(lambda frame, event, arg: calls.append(frame.f_code.co_name)
               if event == "call" and frame.f_code.co_name in ("compile_branches", "bind") else None)
import pgw
sys.setprofile(None)
print(len(calls), len(pgw.mb_bridge.GATES))
"""


def test_import_compiles_no_gate():
    """GATES holds `gate` lines and functions, so `import pgw` runs no
    compile_branches and binds no Pipeline."""
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
