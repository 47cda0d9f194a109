"""Tests for the circuit-file front end, verify reports, and CLI wiring.

Exit codes follow the usual convention: 0 success, 1 failed verification,
2 unusable input. Parse errors must carry exact line and column numbers
because the circuit format is meant to be written by hand.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import pgw
from pgw.fock_core import FockKet, Register, fidelity_up_to_global_phase
from pgw.mb_bridge import check_record
from pgw.optical_elements import ElementKind
from pgw.optical_gates import e_cnot
from pgw.workbench_cli import (
    DEFAULT_SEED,
    CircuitParseError,
    Report,
    main,
    parse_circuit,
    run_circuit,
    run_suite,
)
from pgw import workbench_cli

CIRCUIT_DIR = Path(pgw.__file__).parent / "circuits"

MINIMAL = """\
pgw-circuit v1
register IN A D0 D1
term 1,0 IN.H=1 A.H=1
gate f_gate IN A D0 D1
"""


def _parse_error(text):
    with pytest.raises(CircuitParseError) as excinfo:
        parse_circuit(text, source="test")
    return excinfo.value


def test_header_line_is_required():
    err = _parse_error("register IN\n")
    assert (err.line, err.column) == (1, 1)
    assert "header" in err.reason


def test_unknown_directive_reports_position():
    err = _parse_error("pgw-circuit v1\n# comment\n  bogus IN\n")
    assert (err.line, err.column) == (3, 3)
    assert "bogus" in err.reason


def test_bad_amplitude_reports_column():
    err = _parse_error("pgw-circuit v1\nregister IN\nterm x,y IN.H=1\n")
    assert (err.line, err.column) == (3, 6)


def test_register_must_come_first():
    err = _parse_error("pgw-circuit v1\nterm 1,0 IN.H=1\n")
    assert err.line == 2
    assert "register" in err.reason


def test_register_declared_once():
    err = _parse_error("pgw-circuit v1\nregister IN\nregister A\n")
    assert err.line == 3


def test_undeclared_port_is_an_error():
    err = _parse_error("pgw-circuit v1\nregister IN\nterm 1,0 B.H=1\n")
    assert err.line == 3
    assert "B" in err.reason


def test_correction_needs_a_known_branch():
    err = _parse_error(
        "pgw-circuit v1\nregister IN\nterm 1,0 IN.H=1\ncorrect D9 pc IN\n")
    assert err.line == 4
    assert "D9" in err.reason


def test_detect_index_must_be_binary():
    err = _parse_error(
        "pgw-circuit v1\nregister IN D\nterm 1,0 IN.H=1\ndetect D0 2 D.H=1\n")
    assert err.line == 4


@pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
def test_non_finite_angle_is_a_parse_error(angle):
    err = _parse_error(f"pgw-circuit v1\nregister IN\nterm 1,0 IN.H=1\n"
                       f"element hwp IN {angle}\n")
    assert (err.line, err.column) == (4, 16)
    assert angle in err.reason


def test_non_finite_amplitude_is_a_parse_error():
    err = _parse_error("pgw-circuit v1\nregister IN\nterm nan,0 IN.H=1\n")
    assert (err.line, err.column) == (3, 6)


def test_simulate_nan_angle_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.circuit"
    path.write_text("pgw-circuit v1\nregister IN\nterm 1,0 IN.H=1\nelement hwp IN nan\n")
    assert main(["simulate", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"{path}:4:16: error:")


def test_duplicate_detect_label_is_a_parse_error():
    err = _parse_error("pgw-circuit v1\nregister IN D\nterm 1,0 IN.H=1 D.H=1\n"
                       "detect x 0 D.H=1\n  detect x 0 D.H=1\n")
    assert (err.line, err.column) == (5, 10)
    assert "'x'" in err.reason


def test_detect_label_may_not_repeat_a_gate_outcome():
    err = _parse_error(MINIMAL + "detect D1 0 D0.H=0\n")
    assert (err.line, err.column) == (5, 8)


def test_overlapping_detections_are_rejected(tmp_path, capsys):
    text = ("pgw-circuit v1\nregister IN D\nterm 1,0 IN.H=1 D.H=1\n"
            "detect x 0 D.H=1\ndetect y 0 D.H=1 D.V=0\n")
    with pytest.raises(ValueError):
        run_circuit(parse_circuit(text))
    path = tmp_path / "overlap.circuit"
    path.write_text(text)
    assert main(["simulate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"{path}: error:")
    assert "rejected" not in captured.out


def test_gate_expansion_shape():
    cf = parse_circuit(MINIMAL)
    assert len(cf.elements) == 4
    assert [e.kind for e in cf.elements[:2]] == [ElementKind.PBS, ElementKind.HWP]
    assert [d.label for d in cf.detections] == ["D0", "D1"]
    assert [d.j for d in cf.detections] == [0, 1]
    assert set(cf.corrections) == {"D1"}
    assert cf.corrections["D1"][0].kind is ElementKind.PC


def test_run_circuit_branches_and_rejection():
    cf = parse_circuit(MINIMAL)
    result = run_circuit(cf)
    assert result.initial_norm_squared == pytest.approx(1.0)
    assert [b.probability for b in result.branches] == pytest.approx(
        [0.5, 0.5], abs=1e-12)
    assert result.rejected_probability == pytest.approx(0.0, abs=1e-12)


def test_circuit_without_detections_returns_final_state():
    text = "pgw-circuit v1\nregister IN\nterm 1,0 IN.H=1\nelement hwp IN 45\n"
    result = run_circuit(parse_circuit(text))
    assert result.final_state is not None
    assert result.final_state.norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_packaged_filter_fixture_simulates(capsys):
    assert main(["simulate", str(CIRCUIT_DIR / "f_gate.circuit")]) == 0
    out = capsys.readouterr().out
    assert "register: IN A D0 D1 (cutoff 4)" in out
    assert "outcome D0  j=0  p=0.25" in out
    assert "outcome D1  j=1  p=0.25" in out
    assert "rejected: p=0.5" in out


def test_packaged_cnot_fixture_matches_library(capsys):
    path = CIRCUIT_DIR / "e_cnot.circuit"
    assert main(["simulate", str(path)]) == 0
    result = run_circuit(parse_circuit(path.read_text(), source=str(path)))

    amps = np.zeros(4)
    amps[2] = 1.0  # photon pair |V>_IN |H>_IN'
    library = e_cnot(workbench_cli._two_qubit_state(
        Register(("IN", "IN'"), 4), "IN", "IN'", amps))

    assert len(result.branches) == len(library.accepted_branches) == 4
    for cli_branch, lib_branch in zip(result.branches, library.accepted_branches):
        assert cli_branch.probability == pytest.approx(
            lib_branch.probability, abs=1e-12)
        got = cli_branch.conditional_state.normalized()
        # Re-express the library's branch term on the CLI branch register
        # (which keeps the emptied auxiliary ports around).
        lib_occ = [0] * got.register.n_modes
        for mode, count in zip(lib_branch.conditional_state.register.modes,
                               next(iter(lib_branch.conditional_state.terms))):
            if count:
                lib_occ[got.register.index_of(mode)] = count
        want = FockKet(got.register, {tuple(lib_occ): 1.0})
        assert fidelity_up_to_global_phase(got, want) == pytest.approx(
            1.0, abs=1e-12)


def test_simulate_missing_file_exits_2(capsys):
    assert main(["simulate", "no-such-file.circuit"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_simulate_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.circuit"
    path.write_text("pgw-circuit v1\nnonsense\n")
    assert main(["simulate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{path}:2:1: error:")


def test_truth_table_cnot(capsys):
    assert main(["truth-table", "e_cnot"]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if "p=0.25" in line]
    assert len(rows) == 4
    assert "truth-table: e_cnot" in out


def test_verify_all_suites_pass(capsys):
    assert main(["verify", "--trials", "5", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "suite: all" in out
    assert "seed: 3" in out
    assert out.rstrip().splitlines()[-1].startswith("result: PASS")
    assert "[FAIL]" not in out


def test_verify_exit_code_on_failure(monkeypatch, capsys):
    monkeypatch.setitem(
        workbench_cli._SUITES, "optical",
        lambda rng, trials, cutoff: [
            check_record("forced", "deliberately failing check", 1.0, 0.0, 0.1)])
    assert main(["verify", "--suite", "optical"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] forced" in out
    assert "result: FAIL (0/1 checks)" in out


def test_verify_reports_are_reproducible():
    first = run_suite("mb", seed=7, trials=20)
    second = run_suite("mb", seed=7, trials=20)
    assert first.to_text() == second.to_text()
    assert json.dumps(first.to_json_dict()) == json.dumps(second.to_json_dict())


def test_report_json_schema(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["verify", "--suite", "teleport", "--trials", "5",
                 "--seed", "9", "--json", str(path)]) == 0
    data = json.loads(path.read_text())
    assert set(data) == {"suite", "seed", "checks", "pass"}
    assert data["suite"] == "teleport"
    assert data["seed"] == 9
    assert data["pass"] is True
    assert data["checks"]
    for check in data["checks"]:
        assert set(check) == {"id", "ref", "status", "got", "want", "tol"}
        assert check["status"] == "pass"


def test_seed_env_variable_is_used(monkeypatch, capsys):
    monkeypatch.setenv("PGW_SEED", "777")
    assert main(["verify", "--suite", "mb", "--trials", "0"]) == 0
    assert "seed: 777" in capsys.readouterr().out


def test_seed_flag_overrides_env(monkeypatch, capsys):
    monkeypatch.setenv("PGW_SEED", "777")
    assert main(["verify", "--suite", "mb", "--trials", "0", "--seed", "5"]) == 0
    assert "seed: 5" in capsys.readouterr().out


def test_bad_seed_env_variable_rejected(monkeypatch):
    monkeypatch.setenv("PGW_SEED", "not-a-number")
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "mb", "--trials", "0"])


def test_default_seed_constant(monkeypatch, capsys):
    monkeypatch.delenv("PGW_SEED", raising=False)
    assert main(["verify", "--suite", "mb", "--trials", "0"]) == 0
    assert f"seed: {DEFAULT_SEED}" in capsys.readouterr().out


def test_zero_trials_keeps_only_deterministic_checks(capsys):
    assert main(["verify", "--suite", "optical", "--trials", "0"]) == 0
    out = capsys.readouterr().out
    assert "hwp-rotation-matrix" in out
    assert "filter-neutral-success" not in out
    assert out.rstrip().splitlines()[-1].startswith("result: PASS")


def test_exact_operator_checks_run_without_trials(capsys):
    assert main(["verify", "--suite", "mb", "--trials", "0"]) == 0
    out = capsys.readouterr().out
    for check_id in ("filter-telegate-kraus-phase", "filter-telegate-kraus-complete",
                     "ecnot-tcnot-kraus-phase", "ecnot-tcnot-kraus-complete"):
        assert f"[PASS] {check_id} |" in out


def test_report_build_flags_failures():
    failing = Report.build("optical", 1, [
        check_record("a", "ok", 0.0, 0.0, 0.0),
        check_record("b", "off", 1.0, 0.0, 0.5)])
    assert failing.passed is False
    assert "result: FAIL (1/2 checks)" in failing.to_text()


def test_cli_requires_a_subcommand():
    with pytest.raises(SystemExit):
        main([])
