"""Tests for the circuit-file front end, verify reports, and CLI wiring.

Exit codes follow the usual convention: 0 success, 1 failed verification,
2 unusable input. Parse errors must carry exact line and column numbers
because the circuit format is meant to be written by hand.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgw
from pgw.fock_core import (
    H,
    V,
    FockKet,
    ModeId,
    Register,
    fidelity_up_to_global_phase,
    polarization_ket,
)
from pgw.mb_bridge import check_record
from pgw.optical_elements import ELEMENTS, ElementSpec, hwp, mode_swap, pbs, pockels_z
from pgw.optical_gates import destructive_cnot, e_cnot, f_gate
from pgw.workbench_cli import (
    DEFAULT_SEED,
    DIRECTIVES,
    HEADER,
    CircuitParseError,
    main,
    parse_circuit,
    run_circuit,
    run_suite,
)
from pgw import optical_gates, verify, workbench_cli
from pgw.verify import Report

CIRCUIT_DIR = Path(pgw.__file__).parent / "circuits"

MINIMAL = """\
pgw-circuit v1
register IN A D0 D1
term 1,0 IN.H=1 A.H=1
gate f_gate IN A D0 D1
"""


def _parse_error(text):
    with pytest.raises(CircuitParseError) as excinfo:
        parse_circuit(text)
    return excinfo.value


# One circuit per CircuitParseError raise site of the parser, with the exact
# (line, column, reason) it fails with, and a variant of each that indents the
# line or adds a comment, so columns are counted on the raw line. A `missing
# element kind` error points at column 1 whatever the indentation.
_H = HEADER + "\n"
_R = _H + "register IN A D0 D1\n"
PINNED_PARSE_ERRORS = [
    ("header-first", "register IN\n", 1, 1, "expected header 'pgw-circuit v1'"),
    ("header-first-indented", "# note\n  pgw-circuit v2 # x\n",
     2, 3, "expected header 'pgw-circuit v1'"),
    ("header-missing", "", 1, 1, "expected header 'pgw-circuit v1'"),
    ("header-missing-comment-only", "# only a comment\n   \n",
     1, 1, "expected header 'pgw-circuit v1'"),
    ("register-twice", _R + "register A\n", 3, 1, "register declared twice"),
    ("register-twice-indented", _R + "  register A # again\n", 3, 3, "register declared twice"),
    ("register-empty", _H + "register\n", 2, 1, "register needs at least one port"),
    ("register-empty-indented", _H + "\tregister # no ports\n",
     2, 2, "register needs at least one port"),
    ("register-bad-label", _H + "register IN A.B\n",
     2, 13, "port label 'A.B' may not contain '.', ',', or '='"),
    ("register-bad-label-indented", _H + "  register IN  a=b # note\n",
     2, 16, "port label 'a=b' may not contain '.', ',', or '='"),
    ("register-port-twice", _H + "register IN A IN\n", 2, 15, "port 'IN' declared twice"),
    ("register-port-twice-indented", _H + " register  IN A  IN#x\n",
     2, 18, "port 'IN' declared twice"),
    ("register-missing", _H + "cutoff 3\n", 3, 1, "missing register directive"),
    ("register-missing-no-newline", _H + "  cutoff 3 # x", 2, 1, "missing register directive"),
    ("register-first", _H + "term 1,0 IN.H=1\n", 2, 1, "register must be declared first"),
    ("register-first-indented", _H + "# c\n  element pc IN # x\n",
     3, 3, "register must be declared first"),
    ("cutoff-twice", _R + "cutoff 3\ncutoff 4\n", 4, 1, "cutoff declared twice"),
    ("cutoff-twice-indented", _R + "cutoff 3\n   cutoff 4 # again\n",
     4, 4, "cutoff declared twice"),
    ("cutoff-arity", _R + "cutoff\n", 3, 1, "cutoff takes one integer"),
    ("cutoff-arity-indented", _R + "  cutoff 3 4 # two\n", 3, 3, "cutoff takes one integer"),
    ("cutoff-not-int", _R + "cutoff x\n", 3, 8, "expected a photon cap, got 'x'"),
    ("cutoff-not-int-indented", _R + "  cutoff   3.0 # x\n",
     3, 12, "expected a photon cap, got '3.0'"),
    ("cutoff-zero", _R + "cutoff 0\n", 3, 8, "cutoff must be at least 1"),
    ("cutoff-zero-indented", _R + " cutoff  -1 # x\n", 3, 10, "cutoff must be at least 1"),
    ("cutoff-above-170", _R + "cutoff 171\n", 3, 8, "cutoff may not exceed 170"),
    ("cutoff-above-170-indented", _R + "\tcutoff 200#x\n", 3, 9, "cutoff may not exceed 170"),
    ("term-empty", _R + "term\n", 3, 1, "term needs an amplitude"),
    ("term-empty-indented", _R + "  term # none\n", 3, 3, "term needs an amplitude"),
    ("amplitude-no-comma", _R + "term 1 IN.H=1\n", 3, 6, "expected amplitude RE,IM, got '1'"),
    ("amplitude-no-comma-indented", _R + "  term  1 IN.H=1 # x\n",
     3, 9, "expected amplitude RE,IM, got '1'"),
    ("amplitude-real", _R + "term x,0 IN.H=1\n", 3, 6, "expected a real part, got 'x'"),
    ("amplitude-imag-indented", _R + "  term 1,y IN.H=1 # x\n",
     3, 8, "expected an imaginary part, got 'y'"),
    ("amplitude-non-finite", _R + "term nan,0 IN.H=1\n",
     3, 6, "expected a real part, got non-finite 'nan'"),
    ("amplitude-non-finite-indented", _R + "  term 0,-inf IN.H=1 # x\n",
     3, 8, "expected an imaginary part, got non-finite '-inf'"),
    ("amplitude-range", _R + "term 2,0 IN.H=1\n",
     3, 6, "amplitude parts must lie in [-1, 1], got '2,0'"),
    ("amplitude-range-indented", _R + "  term 0,-1.5 IN.H=1 # x\n",
     3, 8, "amplitude parts must lie in [-1, 1], got '0,-1.5'"),
    ("count-no-equals", _R + "term 1,0 IN.H\n", 3, 10, "expected MODE=COUNT, got 'IN.H'"),
    ("count-no-equals-indented", _R + "  term 1,0  A.H=1  IN.H # x\n",
     3, 20, "expected MODE=COUNT, got 'IN.H'"),
    ("mode-id", _R + "term 1,0 IN.X=1\n",
     3, 10, "not a mode id: 'IN.X' (expected LABEL.H or LABEL.V)"),
    ("mode-id-indented", _R + "  detect x 0  .H=1 # x\n",
     3, 15, "not a mode id: '.H' (expected LABEL.H or LABEL.V)"),
    ("port-undeclared", _R + "term 1,0 B.H=1\n", 3, 10, "port 'B' not declared in register"),
    ("port-undeclared-indented", _R + " element  pbs IN  B # x\n",
     3, 19, "port 'B' not declared in register"),
    ("count-not-int", _R + "term 1,0 IN.H=x\n", 3, 10, "expected a photon count, got 'x'"),
    ("count-not-int-indented", _R + "  detect x 0 A.V=0 IN.H=1.0 # x\n",
     3, 20, "expected a photon count, got '1.0'"),
    ("count-negative", _R + "term 1,0 IN.H=-1\n", 3, 10, "photon counts must be nonnegative"),
    ("count-negative-indented", _R + "   term 1,0 A.V=0 IN.H=-2#x\n",
     3, 19, "photon counts must be nonnegative"),
    ("mode-twice", _R + "term 1,0 IN.H=1 IN.H=0\n", 3, 17, "mode IN.H listed twice"),
    ("mode-twice-indented", _R + "  detect x 0 D0.H=1  D0.H=1 # x\n",
     3, 22, "mode D0.H listed twice"),
    ("element-empty", _R + "element\n", 3, 1, "missing element kind"),
    ("element-empty-indented", _R + "   element # none\n", 3, 4, "missing element kind"),
    ("correct-element-empty", _R + "detect x 0 D0.H=1\ncorrect x\n", 4, 1, "missing element kind"),
    ("element-kind", _R + "element bs IN A\n", 3, 9, "unknown element kind 'bs'"),
    ("element-kind-indented", _R + "  correct x  bs IN A # x\n",
     3, 14, "unknown element kind 'bs'"),
    ("element-arity", _R + "element pbs IN\n", 3, 9, "element pbs takes 2 port argument(s)"),
    ("element-arity-indented", _R + "  element  swap IN.H # x\n",
     3, 12, "element swap takes 2 mode argument(s)"),
    ("element-repeat", _R + "element pbs IN IN\n", 3, 16, "element pbs repeats argument 'IN'"),
    ("element-repeat-indented", _R + "  correct x swap A.H  A.H # x\n",
     3, 23, "element swap repeats argument 'A.H'"),
    ("element-angle", _R + "element hwp IN x\n", 3, 16, "expected an angle in degrees, got 'x'"),
    ("element-angle-indented", _R + "  element  hwp IN  nan # x\n",
     3, 20, "expected an angle in degrees, got non-finite 'nan'"),
    ("gate-empty", _R + "gate\n", 3, 1, "gate needs a name"),
    ("gate-empty-indented", _R + "  gate # none\n", 3, 3, "gate needs a name"),
    ("gate-unknown", _R + "gate cnot IN A D0 D1\n", 3, 6, "unknown gate 'cnot'"),
    ("gate-unknown-indented", _R + "  gate  cnot IN A D0 D1 # x\n", 3, 9, "unknown gate 'cnot'"),
    ("gate-arity", _R + "gate f_gate IN A D0\n", 3, 6, "gate f_gate takes 4 ports"),
    ("gate-arity-indented", _R + "  gate  d_cnot IN A D0 D1 D1 # x\n",
     3, 9, "gate d_cnot takes 4 ports"),
    ("gate-distinct", _R + "gate f_gate IN A D0 D0\n", 3, 6, "gate f_gate ports must be distinct"),
    ("gate-distinct-indented", _R + " gate   parity_check IN IN D0 D1 # x\n",
     3, 9, "gate parity_check ports must be distinct"),
    ("label-twice", _R + "detect x 0 D0.H=1\ndetect x 0 D0.H=0\n",
     4, 8, "detection label 'x' used twice"),
    ("label-twice-gate", _R + "detect D1 0 D0.H=1\n  gate  f_gate IN A D0 D1 # x\n",
     4, 9, "detection label 'D1' used twice"),
    ("detect-arity", _R + "detect x 0\n", 3, 1, "detect needs a label, an index, and counts"),
    ("detect-arity-indented", _R + "  detect x # x\n",
     3, 3, "detect needs a label, an index, and counts"),
    ("index-not-int", _R + "detect x y D0.H=1\n", 3, 10, "expected a feed-forward index, got 'y'"),
    ("index-not-int-indented", _R + "  detect  x  0.0 D0.H=1 # x\n",
     3, 14, "expected a feed-forward index, got '0.0'"),
    ("index-range", _R + "detect x 2 D0.H=1\n", 3, 10, "feed-forward index must be 0 or 1"),
    ("index-range-indented", _R + " detect x   -1 D0.H=1 # x\n",
     3, 13, "feed-forward index must be 0 or 1"),
    ("correct-empty", _R + "correct\n", 3, 1, "correct needs a branch label"),
    ("correct-empty-indented", _R + "  correct # none\n", 3, 3, "correct needs a branch label"),
    ("directive-unknown", _R + "bogus IN\n", 3, 1, "unknown directive 'bogus'"),
    ("directive-unknown-indented", _R + "# c\n  Register IN # x\n",
     4, 3, "unknown directive 'Register'"),
    ("term-above-cutoff", _R + "term 1,0 IN.H=5\n",
     3, 10, "term holds 5 photons, more than the cutoff 4"),
    ("term-above-cutoff-indented", _R + "  term  0,0 A.H=0  IN.H=2 # x\ncutoff 1\n",
     3, 13, "term holds 2 photons, more than the cutoff 1"),
    ("norm-above-one", _R + "term 0.8,0 IN.H=1\nterm 0.8,0 A.H=1\n",
     4, 6, "initial state has squared norm 1.2800000000000002, more than 1"),
    ("norm-above-one-indented", _R + "term 0.8,0 IN.H=1\n  term  0.6,0 IN.H=1 # x\n# end\n",
     4, 9, "initial state has squared norm 1.9599999999999997, more than 1"),
    ("correct-unknown-branch", _R + "correct x pc IN\n",
     3, 9, "correction for unknown branch 'x'"),
    ("correct-unknown-branch-indented", _R + "detect y 0 D0.H=1\n  correct   x pc IN # x\n",
     4, 13, "correction for unknown branch 'x'"),
    ("correct-consumed", _R + "detect x 0 D0.H=1\ncorrect x pc D0\n",
     4, 14, "correction for branch 'x' acts on mode D0.H, which its detection consumes"),
    ("correct-consumed-indented", _R + "detect x 0 D0.V=0\n  correct  x swap IN.H   D0.V # x\n",
     4, 26, "correction for branch 'x' acts on mode D0.V, which its detection consumes"),
    # Numbers are ASCII only: int() and float() alone would also read these.
    ("count-full-width-digit", _R + "term 1,0 A.H=\uff11\n",
     3, 10, "expected a photon count, got '\uff11'"),
    ("count-arabic-indic-digit", _R + "  detect x 0 D0.H=\u0661 # x\n",
     3, 14, "expected a photon count, got '\u0661'"),
    ("index-full-width-digit", _R + "detect x \uff10 D0.H=1\n",
     3, 10, "expected a feed-forward index, got '\uff10'"),
    ("cutoff-underscore", _R + "cutoff 1_0\n", 3, 8, "expected a photon cap, got '1_0'"),
    ("angle-underscore", _R + "element hwp A 2_2.5\n",
     3, 15, "expected an angle in degrees, got '2_2.5'"),
    ("amplitude-underscore-indented", _R + " term 0_1,0 IN.H=1\n",
     3, 7, "expected a real part, got '0_1'"),
]


@pytest.mark.parametrize("text, line, column, reason", [row[1:] for row in PINNED_PARSE_ERRORS],
                         ids=[row[0] for row in PINNED_PARSE_ERRORS])
def test_parse_error_positions_are_pinned(text, line, column, reason):
    err = _parse_error(text)
    assert (err.line, err.column, err.reason) == (line, column, reason)


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


@pytest.mark.parametrize("detect", ["detect x 0 D.H=1 D.V=0", "detect x 0 D.H=1"])
def test_correction_on_a_consumed_mode_is_a_parse_error(detect, tmp_path, capsys):
    text = ("pgw-circuit v1\nregister IN D\nterm 1,0 IN.H=1 D.H=1\n"
            f"{detect}\ncorrect x pc D\n")
    err = _parse_error(text)
    assert (err.line, err.column) == (5, 14)
    assert "D.H" in err.reason
    path = tmp_path / "consumed.circuit"
    path.write_text(text)
    assert main(["simulate", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"{path}:5:14: error:")


def test_correction_points_at_its_consumed_mode_token():
    err = _parse_error("pgw-circuit v1\nregister IN D\nterm 1,0 IN.H=1 D.H=1\n"
                       "detect x 0 D.V=0\ncorrect x   swap IN.H  D.V\n")
    assert (err.line, err.column) == (5, 24)
    assert "D.V" in err.reason
    # D.H survives a detection that only measures D.V.
    parse_circuit("pgw-circuit v1\nregister IN D\nterm 1,0 IN.H=1 D.H=1\n"
                  "detect x 0 D.V=0\ncorrect x swap IN.H D.H\n")


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


def test_simulate_huge_hwp_angle_runs(tmp_path, capsys):
    path = tmp_path / "huge.circuit"
    path.write_text("pgw-circuit v1\nregister IN\nterm 1,0 IN.H=1\nelement hwp IN 1e308\n")
    assert main(["simulate", str(path)]) == 0
    assert "final state:" in capsys.readouterr().out


def test_duplicate_detect_label_is_a_parse_error():
    err = _parse_error("pgw-circuit v1\nregister IN D\nterm 1,0 IN.H=1 D.H=1\n"
                       "detect x 0 D.H=1\n  detect x 0 D.H=1\n")
    assert (err.line, err.column) == (5, 10)
    assert "'x'" in err.reason


def test_detect_label_may_not_repeat_a_gate_outcome():
    err = _parse_error(MINIMAL + "detect D1 0 D0.H=0\n")
    assert (err.line, err.column) == (5, 8)


def test_gate_outcome_label_may_not_repeat_an_earlier_outcome(tmp_path, capsys):
    """Labels are checked once for `detect` and `gate` lines alike, so two
    gates cannot share an outcome (and so a correction)."""
    text = ("pgw-circuit v1\nregister IN IN2 A A2 D0 D1\n"
            "term 1,0 IN.H=1 A.H=1 IN2.V=1 A2.H=1\n"
            "gate f_gate IN A D0 D1\ngate f_gate IN2 A2 D1 D0\n")
    err = _parse_error(text)
    assert (err.line, err.column, err.reason) == (5, 6, "detection label 'D1' used twice")
    path = tmp_path / "twice.circuit"
    path.write_text(text)
    assert main(["simulate", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"{path}:5:6: error:")
    err = _parse_error("pgw-circuit v1\nregister IN A D0 D1\ndetect D0 0 D0.H=1\n"
                       "gate  f_gate IN A D0 D1\n")
    assert (err.line, err.column, err.reason) == (4, 7, "detection label 'D0' used twice")


def test_correction_for_an_unknown_branch_points_at_its_label():
    err = _parse_error("pgw-circuit v1\nregister IN\nterm 1,0 IN.H=1\ncorrect   D9 pc IN\n")
    assert (err.line, err.column) == (4, 11)
    assert err.reason == "correction for unknown branch 'D9'"


@pytest.mark.parametrize("line", ["element pbs IN IN", "element swap IN.H  IN.H",
                                  "correct x pbs D  D", "correct x swap IN.V IN.V"])
def test_repeated_element_argument_is_a_parse_error(line):
    """A repeated port or mode fails at the repeated token, for every kind."""
    err = _parse_error("pgw-circuit v1\nregister IN D\nterm 1,0 IN.H=1\n"
                       f"detect x 0 IN.H=1\n{line}\n")
    kind, repeated = line.split()[-3], line.split()[-1]
    assert (err.line, err.column) == (5, line.rindex(repeated) + 1)
    assert err.reason == f"element {kind} repeats argument {repeated!r}"


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
    pipeline = parse_circuit(MINIMAL).pipeline
    assert len(pipeline.elements) == 4
    assert [e.kind for e in pipeline.elements[:2]] == ["pbs", "hwp"]
    assert [d.label for d in pipeline.detections] == ["D0", "D1"]
    assert [d.j for d in pipeline.detections] == [0, 1]
    assert set(pipeline.corrections) == {"D1"}
    assert pipeline.corrections["D1"][0].kind == "pc"


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
    result = run_circuit(parse_circuit(path.read_text()))

    amps = np.zeros(4)
    amps[2] = 1.0  # photon pair |V>_IN |H>_IN'
    library = e_cnot(polarization_ket(Register(("IN", "IN'"), 4), ("IN", "IN'"), amps))

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


# Each packaged fixture's ports and the modes holding a photon in each of its
# two terms, both of amplitude 0.70710678118654752.
FIXTURE_TERMS = {
    "f_gate": (("IN", "A", "D0", "D1"), [{"IN.H", "A.H"}, {"IN.H", "A.V"}]),
    "e_cnot": (("IN", "IN'", "A", "A'", "D0", "D1", "D0'", "D1'"),
               [{"IN.V", "IN'.H", "A.H", "A'.H"}, {"IN.V", "IN'.H", "A.V", "A'.V"}]),
}


@pytest.mark.parametrize("name", sorted(FIXTURE_TERMS))
def test_packaged_fixture_initial_ket_is_pinned(name):
    """The parser builds the initial ket without validating it again; the
    validating constructor accepts the same ket."""
    ports, terms = FIXTURE_TERMS[name]
    reg = Register(ports, 4)
    want = FockKet(reg, {tuple(int(str(m) in modes) for m in reg.modes): 0.70710678118654752
                         for modes in terms})
    initial = parse_circuit((CIRCUIT_DIR / f"{name}.circuit").read_text()).initial
    assert initial.register == want.register
    assert initial.terms == want.terms


# Standard output of `pgw simulate` on the packaged fixtures after the
# `circuit:` line, pinned byte for byte like the truth tables below.
SIMULATE_STDOUT = {
    "f_gate": [
        "register: IN A D0 D1 (cutoff 4)",
        "initial norm^2: 1.0000000000000002",
        "branches:",
        "outcome D0  j=0  p=0.2500000000000001",
        "  (0-1j) |IN.H=1>",
        "outcome D1  j=1  p=0.25",
        "  (0-1j) |IN.H=1>",
        "rejected: p=0.5000000000000001",
    ],
    "e_cnot": [
        "register: IN IN' A A' D0 D1 D0' D1' (cutoff 4)",
        "initial norm^2: 1.0000000000000002",
        "branches:",
        "outcome D0,D0'  j=0  p=0.0625",
        "  (0-1j) |IN.V=1 IN'.V=1>",
        "outcome D0,D1'  j=1  p=0.0625",
        "  (0-1j) |IN.V=1 IN'.V=1>",
        "outcome D1,D0'  j=0  p=0.06250000000000003",
        "  (0-1j) |IN.V=1 IN'.V=1>",
        "outcome D1,D1'  j=1  p=0.06250000000000003",
        "  (0-1j) |IN.V=1 IN'.V=1>",
        "rejected: p=0.7500000000000002",
    ],
}


@pytest.mark.parametrize("name", sorted(SIMULATE_STDOUT))
def test_simulate_stdout_is_pinned(name, capsys):
    path = CIRCUIT_DIR / f"{name}.circuit"
    assert main(["simulate", str(path)]) == 0
    want = [f"circuit: {path}"] + SIMULATE_STDOUT[name]
    assert capsys.readouterr().out == "\n".join(want) + "\n"


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
        verify.SUITES, "optical",
        lambda rng, trials: [
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


# Ordered (id, ref, want, tol) of every check in `pgw verify --suite all`, by
# --trials: a check that is dropped, renamed, reordered or given a new
# tolerance fails this test.
PINNED_CHECKS = json.loads((Path(__file__).parent / "verify_checks.json").read_text())


@pytest.mark.parametrize("trials", [100, 0])
def test_verify_checks_are_pinned(trials):
    checks = run_suite("all", DEFAULT_SEED, trials).checks
    got = [[c["id"], c["ref"], c["want"], c["tol"]] for c in checks]
    assert got == PINNED_CHECKS[str(trials)]


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


def _usage_error(argv, capsys, wanted):
    """Run argv and expect argparse's exit 2, with wanted on stderr, before any check."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"pgw verify: error: {wanted}" in captured.err


def test_negative_seed_flag_exits_2(capsys):
    _usage_error(["verify", "--seed", "-1"], capsys,
                 "argument --seed: expected a non-negative integer, got '-1'")


def test_negative_seed_env_variable_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("PGW_SEED", "-4")
    _usage_error(["verify"], capsys, "PGW_SEED: expected a non-negative integer, got '-4'")


def test_non_integer_seed_env_variable_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("PGW_SEED", "abc")
    _usage_error(["verify"], capsys, "PGW_SEED: expected a non-negative integer, got 'abc'")


def test_negative_trials_exits_2(capsys):
    _usage_error(["verify", "--trials", "-3"], capsys,
                 "argument --trials: expected a non-negative integer, got '-3'")


@pytest.mark.parametrize("argv, seed_env, wanted", [
    (["verify", "--seed", "١٢"], None, "argument --seed: expected a non-negative integer, got '١٢'"),
    (["verify", "--trials", "1_0"], None,
     "argument --trials: expected a non-negative integer, got '1_0'"),
    (["verify"], "７", "PGW_SEED: expected a non-negative integer, got '７'"),
], ids=["seed-arabic-indic", "trials-underscore", "env-fullwidth"])
def test_seed_and_trials_read_numbers_as_circuit_files_do(argv, seed_env, wanted,
                                                          monkeypatch, capsys):
    """int() alone reads these as 12, 10 and 7; circuit files reject all three."""
    if seed_env is not None:
        monkeypatch.setenv("PGW_SEED", seed_env)
    _usage_error(argv, capsys, wanted)


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


def test_overlapping_detections_with_different_labels_are_rejected(tmp_path, capsys):
    # D0's pattern fixes D0.H=1 and three empty modes; X fixes only D0.H=1,
    # so every D0 outcome would be counted again under X.
    text = (CIRCUIT_DIR / "f_gate.circuit").read_text() + "detect X 0 D0.H=1\n"
    with pytest.raises(ValueError, match="'D0' and 'X'"):
        run_circuit(parse_circuit(text))
    path = tmp_path / "overlap.circuit"
    path.write_text(text)
    assert main(["simulate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"{path}: error:")
    assert captured.out == ""


_NOT_EXCLUSIVE = re.compile(r"detections (\S+) and (\S+) are not exclusive: "
                            "they agree on every mode they both constrain")


def test_the_parse_finds_an_overlap_after_every_parse_error(tmp_path, capsys):
    """parse_circuit builds the circuit's Pipeline last, so the overlap of
    test_overlapping_detections_with_different_labels_are_rejected is a plain
    ValueError from the parse alone, printed without a position, and a
    CircuitParseError anywhere in the file comes first."""
    text = (CIRCUIT_DIR / "f_gate.circuit").read_text() + "detect X 0 D0.H=1\n"
    with pytest.raises(ValueError) as excinfo:
        parse_circuit(text)
    assert type(excinfo.value) is ValueError
    message = str(excinfo.value)
    assert _NOT_EXCLUSIVE.fullmatch(message).groups() == ("'D0'", "'X'")
    path = tmp_path / "overlap.circuit"
    path.write_text(text)
    assert main(["simulate", str(path)]) == 2
    assert capsys.readouterr() == ("", f"{path}: error: {message}\n")
    err = _parse_error(text + "correct Z pc IN\n")
    assert err.reason == "correction for unknown branch 'Z'"
    assert err.line == len(text.splitlines()) + 1


def test_patterns_that_differ_on_a_shared_mode_are_exclusive():
    text = ("pgw-circuit v1\nregister IN D\nterm 1,0 IN.H=1 D.V=1\n"
            "detect a 0 D.H=1\ndetect b 0 D.H=0 D.V=1\n")
    result = run_circuit(parse_circuit(text))
    assert [b.probability for b in result.branches] == pytest.approx([0.0, 1.0])


def test_cutoff_above_170_is_a_parse_error(tmp_path, capsys):
    text = ("pgw-circuit v1\nregister IN\ncutoff 200\nterm 1,0 IN.H=180\n"
            "element hwp IN 10\n")
    err = _parse_error(text)
    assert (err.line, err.column) == (3, 8)
    path = tmp_path / "big.circuit"
    path.write_text(text)
    assert main(["simulate", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"{path}:3:8: error:")


def test_cutoff_170_runs_at_the_factorial_limit():
    text = ("pgw-circuit v1\nregister IN\ncutoff 170\nterm 1,0 IN.H=170\n"
            "element hwp IN 10\n")
    result = run_circuit(parse_circuit(text))
    assert result.final_state.norm_squared() == pytest.approx(1.0, abs=1e-11)


def test_norm_lost_to_precision_is_an_error(tmp_path, capsys):
    """|85, 85> through a plate loses its norm to cancellation; the run
    fails instead of printing a state with norm^2 near 52."""
    text = ("pgw-circuit v1\nregister IN\ncutoff 170\nterm 1,0 IN.H=85 IN.V=85\n"
            "element hwp IN 10\n")
    with pytest.raises(ValueError, match="precision loss"):
        run_circuit(parse_circuit(text))
    path = tmp_path / "lossy.circuit"
    path.write_text(text)
    assert main(["simulate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{path}: error:")
    assert "precision loss" in captured.err


def test_amplitude_beyond_one_is_a_parse_error():
    err = _parse_error("pgw-circuit v1\nregister IN\nterm 1e300,0 IN.H=1\n")
    assert (err.line, err.column) == (3, 6)


def _pick(good, bad=()):
    """One token: a well-formed one four times in five, else a malformed one."""
    return st.sampled_from(tuple(good) * 4 + tuple(bad))


def _line(*parts):
    """Join fixed words, single drawn tokens and drawn token lists into a line."""
    def join(drawn):
        return " ".join(t for p in drawn for t in ([p] if isinstance(p, str) else p))
    return st.tuples(*(st.just(p) if isinstance(p, str) else p for p in parts)).map(join)


_PORT = _pick(("IN", "A", "D0", "D1", "IN'", "A'"), ("X.Y", "B", "a=b"))
_MODE = _pick(("IN.H", "IN.V", "A.H", "A.V", "D0.H", "D1.V"), ("IN.X", ".H", "B.H"))
_COUNT = _pick(("IN.H=1", "IN.V=1", "A.H=1", "A.V=1", "D0.H=1", "D0.H=0", "D1.V=0",
                "D1.V=1", "IN.H=2"),
               ("IN.H=-1", "IN.H=x", "D0.H", "IN.V=5", "IN.H=180", "IN.H=1_0"))
_AMP = _pick(("1,0", "0.6,0.8", "0,1", "-0.6,0.8", "0.5,-0.5"),
             ("nan,0", "1e300,0", "1e200,1e200", "1,", "x,y"))
_NUMBER = _pick(("0", "1", "4", "22.5", "45", "170"),
                ("200", "-1", "nan", "inf", "1e308", "x", "1_0"))
_LABEL = _pick(("D0", "D1", "x", "y"))
_ELEMENT = st.one_of(_line("pbs", _PORT, _PORT), _line("hwp", _PORT, _NUMBER),
                     _line("pc", _PORT), _line("swap", _MODE, _MODE))
_ANY = st.sampled_from(("register", "cutoff", "term", "element", "gate", "detect", "correct",
                        "bogus", "#", "pgw-circuit", "v1", "IN", "A.V", "IN.H=1", "1,0",
                        "4", "22.5", "pbs", "hwp", "f_gate", "e_cnot"))
_REGISTERS = ("", "register IN A D0 D1", "register IN IN' A A' D0 D1 D0' D1'")

# Each directive with arguments of the right kinds most of the time, some
# malformed, plus lines of arbitrary tokens.
_FUZZ_ARGUMENTS = {
    "register": (st.lists(_PORT, max_size=6),),
    "cutoff": (_NUMBER,),
    "term": (_AMP, st.lists(_COUNT, max_size=3)),
    "element": (_ELEMENT,),
    "gate": (st.one_of(
        _line(st.sampled_from(("f_gate", "parity_check", "d_cnot", "cnot")),
              st.permutations(("IN", "A", "D0", "D1"))),
        _line("e_cnot", st.permutations(("IN", "IN'", "A", "A'", "D0", "D1", "D0'", "D1'")))),),
    "detect": (_LABEL, _pick(("0", "1"), ("2", "x")), st.lists(_COUNT, max_size=4)),
    "correct": (_LABEL, _ELEMENT),
}
_fuzz_line = st.one_of(*(_line(name, *parts) for name, parts in _FUZZ_ARGUMENTS.items()),
                       st.lists(_ANY, max_size=6).map(" ".join))
# The same lines, some indented and some with a trailing comment.
_fuzz_raw_line = st.tuples(st.sampled_from(("", "", "  ", "\t ")), _fuzz_line,
                           st.sampled_from(("", "", " # note", "#x"))).map("".join)


@settings(max_examples=300, deadline=None)
@given(header=st.sampled_from((True, True, True, False)),
       register=st.sampled_from(_REGISTERS), lines=st.lists(_fuzz_raw_line, max_size=6))
def test_fuzzed_circuits_parse_or_fail_at_a_position(tmp_path_factory, header, register,
                                                     lines):
    """Any token lines either parse or raise CircuitParseError at column 1 or
    at the start of a token of the line it names, and simulate exits 0 or 2,
    never with a traceback. Two `detect` or `gate` outcomes that can both fire
    instead fail the Pipeline's exclusivity check, a ValueError without a
    position."""
    text = "\n".join(([HEADER] if header else []) + [register] + lines) + "\n"
    try:
        parse_circuit(text)
    except CircuitParseError as e:
        file_lines = text.splitlines()
        assert 1 <= e.line <= len(file_lines) + 1
        code = file_lines[e.line - 1].partition("#")[0] if e.line <= len(file_lines) else ""
        assert e.column in {1} | {m.start() + 1 for m in re.finditer(r"\S+", code)}
    except ValueError as e:
        assert type(e) is ValueError and _NOT_EXCLUSIVE.fullmatch(str(e)), e
    path = tmp_path_factory.getbasetemp() / "fuzzed.circuit"
    path.write_text(text)
    assert main(["simulate", str(path)]) in (0, 2)


def test_grammar_docs_and_fuzz_lines_name_the_directive_table():
    """The grammar in the module docstring, the README's circuit-format
    example and the fuzzed lines each name exactly the keys of DIRECTIVES."""
    doc = workbench_cli.__doc__
    grammar = doc[doc.index("Circuit file format"):doc.index("A `#` starts a comment")]
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    example = readme[readme.index("Circuit files are line-oriented"):].split("```\n", 2)[1]
    assert set(re.findall(r"^    (\S+) ", grammar, re.M)) == set(DIRECTIVES)
    assert {line.split()[0] for line in example.splitlines()[1:]
            if not line.startswith("#")} == set(DIRECTIVES)
    assert set(_FUZZ_ARGUMENTS) == set(DIRECTIVES)


@pytest.mark.parametrize("argv", [["verify", "--cutoff", "3"],
                                  ["truth-table", "e_cnot", "--cutoff", "2"]])
def test_cutoff_flags_are_gone(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


def test_destructive_cnot_exact_checks_run_without_trials(capsys):
    assert main(["verify", "--suite", "optical", "--trials", "0"]) == 0
    out = capsys.readouterr().out
    for check_id in ("dcnot-kraus-phase", "dcnot-kraus-complete"):
        assert f"[PASS] {check_id} |" in out


def test_destructive_cnot_exact_checks_catch_a_wrong_gate(monkeypatch):
    assert optical_gates.destructive_cnot is destructive_cnot
    monkeypatch.setattr(optical_gates, "destructive_cnot", f_gate)
    records = {c["id"]: c for c in run_suite("optical", seed=1, trials=0).checks}
    assert records["dcnot-kraus-phase"]["status"] == "fail"
    assert records["dcnot-kraus-complete"]["status"] == "fail"


# Standard output of `pgw truth-table` for every gate, pinned byte for byte:
# the library gates must keep their phases, branch order and formatting.
TRUTH_TABLE_STDOUT = {
    'f_gate': [
        'truth-table: f_gate',
        '# balanced auxiliary photon on A',
        '  |IN.H=1>  p=0.5  ->  (0-1j) |IN.H=1>',
        '  |IN.V=1>  p=0.5  ->  (0-1j) |IN.V=1>',
    ],
    'parity_check': [
        'truth-table: parity_check',
        '# auxiliary photon fixed to H',
        '  |IN.H=1>  p=1  ->  (0-1j) |IN.H=1>',
        '  |IN.V=1>  p=0  ->  (blocked)',
    ],
    'd_cnot': [
        'truth-table: d_cnot',
        '# control photon on A (consumed), target on IN',
        '  |A.H=1 IN.H=1>  p=0.5  ->  (1+0j) |IN.H=1>',
        '  |A.H=1 IN.V=1>  p=0.5  ->  (1+0j) |IN.V=1>',
        '  |A.V=1 IN.H=1>  p=0.5  ->  (1+0j) |IN.V=1>',
        '  |A.V=1 IN.V=1>  p=0.5  ->  (1+0j) |IN.H=1>',
    ],
    'e_cnot': [
        'truth-table: e_cnot',
        "# control on IN, target on IN'",
        "  |IN.H=1 IN'.H=1>  p=0.25  ->  (0-1j) |IN.H=1 IN'.H=1>",
        "  |IN.H=1 IN'.V=1>  p=0.25  ->  (0-1j) |IN.H=1 IN'.V=1>",
        "  |IN.V=1 IN'.H=1>  p=0.25  ->  (0-1j) |IN.V=1 IN'.V=1>",
        "  |IN.V=1 IN'.V=1>  p=0.25  ->  (0-1j) |IN.V=1 IN'.H=1>",
    ],
    'telegate_t': [
        'truth-table: telegate_t',
        '# variant swap, auxiliary pair in the plus Bell state',
        '  |0>  p=0.5  ->  (1+0j) |0>',
        '  |1>  p=0.5  ->  (1+0j) |1>',
    ],
    'telegate_tp': [
        'truth-table: telegate_tp',
        '# variant parity_filter, auxiliary pair in the plus Bell state',
        '  |0>  p=0.5  ->  (1+0j) |0>',
        '  |1>  p=0.5  ->  (1+0j) |1>',
    ],
    'cz2t': [
        'truth-table: cz2t',
        '# controlled phase from two telegates',
        '  |00>  p=0.25  ->  (1+0j) |00>',
        '  |01>  p=0.25  ->  (1+0j) |01>',
        '  |10>  p=0.25  ->  (1+0j) |10>',
        '  |11>  p=0.25  ->  (-1+0j) |11>',
    ],
    'cnot_cz': [
        'truth-table: cnot_cz',
        '# CNOT from the telegate controlled phase',
        '  |00>  p=0.25  ->  (1+0j) |00>',
        '  |01>  p=0.25  ->  (1+0j) |01>',
        '  |10>  p=0.25  ->  (1+0j) |11>',
        '  |11>  p=0.25  ->  (1+0j) |10>',
    ],
}


@pytest.mark.parametrize("gate", sorted(TRUTH_TABLE_STDOUT))
def test_truth_table_stdout_is_pinned(gate, capsys):
    assert main(["truth-table", gate]) == 0
    assert capsys.readouterr().out == "\n".join(TRUTH_TABLE_STDOUT[gate]) + "\n"


def test_python_dash_m_pgw_runs_cleanly():
    # `python -m pgw` goes through pgw/__main__.py; running the CLI module
    # itself would execute it twice and warn on stderr.
    src = str(Path(pgw.__file__).parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "pgw", "truth-table", "f_gate"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == "\n".join(TRUTH_TABLE_STDOUT["f_gate"]) + "\n"


def test_simulate_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.circuit"
    path.write_bytes(b"pgw-circuit v1\nregister IN A D0 D1\nterm 1,0 IN.H=1 # caf\xe9\n"
                     b"gate f_gate IN A D0 D1\n")
    assert main(["simulate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{path}:3:22: error:")


def test_term_above_the_cutoff_is_a_parse_error():
    """Checked after every line, since cutoff may follow the terms; a zero
    amplitude does not hide the term. The error points at its first count."""
    for body in ("term 1,0 IN.H=9\ncutoff 4\n", "term 0,0 A.H=1 IN.V=4\n"):
        err = _parse_error("pgw-circuit v1\nregister IN A\n" + body)
        assert (err.line, err.column) == (3, 10)


def test_initial_norm_above_one_is_a_parse_error(tmp_path, capsys):
    """The bound of FockKet, 1 + NORM_SLACK, on the initial state with
    repeated occupations summed as run_circuit sums them. The error points
    at the amplitude of the last term line."""
    head = "pgw-circuit v1\nregister IN A\n"
    body = "term 0.8,0 IN.H=1\nterm 0.8,0 A.H=1\n"
    err = _parse_error(head + body)
    assert (err.line, err.column) == (4, 6)
    assert err.reason == "initial state has squared norm 1.2800000000000002, more than 1"
    # One occupation written twice, once with an explicit zero count, adds up.
    err = _parse_error(head + "term 0.6,0 IN.H=1\nterm 0.6,0 IN.H=1 A.V=0\n# done\n")
    assert (err.line, err.column) == (4, 6)
    # Cancelling repeats bring the norm back down, and a norm of one passes.
    cf = parse_circuit(head + "term 0.8,0 IN.H=1\nterm 0.6,0 A.H=1\nterm -0.6,0 A.H=1\n")
    assert run_circuit(cf).initial_norm_squared == pytest.approx(0.64, abs=1e-15)
    parse_circuit(head + "term 0.6,0 IN.H=1\nterm 0.8,0 A.H=1\n")
    path = tmp_path / "over.circuit"
    path.write_text(head + body)
    assert main(["simulate", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"{path}:4:6: error: initial state has")


def test_readme_circuit_example_runs(tmp_path, capsys):
    """The circuit-format example in README.md, comments included, runs."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    after = readme[readme.index("Circuit files are line-oriented"):]
    block = after.split("```\n", 2)[1]
    assert block.startswith("pgw-circuit v1\n") and " # " in block
    path = tmp_path / "readme.circuit"
    path.write_text(block)
    assert main(["simulate", str(path)]) == 0
    assert "outcome none  j=0" in capsys.readouterr().out


def test_a_comment_may_follow_any_directive_without_moving_columns():
    cf = parse_circuit("pgw-circuit v1 # format\nregister IN #A\nterm 1,0 IN.H=1#x\n")
    assert cf.labels == ("IN",)
    assert cf.initial.terms == {(1, 0): 1 + 0j}
    err = _parse_error("pgw-circuit v1\nregister IN\n  term 1,0 IN.V=x # note\n")
    assert (err.line, err.column) == (3, 12)


# One element line per kind, the ElementSpec fields it must parse to (args,
# angle), and the constructor it must build through.
_ELEMENT_LINES = {
    "pbs": ("pbs A B", (("A", "B"), 0.0), lambda reg: pbs(reg, "A", "B")),
    "hwp": ("hwp B 22.5", (("B",), 22.5), lambda reg: hwp(reg, "B", 22.5)),
    "pc": ("pc A", (("A",), 0.0), lambda reg: pockels_z(reg, "A")),
    "swap": ("swap A.H B.V", ((ModeId("A", H), ModeId("B", V)), 0.0),
             lambda reg: mode_swap(reg, ModeId("A", H), ModeId("B", V))),
}


@pytest.mark.parametrize("kind", list(ELEMENTS))
def test_element_table_drives_parser_spec_and_build(kind):
    """Each kind's line parses to the spec built directly, the spec builds
    the constructor's transform, and one argument too few or too many fails
    at the kind's column."""
    line, fields, construct = _ELEMENT_LINES[kind]
    spec = ElementSpec(kind, *fields)
    head = "pgw-circuit v1\nregister A B\n"
    assert parse_circuit(head + f"element {line}\n").pipeline.elements == (spec,)
    reg = Register(("A", "B"))
    built, direct = spec.build(reg), construct(reg)
    assert built.touched == direct.touched
    assert np.array_equal(built.block, direct.block)
    tokens = line.split()
    for wrong in (tokens[:-1], tokens + ["A"]):
        err = _parse_error(head + "  element " + " ".join(wrong) + "\n")
        assert (err.line, err.column) == (3, 11)
        assert err.reason.startswith(f"element {kind} takes ")
