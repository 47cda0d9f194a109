"""Compiled branch operators against direct gate calls.

compile_branches runs a gate once per basis input and stacks each
accepted branch as a column of K_b. The randomized verify checks rely on
K_b @ v being exactly what a direct call of the gate on v gives, branch by
branch and label by label; these tests pin that on a fixed seed for every
gate the checks compile, and pin the label pairing of optical detector
outcomes with teleportation Bell outcomes. The gates are built here
independently of mb_bridge.GATES, and each table entry is checked against
its independent twin.
"""

import random

import numpy as np
import pytest

import reference
from pgw import mb_bridge
from pgw.fock_core import Branch, FockKet, GateResult, H, ModeId, Register, V, apply_mode_transform
from pgw.mb_bridge import (
    DETECTOR_TO_BELL,
    MATRIX_IDENTITY_TOL,
    BranchOperators,
    MBEncoding,
    _paired_deviations,
    batched_fidelity,
    check_record,
    compile_branches,
    gate_deviations,
    kraus_deviations,
    linear_map,
    mb_encode,
    min_or_nan,
    pair_branches,
    project_encodable,
    verify_ecnot_equals_tcnot,
    verify_f_equals_tprime,
)
from pgw.optical_elements import hwp, pbs
from pgw.optical_gates import destructive_cnot, e_cnot, f_gate
from pgw.qubit_teleport import (
    PSI_MINUS,
    PSI_PLUS,
    QubitState,
    bell_state,
    cnot_via_cz,
    cz_via_two_telegates,
    telegate_t,
    tensor_qubits,
)
from pgw.verify import TRUTH_TABLES

HALF = 2.0 ** -0.5
TOL = 1e-12
FILTER_PORTS = ("IN", "A", "D0", "D1")
FILTER_REGISTER = Register(("IN", "A", "D0", "D1"))
CNOT_REGISTER = Register(("IN", "IN'"))


def _ports_state(register, ports, amps):
    """One photon per listed port; amps indexed by the polarization bits
    (H = 0, V = 1), first port most significant."""
    terms = {}
    for index, amp in enumerate(amps):
        occ = [0] * register.n_modes
        for k, port in enumerate(ports):
            bit = (index >> (len(ports) - 1 - k)) & 1
            occ[register.index_of(ModeId(port, V if bit else H))] = 1
        terms[tuple(occ)] = complex(amp)
    return FockKet(register, terms)


def _random_inputs(dim, count=5, seed=2024):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _filter_gate(gate, aux):
    return lambda amps: gate(_ports_state(FILTER_REGISTER, ("IN", "A"), np.kron(amps, aux)),
                             *FILTER_PORTS)


def _qubit_gate(gate, labels, *args, **kwargs):
    return lambda amps: gate(QubitState(labels, amps), *args, **kwargs)


def _telegate(label, variant):
    return _qubit_gate(telegate_t, ("Q",), "Q", bell_state(label, ("A1", "A2")),
                       variant=variant)


def _cz_aux(label1, label2):
    return tensor_qubits(bell_state(label1, ("A1", "A2")), bell_state(label2, ("A1'", "A2'")))


ENC_IN = MBEncoding(("IN",), ())
ENC_CNOT = MBEncoding(("IN", "IN'"), ())
GATES = {
    "f_gate plus aux": (_filter_gate(f_gate, (HALF, HALF)), 2, ENC_IN),
    "f_gate minus aux": (_filter_gate(f_gate, (HALF, -HALF)), 2, ENC_IN),
    "f_gate H aux": (_filter_gate(f_gate, (1.0, 0.0)), 2, ENC_IN),
    "destructive_cnot H control": (_filter_gate(destructive_cnot, (1.0, 0.0)), 2, ENC_IN),
    "destructive_cnot V control": (_filter_gate(destructive_cnot, (0.0, 1.0)), 2, ENC_IN),
    "e_cnot": (lambda amps: e_cnot(_ports_state(CNOT_REGISTER, ("IN", "IN'"), amps)),
               4, ENC_CNOT),
    "telegate swap plus": (_telegate(PSI_PLUS, "swap"), 2, None),
    "telegate swap minus": (_telegate(PSI_MINUS, "swap"), 2, None),
    "telegate filter plus": (_telegate(PSI_PLUS, "parity_filter"), 2, None),
    "telegate filter minus": (_telegate(PSI_MINUS, "parity_filter"), 2, None),
    "cz default aux": (_qubit_gate(cz_via_two_telegates, ("Q1", "Q2")), 4, None),
    "cnot_via_cz": (_qubit_gate(cnot_via_cz, ("Q1", "Q2")), 4, None),
}
for _l1 in (PSI_PLUS, PSI_MINUS):
    for _l2 in (PSI_PLUS, PSI_MINUS):
        GATES[f"cz aux {_l1} {_l2}"] = (
            _qubit_gate(cz_via_two_telegates, ("Q1", "Q2"), _cz_aux(_l1, _l2)), 4, None)


# mb_bridge.GATES name -> the configuration above that builds the same gate.
REFERENCE_OF = {
    "f_gate": "f_gate plus aux", "f_gate minus": "f_gate minus aux",
    "parity_check": "f_gate H aux", "d_cnot H": "destructive_cnot H control",
    "d_cnot V": "destructive_cnot V control", "e_cnot": "e_cnot",
    "telegate_t": "telegate swap plus", "telegate_t minus": "telegate swap minus",
    "telegate_tp": "telegate filter plus", "telegate_tp minus": "telegate filter minus",
    "cz2t": "cz default aux", "cnot_cz": "cnot_via_cz",
}


@pytest.mark.parametrize("name", sorted(mb_bridge.GATES))
def test_each_table_configuration_equals_its_reference(name):
    """Each mb_bridge.GATES configuration compiles, label by label, to the
    branch operators of the independently built configuration above."""
    gate, dim, enc = GATES[REFERENCE_OF[name]]
    assert mb_bridge.GATES[name][2] == enc and (enc is not None or mb_bridge.GATES[name][1] == dim)
    got, want = BranchOperators()[name], compile_branches(gate, dim, enc)
    assert list(got) == list(want)
    for label, k in want.items():
        assert np.abs(np.subtract(got[label], k)).max() <= 1e-14


def test_the_table_names_every_reference_configuration_once():
    assert sorted(REFERENCE_OF) == sorted(mb_bridge.GATES)
    assert len(set(REFERENCE_OF.values())) == len(REFERENCE_OF)


@pytest.mark.parametrize("name", sorted(GATES))
def test_compiled_operators_equal_direct_gate_calls(name):
    gate, dim, enc = GATES[name]
    ops = compile_branches(gate, dim, enc)
    for v in _random_inputs(dim):
        direct = {}
        for branch in gate(v).accepted_branches:
            state = branch.conditional_state
            direct[branch.outcome_label] = (
                state.amplitudes if enc is None else mb_encode(state, enc).amplitudes)
            assert branch.probability == pytest.approx(
                np.linalg.norm(ops[branch.outcome_label] @ v) ** 2, abs=TOL)
        assert list(direct) == list(ops)
        for label, amps in direct.items():
            assert np.abs(ops[label] @ v - amps).max() <= TOL


def test_compiled_encodings_equal_direct_encodings():
    enc = MBEncoding(("IN",), ("A",))
    register = Register(("IN", "A"))
    splitter = pbs(register, "IN", "A")

    def after_pbs(amps):
        out = apply_mode_transform(_ports_state(register, ("IN", "A"), amps), splitter)
        return mb_encode(project_encodable(out, enc), enc).amplitudes

    def encoded(amps):
        return mb_encode(_ports_state(register, ("IN", "A"), amps), enc).amplitudes

    aux_register = Register(("A",))
    rotation = hwp(aux_register, "A", 22.5)

    def after_hwp(amps):
        photon = FockKet(aux_register, {(1, 0): amps[0], (0, 1): amps[1]})
        return mb_encode(apply_mode_transform(photon, rotation),
                         MBEncoding((), ("A",))).amplitudes

    for fn, dim in ((after_pbs, 4), (encoded, 4), (after_hwp, 2)):
        matrix = linear_map(fn, dim)
        for v in _random_inputs(dim):
            assert np.abs(matrix @ v - fn(v)).max() <= TOL
    isometry = np.asarray(linear_map(encoded, 4))
    assert np.abs(isometry.conj().T @ isometry - np.eye(4)).max() <= 1e-15


def test_compile_rejects_an_outcome_missing_for_some_inputs():
    def flaky(amps):
        result = cnot_via_cz(QubitState(("Q1", "Q2"), amps))
        if amps[0] == 1.0:
            return type(result)(result.accepted_branches[1:])
        return result

    with pytest.raises(ValueError):
        compile_branches(flaky, 4)


def test_compile_rejects_an_outcome_repeated_for_one_input():
    """Label X twice for the first basis input and never for the second
    occurs dim times in all, but is no one linear map K_X."""
    def doubled(amps):
        branch = Branch("X", 0, QubitState(("Q",), amps), 1.0)
        return GateResult((branch, branch) if amps[0] else ())

    with pytest.raises(ValueError, match="repeat"):
        compile_branches(doubled, 2)


@pytest.mark.parametrize("gate", sorted(TRUTH_TABLES))
def test_nonzero_branch_operators_of_a_tabulated_gate_agree_up_to_phase(gate):
    """A truth-table row prints the first nonzero branch; every other nonzero
    K_b of the gate equals a phase times the first, to the matrix-identity
    tolerance, so the choice loses nothing."""
    _, _, names = TRUTH_TABLES[gate]
    ops = BranchOperators()
    for name in names:
        live = [np.asarray(k) for k in ops[name].values() if np.any(k)]
        assert len(live) > 1
        for k in live[1:]:
            overlap = np.vdot(live[0], k)
            phase = overlap / abs(overlap)
            assert np.max(np.abs(k - phase * live[0])) <= MATRIX_IDENTITY_TOL


def test_pairing_is_by_label_not_position():
    k0, k1 = np.eye(2), np.diag([1.0, -1.0])
    optical = {"D0": k0, "D1": k1}
    teleported = {PSI_PLUS: k0, PSI_MINUS: k1}
    swapped = dict(reversed(list(teleported.items())))
    assert pair_branches(optical, teleported, DETECTOR_TO_BELL) == [(k0, k0), (k1, k1)]
    assert pair_branches(optical, swapped, DETECTOR_TO_BELL) == [(k0, k0), (k1, k1)]
    two_stage = {"D1,D0'": k1, "D0,D1'": k0}
    assert pair_branches(two_stage, {"Psi+,Psi-": k0, "Psi-,Psi+": k1},
                         DETECTOR_TO_BELL) == [(k1, k1), (k0, k0)]


@pytest.mark.parametrize("optical, teleported", [
    ({"D0": 1, "D2": 2}, {"Psi+": 1, "Psi-": 2}),     # unknown detector
    ({"D0": 1}, {"Psi+": 1, "Psi-": 2}),              # outcome missing optically
    ({"D0": 1, "D1": 2}, {"Psi+": 1}),                # outcome missing on the qubits
    ({"D0": 1, "D0'": 2}, {"Psi+": 1}),               # two outcomes on one label
    ({}, {}),                                         # nothing to compare
])
def test_unmatched_labels_do_not_pair(optical, teleported):
    assert pair_branches(optical, teleported, DETECTOR_TO_BELL) is None


def _patched_compile(monkeypatch, change):
    """Apply change to every teleported (unencoded) operator dict."""
    original = mb_bridge.compile_branches

    def patched(gate, dim, enc=None):
        ops = original(gate, dim, enc)
        return ops if enc is not None else change(ops)

    monkeypatch.setattr(mb_bridge, "compile_branches", patched)


@pytest.mark.parametrize("verify", [verify_f_equals_tprime, verify_ecnot_equals_tcnot])
def test_reversed_branch_order_still_passes(monkeypatch, verify):
    baseline = verify(BranchOperators(), random.Random(11), trials=10)
    _patched_compile(monkeypatch, lambda ops: dict(reversed(list(ops.items()))))
    records = verify(BranchOperators(), random.Random(11), trials=10)
    assert records == baseline
    assert all(r["status"] == "pass" for r in records)


@pytest.mark.parametrize("verify", [verify_f_equals_tprime, verify_ecnot_equals_tcnot])
def test_unmatched_label_fails_every_pairing_check(monkeypatch, verify):
    _patched_compile(monkeypatch, lambda ops: {
        label.replace(PSI_MINUS, "Psi?"): k for label, k in ops.items()})
    records = verify(BranchOperators(), random.Random(11), trials=10)
    assert records
    assert all(r["status"] == "fail" for r in records)


def test_kraus_deviations_detect_a_wrong_operator():
    k = np.eye(2) / 2.0
    assert kraus_deviations([[(k, 1j * k), (k, k)]], 0.5) == (0.0, 0.0)
    assert kraus_deviations([[(k, 2.0 * k), (k, k)]], 0.5) == (0.5, 0.75)
    assert all(np.isnan(kraus_deviations([None], 0.5)))


def test_zero_column_fidelity_fails_the_check():
    fid = batched_fidelity(np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones((2, 2)))
    assert fid[0] == pytest.approx(HALF)
    assert np.isnan(fid[1])
    assert check_record("x", "claim", np.min(fid), 1.0, 1.0)["status"] == "fail"


# gate_deviations on two branches K_0 = I/2 and K_1 = iI/2: each carries 1/4
# of any input, together 1/2, and each equals the identity up to a phase.
EXACT_OPS = {"D0": np.eye(2) / 2.0, "D1": 0.5j * np.eye(2)}


def test_gate_deviations_of_an_exact_claim():
    assert gate_deviations(EXACT_OPS, np.eye(2), np.eye(2), 0.5, 0.25) == (0.0, 0.0, 1.0)


def test_gate_deviations_wrong_target_lowers_the_fidelity():
    inputs = [(1.0, 0.0), (HALF, HALF)]  # two input columns
    success, weight, fid = gate_deviations(EXACT_OPS, inputs, np.array([[0, 1], [1, 0]]),
                                           0.5, 0.25)
    assert (success, weight) == pytest.approx((0.0, 0.0), abs=1e-15)
    assert fid == pytest.approx(0.0, abs=1e-15)


def test_gate_deviations_dropped_branch_moves_the_success():
    ops = {"D0": EXACT_OPS["D0"]}
    assert gate_deviations(ops, np.eye(2), np.eye(2), 0.5, 0.25) == (0.25, 0.0, 1.0)


def test_gate_deviations_zero_column_fails_the_check():
    ops = {"D0": np.diag([0.5, 0.0]), "D1": 0.5j * np.eye(2)}
    fid = gate_deviations(ops, np.eye(2), np.eye(2), 0.5, 0.25)[2]
    assert np.isnan(fid)
    assert check_record("x", "claim", fid, 1.0, 1e-10)["status"] == "fail"


# numpy transcriptions of the branch-operator checks as they were written
# with numpy arrays (inputs and outputs one column per trial), the oracle for
# the plain-Python kernels.
def _np_fidelity(states, targets):
    overlaps = np.abs(np.sum(targets.conj() * states, axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return overlaps / (np.linalg.norm(states, axis=0) * np.linalg.norm(targets, axis=0))


def _np_gate_deviations(ops, inputs, target, success, weight):
    outputs = [k @ inputs for k in ops]
    probs = [np.sum(np.abs(out) ** 2, axis=0) for out in outputs]
    wanted = target @ inputs
    return (float(np.max(np.abs(sum(probs) - success))),
            float(np.max([np.abs(p - weight) for p in probs])),
            float(np.min([_np_fidelity(out, wanted) for out in outputs])))


def _np_kraus_deviations(groups, p_success):
    phase_devs, complete_devs = [], []
    for group in groups:
        for k_opt, k_tel in group:
            overlap = np.vdot(k_tel, k_opt)
            phase_devs.append(np.max(np.abs(k_opt - overlap / abs(overlap) * k_tel)))
        for side in zip(*group):
            gram = sum(k.conj().T @ k for k in side)
            complete_devs.append(np.max(np.abs(gram - p_success * np.eye(len(gram)))))
    return float(np.max(phase_devs)), float(np.max(complete_devs))


@pytest.mark.parametrize("name", sorted(GATES))
def test_compiled_operators_are_the_stacked_basis_outputs(name):
    gate, dim, enc = GATES[name]
    ops = compile_branches(gate, dim, enc)
    columns = {}
    for basis in np.eye(dim, dtype=complex):
        for branch in gate(basis).accepted_branches:
            state = branch.conditional_state
            columns.setdefault(branch.outcome_label, []).append(
                state.amplitudes if enc is None else mb_encode(state, enc).amplitudes)
    assert list(ops) == list(columns)
    for label, cols in columns.items():
        assert np.abs(np.subtract(ops[label], np.column_stack(cols))).max() <= 1e-15


@pytest.mark.parametrize("name", sorted(GATES))
def test_deviations_agree_with_their_numpy_transcription(name):
    gate, dim, enc = GATES[name]
    ops = compile_branches(gate, dim, enc)
    np_ops = [np.asarray(k) for k in ops.values()]
    inputs = _random_inputs(dim, count=20, seed=77)
    rng = np.random.default_rng(78)
    target = reference.haar_unitary(rng, dim)
    n = len(ops)
    success, weight = rng.uniform(0.0, 1.0, size=2)
    got = gate_deviations(ops, list(inputs), target, success, weight)
    want = _np_gate_deviations(np_ops, inputs.T, target, success, weight)
    assert np.abs(np.subtract(got, want)).max() <= 1e-14
    # Per-column success and weight, as _paired_deviations passes them.
    per_column = list(rng.uniform(0.0, 1.0, size=len(inputs)))
    got = gate_deviations(ops, list(inputs), target, per_column, per_column)
    want = _np_gate_deviations(np_ops, inputs.T, target, np.array(per_column),
                               np.array(per_column))
    assert np.abs(np.subtract(got, want)).max() <= 1e-14
    # Each branch against a perturbed copy of itself and against the first branch.
    others = [k + 1e-3 * reference.haar_unitary(rng, dim) for k in np_ops]
    groups = [list(zip(np_ops, others)), [(k, np_ops[0]) for k in np_ops]]
    for group in groups:
        got = kraus_deviations([group], 1.0 / n)
        want = _np_kraus_deviations([group], 1.0 / n)
        assert np.abs(np.subtract(got, want)).max() <= 1e-14


# A zero column or a zero branch gives NaN in every reduction that meets it,
# wherever it sits; a check built on it then fails.
_QUARTER_I, _QUARTER_Z = (np.eye(2) / 2.0, np.diag([0.5, -0.5]))
_ZERO = np.zeros((2, 2))
_ZERO_CASES = {
    "column first": ([(0, 0), (1, 0), (HALF, HALF)], [_QUARTER_I, _QUARTER_Z]),
    "column middle": ([(1, 0), (0, 0), (HALF, HALF)], [_QUARTER_I, _QUARTER_Z]),
    "column last": ([(1, 0), (HALF, HALF), (0, 0)], [_QUARTER_I, _QUARTER_Z]),
    "branch first": ([(1, 0), (HALF, HALF)], [_ZERO, _QUARTER_I, _QUARTER_Z]),
    "branch last": ([(1, 0), (HALF, HALF)], [_QUARTER_I, _QUARTER_Z, _ZERO]),
}


def _fails(got, want=1.0):
    return np.isnan(got) and check_record("x", "claim", got, want, 1e-10)["status"] == "fail"


@pytest.mark.parametrize("where", _ZERO_CASES)
def test_a_zero_column_or_branch_gives_nan_wherever_it_sits(where):
    inputs, ops = _ZERO_CASES[where]
    target = np.eye(2)
    columns = np.array(inputs, dtype=complex).T
    fids = [f for k in ops for f in batched_fidelity(k @ columns, target @ columns)]
    assert _fails(min_or_nan(fids))
    assert _fails(gate_deviations(ops, inputs, target, 0.5, 0.25)[2])
    group = [(k, _QUARTER_I) for k in ops]
    assert _fails(_paired_deviations([group], inputs)[1])
    if where.startswith("branch"):  # a zero operator has no overlap with its partner
        assert _fails(kraus_deviations([group], 0.5)[0], 0.0)


@pytest.mark.parametrize("where", ["first", "last"])
def test_a_zero_operator_overlap_gives_nan_wherever_it_sits(where):
    exact = [(_QUARTER_I, 1j * _QUARTER_I), (_QUARTER_Z, _QUARTER_Z)]
    orthogonal = (_QUARTER_I, _QUARTER_Z)  # trace overlap 0: no phase relates them
    group = [orthogonal] + exact if where == "first" else exact + [orthogonal]
    assert _fails(kraus_deviations([group], 0.5)[0], 0.0)
