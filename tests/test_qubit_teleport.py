"""Unit tests for the qubit teleportation layer.

Frozen branch values come from expanding the partial Bell projection by
hand: a telegate branch with the plus auxiliary is exactly half the input
state on both outcomes after correction, the minus auxiliary inserts one
phase flip, and the two-telegate controlled phase leaves every accepted
branch at exactly one quarter of the controlled-phase image.
"""

import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from pgw.qubit_teleport import (
    CNOT_MATRIX,
    CZ_MATRIX,
    PAULI_Z,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    QubitState,
    apply_matrix,
    bell_state,
    cnot_via_cz,
    cz_aux_state,
    cz_via_two_telegates,
    overlap_q,
    parity_filter,
    pbm,
    qubit_fidelity,
    random_amplitudes,
    reorder,
    telegate_t,
    tensor_qubits,
    z_correction,
)


def test_bell_states_are_orthonormal():
    bells = [bell_state(label) for label in (PSI_PLUS, PSI_MINUS, PHI_PLUS, PHI_MINUS)]
    gram = np.array([[overlap_q(x, y) for y in bells] for x in bells])
    assert np.abs(gram - np.eye(4)).max() < 1e-14


def test_a_bell_state_is_its_name():
    for name in ("Psi", "psi+", "Phi+-", ""):
        with pytest.raises(ValueError, match="not a Bell state"):
            bell_state(name)
    for name in (["Psi+"], {"Phi-": 1}):  # unhashable names fail as names, not as dict keys
        with pytest.raises(ValueError, match=re.escape(f"not a Bell state: {name!r}")):
            bell_state(name)
    assert (PSI_PLUS, PSI_MINUS, PHI_PLUS, PHI_MINUS) == ("Psi+", "Psi-", "Phi+", "Phi-")
    amps = bell_state("Phi-", ("A", "B")).amplitudes
    assert np.array_equal(amps, np.array([1, 0, 0, -1]) / np.sqrt(2.0))


def test_qubit_state_validation():
    with pytest.raises(ValueError):
        QubitState(("Q", "Q"), np.zeros(4))
    with pytest.raises(ValueError):
        QubitState(("Q",), np.zeros(3))
    with pytest.raises(ValueError):
        QubitState(("Q",), (1.0, 1.0))
    too_many = tuple(f"Q{i}" for i in range(7))
    with pytest.raises(ValueError):
        QubitState(too_many, np.zeros(128))


def test_apply_matrix_targets_the_named_qubits():
    state = QubitState(("Q1", "Q2"), (0.0, 0.0, 1.0, 0.0))
    out = apply_matrix(state, CNOT_MATRIX, ("Q1", "Q2"))
    assert out.amplitudes[0b11] == pytest.approx(1.0)
    swapped = apply_matrix(state, CNOT_MATRIX, ("Q2", "Q1"))
    assert swapped.amplitudes[0b10] == pytest.approx(1.0)


def test_reorder_permutes_amplitudes():
    state = QubitState(("Q1", "Q2"), (0.1, 0.2, 0.3, 0.4))
    flipped = reorder(state, ("Q2", "Q1"))
    assert flipped.labels == ("Q2", "Q1")
    assert flipped.amplitudes[0b01] == pytest.approx(0.3)
    assert flipped.amplitudes[0b10] == pytest.approx(0.2)


def test_pbm_resolves_odd_bells_and_rejects_even():
    for label, j_want in ((PSI_PLUS, 0), (PSI_MINUS, 1)):
        result = pbm(bell_state(label, ("B1", "B2")), ("B1", "B2"))
        assert result.accepted_branches[j_want].probability == pytest.approx(1.0, abs=1e-12)
        assert result.accepted_branches[1 - j_want].probability == pytest.approx(0.0, abs=1e-12)
        assert result.success_probability == pytest.approx(1.0, abs=1e-12)
    for label in (PHI_PLUS, PHI_MINUS):
        result = pbm(bell_state(label, ("B1", "B2")), ("B1", "B2"))
        assert result.success_probability == pytest.approx(0.0, abs=1e-12)


def test_pbm_outcomes_complete_on_random_states():
    """Psi+ and Psi- from pbm, and Phi+ and Phi- contracted in numpy, sum to
    the norm: a lost or mis-weighted branch shows."""
    rng = random.Random(21)
    for _ in range(25):
        state = QubitState(("Q", "B1", "B2"), random_amplitudes(rng, 8))
        result = pbm(state, ("B1", "B2"))
        phis = [reference.pair_weight(state.amplitudes, (1, 2), bell_state(label).amplitudes)
                for label in (PHI_PLUS, PHI_MINUS)]
        total = result.success_probability + sum(phis)
        assert total == pytest.approx(state.norm_squared(), abs=1e-12)


def test_parity_filter_is_the_even_projector():
    for index, kept in ((0b00, 1.0), (0b01, 0.0), (0b10, 0.0), (0b11, 1.0)):
        amps = np.zeros(4)
        amps[index] = 1.0
        out = parity_filter(QubitState(("Q1", "Q2"), amps), ("Q1", "Q2"))
        assert out.norm_squared() == pytest.approx(kept, abs=1e-14)


def test_z_correction_validates_index():
    state = QubitState(("Q",), (0.6, 0.8))
    assert z_correction(state, "Q", 0) is state
    flipped = z_correction(state, "Q", 1)
    assert flipped.amplitudes[1] == pytest.approx(-0.8)
    with pytest.raises(ValueError):
        z_correction(state, "Q", 2)


def test_telegate_branches_are_half_the_input():
    phi = QubitState(("Q",), (0.6, 0.8j))
    result = telegate_t(phi, "Q", bell_state(PSI_PLUS, ("A1", "A2")))
    assert result.success_probability == pytest.approx(0.5, abs=1e-12)
    for branch, j_want in zip(result.accepted_branches, (0, 1)):
        assert branch.j == j_want
        assert np.abs(np.subtract(branch.conditional_state.amplitudes,
                                  0.5 * np.asarray(phi.amplitudes))).max() < 1e-12


def test_telegate_minus_aux_inserts_phase_flip():
    phi = QubitState(("Q",), (0.6, 0.8j))
    want = 0.5 * np.asarray(apply_matrix(phi, PAULI_Z, ("Q",)).amplitudes)
    result = telegate_t(phi, "Q", bell_state(PSI_MINUS, ("A1", "A2")))
    for branch in result.accepted_branches:
        assert np.abs(branch.conditional_state.amplitudes - want).max() < 1e-12


def test_telegate_variants_agree_branch_by_branch():
    rng = random.Random(31)
    for _ in range(20):
        phi = QubitState(("Q",), random_amplitudes(rng, 2))
        for label in (PSI_PLUS, PSI_MINUS):
            aux = bell_state(label, ("A1", "A2"))
            swap = telegate_t(phi, "Q", aux, variant="swap")
            filt = telegate_t(phi, "Q", aux, variant="parity_filter")
            for b1, b2 in zip(swap.accepted_branches, filt.accepted_branches):
                assert b1.j == b2.j
                assert np.abs(np.subtract(b1.conditional_state.amplitudes,
                                          b2.conditional_state.amplitudes)).max() < 1e-12


def test_telegate_validates_aux_and_variant():
    phi = QubitState(("Q",), (1.0, 0.0))
    with pytest.raises(ValueError):
        telegate_t(phi, "Q", QubitState(("A1",), (1.0, 0.0)))
    with pytest.raises(ValueError):
        telegate_t(phi, "Q", bell_state(PSI_PLUS, ("A1", "A2")), variant="bogus")


def test_cz_aux_state_amplitudes():
    chi = cz_aux_state()
    want = np.zeros(16)
    want[0b0101] = 0.5
    want[0b0110] = 0.5
    want[0b1001] = 0.5
    want[0b1010] = -0.5
    assert np.abs(chi.amplitudes - want).max() == 0.0


def test_cz_aux_is_signed_bell_combination():
    combo = np.zeros(16, dtype=complex)
    for sign1, label1 in ((1, PSI_PLUS), (-1, PSI_MINUS)):
        for sign2, label2 in ((1, PSI_PLUS), (-1, PSI_MINUS)):
            coeff = 0.5 * (-1.0 if sign1 == sign2 == -1 else 1.0)
            product = tensor_qubits(bell_state(label1, ("A1", "A2")),
                                    bell_state(label2, ("A1'", "A2'")))
            combo += coeff * np.asarray(product.amplitudes)
    assert np.abs(combo - cz_aux_state().amplitudes).max() < 1e-14


def test_cz_matrix_identity():
    eye2 = np.eye(2)
    decomposed = 0.5 * (np.eye(4) + np.kron(PAULI_Z, eye2) + np.kron(eye2, PAULI_Z)
                        - np.kron(PAULI_Z, PAULI_Z))
    assert np.abs(decomposed - CZ_MATRIX).max() == 0.0


def test_cz_via_two_telegates_branches_are_quarter_images():
    for index in range(4):
        amps = np.zeros(4)
        amps[index] = 1.0
        psi = QubitState(("Q1", "Q2"), amps)
        result = cz_via_two_telegates(psi)
        assert result.success_probability == pytest.approx(0.25, abs=1e-12)
        assert len(result.accepted_branches) == 4
        want = 0.25 * (np.asarray(CZ_MATRIX) @ amps)
        for branch in result.accepted_branches:
            assert np.abs(branch.conditional_state.amplitudes - want).max() < 1e-12


def test_cz_branch_labels_pair_both_stages():
    result = cz_via_two_telegates(QubitState(("Q1", "Q2"), (1.0, 0.0, 0.0, 0.0)))
    assert [b.outcome_label for b in result.accepted_branches] == [
        "Psi+,Psi+", "Psi+,Psi-", "Psi-,Psi+", "Psi-,Psi-"]


def test_cnot_via_cz_on_random_states():
    rng = random.Random(41)
    for _ in range(20):
        psi = QubitState(("Q1", "Q2"), random_amplitudes(rng, 4))
        result = cnot_via_cz(psi)
        want = QubitState(("Q1", "Q2"), np.asarray(CNOT_MATRIX) @ psi.amplitudes)
        assert result.success_probability == pytest.approx(0.25, abs=1e-10)
        for branch in result.accepted_branches:
            assert branch.probability == pytest.approx(1.0 / 16.0, abs=1e-10)
            assert qubit_fidelity(branch.conditional_state, want) > 1.0 - 1e-11


def test_norm_preserved_by_random_unitaries():
    rng, np_rng = random.Random(51), np.random.default_rng(51)
    for _ in range(20):
        state = QubitState(("Q1", "Q2", "Q3"), random_amplitudes(rng, 8))
        u = reference.haar_unitary(np_rng, 4)
        out = apply_matrix(state, u, ("Q2", "Q3"))
        assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)


# Constructor arguments that used to give a silent wrong answer or a
# TypeError: each must raise ValueError naming the argument.
_MALFORMED_STATES = {
    "bare string labels": ("Q1", (1, 0, 0, 0), "labels"),  # not qubits 'Q' and '1'
    "int label": ((1,), (1, 0), "labels"),
    "None label": (("Q", None), (1, 0, 0, 0), "labels"),
    "None labels": (None, (1,), "labels"),
    "None amplitudes": (("Q",), None, "amplitudes"),
    "dict amplitudes": (("Q",), {1: 2}, "amplitudes"),  # a mapping is not a sequence
    "string amplitudes": (("Q",), "10", "amplitudes"),  # complex() would read each character
    "string amplitude": (("Q",), ["1", 0], "amplitudes"),
    "nested amplitudes": (("Q",), [[1], [0]], "amplitudes"),
    "matrix amplitudes": (("Q",), np.eye(2), "amplitudes"),
}


@pytest.mark.parametrize("labels, amplitudes, argument", _MALFORMED_STATES.values(),
                         ids=_MALFORMED_STATES)
def test_qubit_state_rejects_a_malformed_argument(labels, amplitudes, argument):
    with pytest.raises(ValueError, match=f"^{argument} must be"):
        QubitState(labels, amplitudes)


_SCALARS = st.one_of(
    st.integers(-2, 2), st.booleans(), st.floats(-1.5, 1.5),
    st.floats(allow_nan=True, allow_infinity=True), st.complex_numbers(max_magnitude=1.0),
    st.text(max_size=2), st.none(),
    st.sampled_from([np.float64(0.5), np.int64(1), np.complex128(0.5j), np.str_("Q")]))
_MIXED = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=4),
                   st.lists(_SCALARS, max_size=4).map(tuple),
                   st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=4).map(np.array),
                   st.lists(st.text(max_size=2), max_size=2).map(tuple))


@settings(max_examples=300, deadline=None)
@given(labels=_MIXED, amplitudes=_MIXED)
def test_qubit_state_constructs_or_raises_value_error(labels, amplitudes):
    try:
        state = QubitState(labels, amplitudes)
    except ValueError:
        return
    assert all(isinstance(label, str) for label in state.labels)
    assert all(type(amp) is complex for amp in state.amplitudes)
    assert QubitState(state.labels, state.amplitudes) == state


# The plain-Python kernels against numpy on every target placement.
def _numpy_apply(amps, matrix, axes, n):
    k = len(axes)
    op = np.asarray(matrix, dtype=complex).reshape((2,) * (2 * k))
    moved = np.tensordot(op, np.asarray(amps).reshape((2,) * n), axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(moved, list(range(k)), axes).reshape(-1)


def _states(seed):
    """A random state on 1 to 6 qubits each, with its numpy generator."""
    rng = np.random.default_rng(seed)
    return rng, [QubitState(tuple(f"Q{i}" for i in range(n)),
                            reference.random_amplitudes(rng, 2 ** n)) for n in range(1, 7)]


def test_apply_matrix_agrees_with_tensordot():
    rng, states = _states(71)
    for state in states:
        n = state.n_qubits
        for axes in [(a,) for a in range(n)] + list(itertools.permutations(range(n), 2)):
            k = len(axes)
            for matrix in (reference.haar_unitary(rng, 2 ** k),
                           CNOT_MATRIX if k == 2 else PAULI_Z):
                got = apply_matrix(state, matrix, [state.labels[a] for a in axes])
                want = _numpy_apply(state.amplitudes, matrix, list(axes), n)
                assert np.abs(np.subtract(got.amplitudes, want)).max() <= 1e-15


def test_reorder_and_tensor_agree_with_transpose_and_kron():
    rng, states = _states(72)
    for state in states:
        n = state.n_qubits
        perm = list(rng.permutation(n))
        got = reorder(state, [state.labels[a] for a in perm])
        want = np.transpose(np.reshape(state.amplitudes, (2,) * n), perm).reshape(-1)
        assert np.array_equal(got.amplitudes, want)
    for a, b in itertools.product(states, repeat=2):
        if a.n_qubits + b.n_qubits > 6:
            continue
        b = QubitState(tuple(f"R{i}" for i in range(b.n_qubits)), b.amplitudes)
        got = tensor_qubits(a, b).amplitudes
        assert np.abs(np.subtract(got, np.kron(a.amplitudes, b.amplitudes))).max() <= 1e-15


def test_pbm_agrees_with_the_numpy_contraction():
    _, states = _states(73)
    for state in states[1:]:
        n = state.n_qubits
        for i, k in itertools.permutations(range(n), 2):
            result = pbm(state, (state.labels[i], state.labels[k]))
            for branch in result.accepted_branches:
                bra = np.conj(bell_state(branch.outcome_label).amplitudes).reshape(2, 2)
                want = np.tensordot(bra, np.reshape(state.amplitudes, (2,) * n),
                                    axes=([0, 1], [i, k])).reshape(-1)
                got = branch.conditional_state
                assert got.labels == tuple(lab for j, lab in enumerate(state.labels)
                                           if j not in (i, k))
                assert np.abs(np.subtract(got.amplitudes, want)).max() <= 1e-15


def _plus(*labels):
    """The uniform superposition on the named qubits."""
    return QubitState(labels, [2 ** (-len(labels) / 2)] * 2 ** len(labels))


@pytest.mark.parametrize("call, message", [
    (lambda: _plus("Q1").axis_of("Q2"), "qubit 'Q2' not in ('Q1',)"),
    (lambda: tensor_qubits(_plus("Q1"), _plus("Q1")), "qubit registers overlap"),
    (lambda: apply_matrix(_plus("Q1", "Q2"), CZ_MATRIX, ("Q1", "Q1")),
     "targets ('Q1', 'Q1') name a qubit twice"),
    (lambda: apply_matrix(_plus("Q1", "Q2"), PAULI_Z, ("Q1", "Q2")),
     "matrix is not 4 x 4, one per target pattern"),
    (lambda: reorder(_plus("Q1", "Q2"), ("Q1", "Q3")),
     "cannot reorder ('Q1', 'Q2') as ('Q1', 'Q3')"),
    (lambda: qubit_fidelity(_plus("Q1"), QubitState(("Q1",), [0, 0])),
     "fidelity is undefined for the zero state"),
    (lambda: cz_via_two_telegates(_plus("Q1")), "input must be a two-qubit state"),
    (lambda: cz_via_two_telegates(_plus("Q1", "Q2"), _plus("A1", "A2")),
     "auxiliary must be a four-qubit state"),
    (lambda: cnot_via_cz(_plus("Q1", "Q2", "Q3")), "input must be a two-qubit state"),
], ids=["axis-of-a-missing-qubit", "tensor-overlapping-labels", "target-named-twice",
        "matrix-of-the-wrong-size", "reorder-to-other-labels", "fidelity-of-zero",
        "cz-one-qubit-input", "cz-two-qubit-auxiliary", "cnot-three-qubit-input"])
def test_a_malformed_qubit_operation_names_what_is_wrong(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
