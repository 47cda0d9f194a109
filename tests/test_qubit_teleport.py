"""Unit tests for the qubit teleportation layer.

Frozen branch values come from expanding the partial Bell projection by
hand: a telegate branch with the plus auxiliary is exactly half the input
state on both outcomes after correction, the minus auxiliary inserts one
phase flip, and the two-telegate controlled phase leaves every accepted
branch at exactly one quarter of the controlled-phase image.
"""

import numpy as np
import pytest

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
    random_qubit_state,
    reorder,
    telegate_t,
    tensor_qubits,
    z_correction,
)


def test_bell_states_are_orthonormal():
    bells = [bell_state(label) for label in (PSI_PLUS, PSI_MINUS, PHI_PLUS, PHI_MINUS)]
    gram = np.array([[overlap_q(x, y) for y in bells] for x in bells])
    assert np.abs(gram - np.eye(4)).max() < 1e-14


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
        assert result.branches[j_want].probability == pytest.approx(1.0, abs=1e-12)
        assert result.branches[1 - j_want].probability == pytest.approx(0.0, abs=1e-12)
        assert result.rejected_probability == pytest.approx(0.0, abs=1e-12)
    for label in (PHI_PLUS, PHI_MINUS):
        result = pbm(bell_state(label, ("B1", "B2")), ("B1", "B2"))
        assert result.rejected_probability == pytest.approx(1.0, abs=1e-12)


def test_pbm_outcomes_complete_on_random_states():
    rng = np.random.default_rng(21)
    for _ in range(25):
        state = random_qubit_state(rng, ("Q", "B1", "B2"))
        result = pbm(state, ("B1", "B2"))
        total = (result.branches[0].probability + result.branches[1].probability
                 + result.rejected_probability)
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
        assert np.abs(branch.conditional_state.amplitudes
                      - 0.5 * phi.amplitudes).max() < 1e-12


def test_telegate_minus_aux_inserts_phase_flip():
    phi = QubitState(("Q",), (0.6, 0.8j))
    want = 0.5 * apply_matrix(phi, PAULI_Z, ("Q",)).amplitudes
    result = telegate_t(phi, "Q", bell_state(PSI_MINUS, ("A1", "A2")))
    for branch in result.accepted_branches:
        assert np.abs(branch.conditional_state.amplitudes - want).max() < 1e-12


def test_telegate_variants_agree_branch_by_branch():
    rng = np.random.default_rng(31)
    for _ in range(20):
        phi = random_qubit_state(rng, ("Q",))
        for label in (PSI_PLUS, PSI_MINUS):
            aux = bell_state(label, ("A1", "A2"))
            swap = telegate_t(phi, "Q", aux, variant="swap")
            filt = telegate_t(phi, "Q", aux, variant="parity_filter")
            for b1, b2 in zip(swap.accepted_branches, filt.accepted_branches):
                assert b1.j == b2.j
                assert np.abs(b1.conditional_state.amplitudes
                              - b2.conditional_state.amplitudes).max() < 1e-12


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
            combo += coeff * product.amplitudes
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
        want = 0.25 * (CZ_MATRIX @ amps)
        for branch in result.accepted_branches:
            assert np.abs(branch.conditional_state.amplitudes - want).max() < 1e-12


def test_cz_branch_labels_pair_both_stages():
    result = cz_via_two_telegates(QubitState(("Q1", "Q2"), (1.0, 0.0, 0.0, 0.0)))
    assert [b.outcome_label for b in result.accepted_branches] == [
        "Psi+,Psi+", "Psi+,Psi-", "Psi-,Psi+", "Psi-,Psi-"]


def test_cnot_via_cz_on_random_states():
    rng = np.random.default_rng(41)
    for _ in range(20):
        psi = random_qubit_state(rng, ("Q1", "Q2"))
        result = cnot_via_cz(psi)
        want = QubitState(("Q1", "Q2"), CNOT_MATRIX @ psi.amplitudes)
        assert result.success_probability == pytest.approx(0.25, abs=1e-10)
        for branch in result.accepted_branches:
            assert branch.probability == pytest.approx(1.0 / 16.0, abs=1e-10)
            assert qubit_fidelity(branch.conditional_state, want) > 1.0 - 1e-11


def test_norm_preserved_by_random_unitaries():
    rng = np.random.default_rng(51)
    for _ in range(20):
        state = random_qubit_state(rng, ("Q1", "Q2", "Q3"))
        u = reference.haar_unitary(rng, 4)
        out = apply_matrix(state, u, ("Q2", "Q3"))
        assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)
