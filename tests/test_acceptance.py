"""Acceptance checks: one test per advertised behavior of the package.

Each test prints a single [PASS]/[FAIL] line (run pytest with -s to see
them) and then asserts. The tolerances here are part of the package
contract, matching the ones documented in the README.
"""

import random

import numpy as np

import reference
from pgw.fock_core import (
    FockKet,
    H,
    ModeId,
    ModeTransform,
    Register,
    V,
    DetectionPattern,
    apply_mode_transform,
    measure_and_postselect,
)
from pgw.mb_bridge import (
    BranchOperators,
    MBEncoding,
    mb_encode,
    verify_aux_state_equivalence,
    verify_ecnot_equals_tcnot,
    verify_f_equals_tprime,
    verify_hwp_mb,
    verify_pbs_mb,
)
from pgw.optical_elements import hwp, pbs
from pgw.optical_gates import destructive_cnot, e_cnot, f_gate
from pgw.qubit_teleport import (
    CZ_MATRIX,
    PAULI_Z,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    QubitState,
    apply_matrix,
    bell_state,
    cz_via_two_telegates,
    pbm,
    telegate_t,
)

SQRT_HALF = 2.0 ** -0.5
FILTER_PORTS = ("IN", "A", "D0", "D1")


def _verdict(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d}: {description}")
    assert ok, f"criterion {number:02d}: {description}"


def _random_state(rng, labels):
    """A QubitState on labels with amplitudes drawn by the numpy oracle."""
    return QubitState(labels, reference.random_amplitudes(rng, 2 ** len(labels)))


def _pair_input(register, in_amps, aux_amps):
    """One photon on IN with in_amps, one on A with aux_amps, detectors empty."""
    terms = {}
    for pol1, a1 in ((H, in_amps[0]), (V, in_amps[1])):
        for pol2, a2 in ((H, aux_amps[0]), (V, aux_amps[1])):
            occ = [0] * register.n_modes
            occ[register.index_of(ModeId("IN", pol1))] = 1
            occ[register.index_of(ModeId("A", pol2))] = 1
            terms[tuple(occ)] = complex(a1) * complex(a2)
    return FockKet(register, terms)


def _two_photon_state(register, port1, port2, amps):
    """One photon in each port with the four (HH, HV, VH, VV) amplitudes."""
    terms = {}
    for index, (pol1, pol2) in enumerate(((H, H), (H, V), (V, H), (V, V))):
        occ = [0] * register.n_modes
        occ[register.index_of(ModeId(port1, pol1))] = 1
        occ[register.index_of(ModeId(port2, pol2))] = 1
        terms[tuple(occ)] = complex(amps[index])
    return FockKet(register, terms)


def _single_port_amplitudes(state):
    """(H, V) amplitudes of a one-photon state on a single spatial port."""
    return np.array([state.terms.get((1, 0), 0.0), state.terms.get((0, 1), 0.0)])


def test_criterion_01_cnot_truth_table():
    register = Register(("IN", "IN'"), 4)
    worst_fidelity = 1.0
    worst_success = 0.0
    for index in range(4):
        amps = np.zeros(4)
        amps[index] = 1.0
        result = e_cnot(_two_photon_state(register, "IN", "IN'", amps))
        control, target = index >> 1, index & 1
        out_index = (control << 1) | (target ^ control)
        want_amps = np.zeros(4)
        want_amps[out_index] = 1.0
        want = _two_photon_state(register, "IN", "IN'", want_amps)
        worst_success = max(worst_success,
                            abs(result.success_probability - 0.25))
        for branch in result.accepted_branches:
            fid = reference.fidelity(branch.conditional_state.terms, want.terms)
            worst_fidelity = min(worst_fidelity, fid)
    _verdict(1, "post-selected CNOT reproduces all four truth-table rows "
                "with success probability 1/4",
             worst_fidelity >= 1.0 - 1e-10 and worst_success <= 1e-10)


def test_criterion_02_filter_action_on_random_inputs():
    rng = np.random.default_rng(2)
    register = Register(("IN", "A", "D0", "D1"), 4)
    structure_dev = 0.0
    success_dev = 0.0
    neutral_fid = 1.0
    minus_fid = 1.0
    for _ in range(200):
        alpha, beta = reference.random_amplitudes(rng, 2)
        aux = reference.random_amplitudes(rng, 2)

        result = f_gate(_pair_input(register, (alpha, beta), aux), *FILTER_PORTS)
        want = -1j * SQRT_HALF * np.array([alpha * aux[0], beta * aux[1]])
        for branch in result.accepted_branches:
            got = _single_port_amplitudes(branch.conditional_state)
            structure_dev = max(structure_dev, np.abs(got - want).max())

        neutral = f_gate(_pair_input(register, (alpha, beta),
                                     (SQRT_HALF, SQRT_HALF)), *FILTER_PORTS)
        success_dev = max(success_dev, abs(neutral.success_probability - 0.5))
        input_state = QubitState(("Q",), (alpha, beta))
        for branch in neutral.accepted_branches:
            got = QubitState(("Q",), _single_port_amplitudes(
                branch.conditional_state.normalized()))
            fid = abs(np.vdot(input_state.amplitudes, got.amplitudes)) ** 2
            neutral_fid = min(neutral_fid, fid)

        minus = f_gate(_pair_input(register, (alpha, beta),
                                   (SQRT_HALF, -SQRT_HALF)), *FILTER_PORTS)
        flipped = np.array([alpha, -beta])
        for branch in minus.accepted_branches:
            got = _single_port_amplitudes(branch.conditional_state.normalized())
            fid = abs(np.vdot(flipped, got)) ** 2
            minus_fid = min(minus_fid, fid)
    _verdict(2, "the parity filter keeps the matching amplitudes, succeeds "
                "with 1/2 on a balanced auxiliary, and flips the relative "
                "phase for the anti-balanced one",
             structure_dev <= 1e-10 and success_dev <= 1e-10
             and neutral_fid >= 1.0 - 1e-10 and minus_fid >= 1.0 - 1e-10)


def test_criterion_03_destructive_cnot_lines():
    rng = np.random.default_rng(3)
    register = Register(("IN", "A", "D0", "D1"), 4)
    amp_dev = 0.0
    success_dev = 0.0
    for _ in range(100):
        gamma, delta = reference.random_amplitudes(rng, 2)
        for control_bit in (0, 1):
            aux = (1.0, 0.0) if control_bit == 0 else (0.0, 1.0)
            result = destructive_cnot(
                _pair_input(register, (gamma, delta), aux), *FILTER_PORTS)
            success_dev = max(success_dev,
                              abs(result.success_probability - 0.5))
            want = 0.5 * (np.array([gamma, delta]) if control_bit == 0
                          else np.array([delta, gamma]))
            for branch in result.accepted_branches:
                got = _single_port_amplitudes(branch.conditional_state)
                amp_dev = max(amp_dev, np.abs(got - want).max())
    _verdict(3, "the detector-driven CNOT leaves the target for an H control "
                "and exchanges its amplitudes for a V control, with success 1/2",
             amp_dev <= 1e-10 and success_dev <= 1e-10)


def test_criterion_04_half_wave_plate_matrix():
    register = Register(("P",), 2)
    matrix = np.asarray(hwp(register, "P", 22.5).matrix)
    ih = register.index_of(ModeId("P", H))
    iv = register.index_of(ModeId("P", V))
    block = matrix[np.ix_((ih, iv), (ih, iv))]
    want = -1j * SQRT_HALF * np.array([[1.0, 1.0], [1.0, -1.0]])
    dev = np.abs(block - want).max()
    _verdict(4, "the half-wave plate at 22.5 degrees equals the balanced "
                "rotation including the global -i factor", dev <= 1e-14)


def test_criterion_05_telegate_action_and_variants():
    rng = np.random.default_rng(5)
    success_dev = 0.0
    action_dev = 0.0
    variant_dev = 0.0
    for _ in range(50):
        phi = _random_state(rng, ("Q",))
        for label, z_power in ((PSI_PLUS, 0), (PSI_MINUS, 1)):
            aux = bell_state(label, ("A1", "A2"))
            want = 0.5 * np.asarray(phi.amplitudes)
            if z_power:
                want = 0.5 * np.asarray(apply_matrix(phi, PAULI_Z, ("Q",)).amplitudes)
            swap = telegate_t(phi, "Q", aux, variant="swap")
            filt = telegate_t(phi, "Q", aux, variant="parity_filter")
            for result in (swap, filt):
                success_dev = max(success_dev,
                                  abs(result.success_probability - 0.5))
                for branch in result.accepted_branches:
                    action_dev = max(action_dev, np.abs(
                        branch.conditional_state.amplitudes - want).max())
            for b1, b2 in zip(swap.accepted_branches, filt.accepted_branches):
                variant_dev = max(variant_dev, np.abs(np.subtract(
                    b1.conditional_state.amplitudes,
                    b2.conditional_state.amplitudes)).max())
    _verdict(5, "the teleportation gate halves the input (with a phase flip "
                "for the minus auxiliary) at success 1/2, identically for "
                "both constructions",
             success_dev <= 1e-11 and action_dev <= 1e-11
             and variant_dev <= 1e-12)


def test_criterion_06_controlled_phase_decomposition():
    eye2 = np.eye(2)
    decomposed = 0.5 * (np.eye(4) + np.kron(PAULI_Z, eye2)
                        + np.kron(eye2, PAULI_Z) - np.kron(PAULI_Z, PAULI_Z))
    matrix_dev = np.abs(decomposed - CZ_MATRIX).max()

    rng = np.random.default_rng(6)
    success_dev = 0.0
    worst_fid = 1.0
    for _ in range(100):
        psi = _random_state(rng, ("Q1", "Q2"))
        result = cz_via_two_telegates(psi)
        success_dev = max(success_dev, abs(result.success_probability - 0.25))
        want = np.asarray(CZ_MATRIX) @ psi.amplitudes
        want /= np.linalg.norm(want)
        for branch in result.accepted_branches:
            got = np.asarray(branch.conditional_state.amplitudes)
            got = got / np.linalg.norm(got)
            fid = abs(np.vdot(want, got)) ** 2
            worst_fid = min(worst_fid, fid)
    _verdict(6, "the controlled phase splits into the documented sum exactly "
                "and two chained telegates realize it at success 1/4",
             matrix_dev <= 1e-14 and success_dev <= 1e-10
             and worst_fid >= 1.0 - 1e-10)


def test_criterion_07_mixed_basis_dictionary():
    register = Register(("IN", "A"), 4)
    enc = MBEncoding(("IN",), ("A",))
    dict_dev = 0.0
    for pol, aux_h, aux_v, index in ((H, 1.0, 0.0, 0b001), (H, 0.0, 1.0, 0b010),
                                     (V, 1.0, 0.0, 0b101), (V, 0.0, 1.0, 0b110)):
        terms = {}
        for aux_pol, amp in ((H, aux_h), (V, aux_v)):
            occ = [0] * register.n_modes
            occ[register.index_of(ModeId("IN", pol))] = 1
            occ[register.index_of(ModeId("A", aux_pol))] = 1
            terms[tuple(occ)] = amp
        got = mb_encode(FockKet(register, terms), enc).amplitudes
        want = np.zeros(8)
        want[index] = 1.0
        dict_dev = max(dict_dev, np.abs(got - want).max())

    aux_register = Register(("A",), 4)
    aux_enc = MBEncoding((), ("A",))
    bell_dev = 0.0
    for label in (PSI_PLUS, PSI_MINUS):
        want = bell_state(label, ("AV", "AH")).amplitudes
        occ_h = [0] * aux_register.n_modes
        occ_h[aux_register.index_of(ModeId("A", H))] = 1
        occ_v = [0] * aux_register.n_modes
        occ_v[aux_register.index_of(ModeId("A", V))] = 1
        photon = FockKet(aux_register, {tuple(occ_h): want[0b01],
                                        tuple(occ_v): want[0b10]})
        got = mb_encode(photon, aux_enc).amplitudes
        bell_dev = max(bell_dev, np.abs(np.subtract(got, want)).max())

    rng = random.Random(7)
    records = verify_pbs_mb(rng, trials=100) + verify_hwp_mb(rng, trials=100)
    elements_ok = bool(records) and all(r["status"] == "pass" for r in records)
    _verdict(7, "the mixed-basis dictionary and single-photon Bell reading "
                "are exact, and the beam-splitter/wave-plate translations "
                "hold on random inputs",
             dict_dev == 0.0 and bell_dev == 0.0 and elements_ok)


def test_criterion_08_optical_teleportation_equivalence():
    rng, ops = random.Random(8), BranchOperators()
    filter_records = verify_f_equals_tprime(ops, rng, trials=100)
    aux_records = verify_aux_state_equivalence()
    cnot_records = verify_ecnot_equals_tcnot(ops, rng, trials=100)
    all_records = filter_records + aux_records + cnot_records
    ok = bool(all_records) and all(r["status"] == "pass" for r in all_records)
    _verdict(8, "encoded optical gates match their teleportation twins branch "
                "by branch: filter vs telegate, auxiliary resource, and the "
                "full CNOT end to end", ok)


def test_criterion_09_transform_agrees_with_permanent_oracle():
    rng = np.random.default_rng(9)
    register = Register(("P1", "P2", "P3"), 4)
    n_modes = register.n_modes
    unitary = reference.haar_unitary(rng, n_modes)
    basis = reference.fock_basis(n_modes, 3)
    oracle = reference.fock_matrix(unitary, basis)
    position = {occ: k for k, occ in enumerate(basis)}
    transform = ModeTransform(register, unitary)
    dev = 0.0
    for col, occ in enumerate(basis):
        out = apply_mode_transform(FockKet(register, {occ: 1.0}), transform)
        got = np.zeros(len(basis), dtype=complex)
        for out_occ, amp in out.terms.items():
            got[position[tuple(out_occ)]] = amp
        dev = max(dev, np.abs(got - oracle[:, col]).max())
    _verdict(9, "the multinomial mode transform matches the brute-force "
                "permanent oracle on every basis state of up to 3 photons "
                "in 6 modes", dev <= 1e-12)


def test_criterion_10_conservation_invariants():
    rng = np.random.default_rng(10)
    register = Register(("A", "B"), 4)
    chain_dev = 0.0
    completeness_dev = 0.0
    for _ in range(250):
        amps1 = reference.random_amplitudes(rng, 2)
        amps2 = reference.random_amplitudes(rng, 2)
        amps = np.outer(amps1, amps2).ravel()
        state = _two_photon_state(register, "A", "B", amps)
        theta1, theta2 = rng.uniform(0.0, 180.0, size=2)
        state = apply_mode_transform(state, hwp(register, "A", theta1))
        state = apply_mode_transform(state, pbs(register, "A", "B"))
        state = apply_mode_transform(state, hwp(register, "B", theta2))
        chain_dev = max(chain_dev, abs(state.norm_squared() - 1.0))
        total = 0.0
        for counts in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)):
            pattern = DetectionPattern({ModeId("A", H): counts[0],
                                        ModeId("A", V): counts[1]})
            total += measure_and_postselect(state, pattern).probability
        completeness_dev = max(completeness_dev, abs(total - 1.0))

    unitarity_dev = 0.0
    for _ in range(250):
        matrix = np.asarray(hwp(register, "A", rng.uniform(0.0, 360.0)).matrix)
        unitarity_dev = max(unitarity_dev, np.abs(
            matrix.conj().T @ matrix - np.eye(register.n_modes)).max())

    qubit_norm_dev = 0.0
    for _ in range(250):
        state = _random_state(rng, ("Q1", "Q2", "Q3"))
        unitary = reference.haar_unitary(rng, 4)
        out = apply_matrix(state, unitary, ("Q2", "Q3"))
        qubit_norm_dev = max(qubit_norm_dev, abs(out.norm_squared() - 1.0))

    pbm_dev = 0.0
    for _ in range(250):
        state = _random_state(rng, ("Q1", "Q2", "Q3"))
        result = pbm(state, ("Q2", "Q3"))
        total = result.success_probability + sum(
            reference.pair_weight(state.amplitudes, (1, 2), bell_state(label).amplitudes)
            for label in (PHI_PLUS, PHI_MINUS))
        pbm_dev = max(pbm_dev, abs(total - state.norm_squared()))

    _verdict(10, "norms and outcome probabilities are conserved across 1000 "
                 "random trials on both the photonic and the qubit side",
             chain_dev <= 1e-11 and completeness_dev <= 1e-11
             and unitarity_dev <= 1e-12 and qubit_norm_dev <= 1e-11
             and pbm_dev <= 1e-11)
