"""Check suites and gate truth tables behind `pgw verify` and `pgw truth-table`.

run_suite runs one suite of SUITES (optical, teleport, mb), or all in
order, each with a fresh generator from the seed, and returns a Report in
the fixed text and JSON formats. TRUTH_TABLES holds one amplitude-in
builder per tabulated gate. Random element pipelines run through
optical_gates.run_pipeline, as circuits and the library gates do.

Each layer function that perfbench/tracer.py wraps is called through its
module (optical_elements.hwp, qubit_teleport.telegate_t), also where a gate
is handed to filter_gate or qubit_gate: the tracer swaps names only in the
pgw modules it lists, so a by-name import here would hide those calls.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import fock_core, mb_bridge, optical_elements, optical_gates, qubit_teleport
from .fock_core import (
    BRANCH_EQUALITY_TOL,
    HALF,
    FockKet,
    H,
    ModeId,
    Register,
    V,
    polarization_ket,
    single_photon,
)
from .mb_bridge import (
    MATRIX_IDENTITY_TOL,
    MBEncoding,
    check_record,
    compile_branches,
    gate_deviations,
    kraus_deviations,
    linear_map,
    mb_decode,
    pair_branches,
)
from .optical_elements import ElementKind, ElementSpec
from .optical_gates import ROTATION_DEG, ecnot_gate, filter_gate
from .qubit_teleport import (
    CNOT_MATRIX,
    CZ_MATRIX,
    IDENTITY_2,
    PAULI_X,
    PAULI_Z,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    QubitState,
    bell_state,
    cz_aux_state,
    overlap_q,
    parity_filter,
    qubit_gate,
    random_amplitudes,
    tensor_qubits,
)


def _suite_optical(rng: np.random.Generator, trials: int) -> list[dict]:
    checks: list[dict] = []
    reg_a = Register(("A",))

    u = optical_elements.hwp(reg_a, "A", ROTATION_DEG).matrix
    want = -1j * HALF * np.array([[1.0, 1.0], [1.0, -1.0]])
    checks.append(check_record(
        "hwp-rotation-matrix",
        "plate at 22.5 degrees equals -i times the balanced rotation block",
        np.abs(u - want).max(), 0.0, 1e-14))

    worst = 0.0
    for theta in (0.0, 10.0, ROTATION_DEG, 45.0, 67.5, 90.0):
        m = optical_elements.hwp(reg_a, "A", theta).matrix
        worst = max(worst, np.abs(m @ m + np.eye(2)).max())
    checks.append(check_record(
        "hwp-double-pass",
        "two passes through one plate give the identity up to a global sign",
        worst, 0.0, 1e-13))

    reg_abc = Register(("A", "B", "C"))
    constructed = (optical_elements.pbs(reg_abc, "A", "B"),
                   optical_elements.hwp(reg_abc, "B", 33.0),
                   optical_elements.pockels_z(reg_abc, "C"),
                   optical_elements.mode_swap(reg_abc, ModeId("A", H), ModeId("B", H)))
    worst = max(np.abs(t.matrix.conj().T @ t.matrix - np.eye(6)).max()
                for t in constructed)
    checks.append(check_record(
        "elements-unitary", "every element constructor returns a unitary mode map",
        worst, 0.0, 1e-13))

    p = optical_elements.pbs(reg_abc, "A", "B").matrix
    q = optical_elements.hwp(reg_abc, "C", 17.0).matrix
    checks.append(check_record(
        "disjoint-elements-commute", "elements acting on disjoint ports commute",
        np.abs(p @ q - q @ p).max(), 0.0, 1e-13))

    two = FockKet(reg_a, {(1, 1): 1.0})
    after = fock_core.apply_mode_transform(two, optical_elements.hwp(reg_a, "A", ROTATION_DEG))
    dev = max(abs(after.amplitude((2, 0)) + HALF),
              abs(after.amplitude((0, 2)) - HALF),
              abs(after.amplitude((1, 1))))
    checks.append(check_record(
        "hom-bunching",
        "two photons meeting in a balanced plate leave bunched in one mode",
        dev, 0.0, 1e-12))

    reg_ab = Register(("A", "B"))
    through = fock_core.apply_mode_transform(single_photon(ModeId("A", H), reg_ab),
                                             optical_elements.pbs(reg_ab, "A", "B"))
    crossed = fock_core.apply_mode_transform(single_photon(ModeId("A", V), reg_ab),
                                             optical_elements.pbs(reg_ab, "A", "B"))
    dev = max(abs(through.amplitude((1, 0, 0, 0)) - 1.0),
              abs(crossed.amplitude((0, 0, 0, 1)) - 1.0))
    checks.append(check_record(
        "pbs-routing", "H transmits in place and V crosses ports with amplitude one",
        dev, 0.0, 1e-13))

    flipped = fock_core.apply_mode_transform(single_photon(ModeId("A", V), reg_a),
                                             optical_elements.hwp(reg_a, "A", 0.0))
    checks.append(check_record(
        "hwp-zero-angle", "plate at zero angle is the phase flip times the fixed -i",
        abs(flipped.amplitude((0, 1)) - 1.0j), 0.0, 1e-14))

    reg_in = Register(("IN",))
    match = optical_gates.quantum_parity_check(single_photon(ModeId("IN", H), reg_in), H)
    block = optical_gates.quantum_parity_check(single_photon(ModeId("IN", V), reg_in), H)
    checks.append(check_record(
        "parity-check-passes-match", "matched auxiliary passes the input outright",
        match.success_probability, 1.0, 1e-12))
    checks.append(check_record(
        "parity-check-blocks-mismatch", "mismatched auxiliary removes the input",
        block.success_probability, 0.0, 1e-12))

    # Each gate is compiled once to its branch operators; the table checks
    # apply them to the basis inputs, the randomized checks to the trials.
    ec_ops = compile_branches(ecnot_gate, 4, MBEncoding(("IN", "IN'"), ()))
    table_success, _, table_fid = gate_deviations(ec_ops, np.eye(4), CNOT_MATRIX, 0.25,
                                                  1.0 / 16.0)
    checks.append(check_record(
        "ecnot-truth-table-outputs",
        "control V flips the target and control H leaves it alone",
        table_fid, 1.0, 1e-10))
    checks.append(check_record(
        "ecnot-truth-table-success", "every basis input succeeds with probability 1/4",
        table_success, 0.0, 1e-10))

    def filter_ops(gate, aux) -> dict[str, np.ndarray]:
        return compile_branches(filter_gate(gate, aux), 2, MBEncoding(("IN",), ()))

    # The destructive CNOT's branch operators are 1/2 times I (control H) or
    # X (control V), up to a phase, so it is checked exactly on the whole
    # input space.
    dc_ops = [(filter_ops(optical_gates.destructive_cnot, control), line)
              for control, line in (((1.0, 0.0), IDENTITY_2), ((0.0, 1.0), PAULI_X))]
    phase_dev, complete_dev = kraus_deviations(
        [[(k, 0.5 * line) for k in ops.values()] for ops, line in dc_ops], 0.5)
    checks.append(check_record(
        "dcnot-kraus-phase", "each destructive CNOT branch operator is a phase times "
        "I/2 for control H and X/2 for control V", phase_dev, 0.0, MATRIX_IDENTITY_TOL))
    checks.append(check_record(
        "dcnot-kraus-complete", "for either control the destructive CNOT branch operators "
        "satisfy sum K^dagger K = I/2", complete_dev, 0.0, MATRIX_IDENTITY_TOL))

    if trials <= 0:
        return checks

    # Draw every trial input in the per-trial order, then check each gate on
    # all of them at once through its compiled branch operators.
    draws = [(random_amplitudes(rng, 2), random_amplitudes(rng, 2), random_amplitudes(rng, 4),
              random_amplitudes(rng, 4), rng.uniform(0.0, 180.0, size=2))
             for _ in range(trials)]
    ab, gd, v, w, thetas = (np.array(column).T for column in zip(*draws))

    neutral_ops = filter_ops(optical_gates.f_gate, (HALF, HALF))
    minus_ops = filter_ops(optical_gates.f_gate, (HALF, -HALF))
    neutral_success, neutral_branch, neutral_fid = gate_deviations(
        neutral_ops, ab, IDENTITY_2, 0.5, 0.25)
    _, minus_branch, minus_fid = gate_deviations(minus_ops, ab, PAULI_Z, 0.5, 0.25)
    # Every branch against the first one as the target map.
    branches_agree = all(gate_deviations(ops, ab, next(iter(ops.values())), 0.5, 0.25)[2]
                         >= 1.0 - BRANCH_EQUALITY_TOL for ops in (neutral_ops, minus_ops))
    dc = [gate_deviations(ops, gd, line, 0.5, 0.25) for ops, line in dc_ops]
    dc_success, dc_fid = np.max([d[0] for d in dc]), np.min([d[2] for d in dc])
    ec_success, ec_branch, ec_fid = gate_deviations(ec_ops, v, CNOT_MATRIX, 0.25, 1.0 / 16.0)

    # Random plate angles change the map on every trial, so these run one by one.
    port_a = [fock_core.DetectionPattern({ModeId("A", H): h, ModeId("A", V): v})
              for h, v in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2))]
    norm_dev, completeness_dev = [], []
    for amps, (theta1, theta2) in zip(w.T, thetas.T):
        elements = (ElementSpec(ElementKind.HWP, ("A",), (), theta1),
                    ElementSpec(ElementKind.PBS, ("A", "B")),
                    ElementSpec(ElementKind.HWP, ("B",), (), theta2))
        state, branches = optical_gates.run_pipeline(
            polarization_ket(reg_ab, ("A", "B"), amps), elements, port_a, {})
        norm_dev.append(abs(state.norm_squared() - 1.0))
        completeness_dev.append(abs(sum(b.probability for b in branches) - 1.0))
    norm_dev, completeness_dev = np.max(norm_dev), np.max(completeness_dev)

    checks.append(check_record(
        "filter-neutral-success",
        "the balanced-auxiliary filter succeeds with probability 1/2",
        neutral_success, 0.0, 1e-10))
    checks.append(check_record(
        "filter-branch-probability", "each accepted filter branch carries 1/4",
        max(neutral_branch, minus_branch), 0.0, 1e-10))
    checks.append(check_record(
        "filter-neutral-output",
        "with a balanced auxiliary the corrected output equals the input",
        neutral_fid, 1.0, 1e-10))
    checks.append(check_record(
        "filter-minus-aux-flips-phase",
        "with the anti-balanced auxiliary the output picks up a phase flip",
        minus_fid, 1.0, 1e-10))
    checks.append(check_record(
        "filter-branches-agree",
        "both corrected detector branches agree up to a global phase",
        1.0 if branches_agree else 0.0, 1.0, 0.0))
    checks.append(check_record(
        "dcnot-success", "the destructive CNOT succeeds with probability 1/2",
        dc_success, 0.0, 1e-10))
    checks.append(check_record(
        "dcnot-line-outputs",
        "control H leaves the target and control V exchanges its amplitudes",
        dc_fid, 1.0, 1e-10))
    checks.append(check_record(
        "ecnot-random-success", "the full CNOT succeeds with probability 1/4",
        ec_success, 0.0, 1e-10))
    checks.append(check_record(
        "ecnot-random-branch-probability", "all sixteen amplitudes land in each "
        "detector pattern with weight 1/16", ec_branch, 0.0, 1e-10))
    checks.append(check_record(
        "ecnot-random-outputs", "every corrected branch equals the CNOT image of "
        "the input", ec_fid, 1.0, 1e-10))
    checks.append(check_record(
        "pipeline-norm-preserved", "element pipelines preserve the state norm",
        norm_dev, 0.0, 1e-11))
    checks.append(check_record(
        "detection-completeness", "per-port detector outcomes sum to the state norm",
        completeness_dev, 0.0, 1e-11))
    return checks


def _suite_teleport(rng: np.random.Generator, trials: int) -> list[dict]:
    checks: list[dict] = []
    bells = [bell_state(label) for label in (PSI_PLUS, PSI_MINUS, PHI_PLUS, PHI_MINUS)]
    gram = np.array([[overlap_q(x, y) for y in bells] for x in bells])
    checks.append(check_record(
        "bell-orthonormality", "the four Bell states form an orthonormal set",
        np.abs(gram - np.eye(4)).max(), 0.0, 1e-14))

    dev = 0.0
    for label, j_want in ((PSI_PLUS, 0), (PSI_MINUS, 1)):
        state = tensor_qubits(bell_state(label, ("B1", "B2")),
                              QubitState(("Q",), (1.0, 0.0)))
        result = qubit_teleport.pbm(state, ("B1", "B2"))
        dev = max(dev, abs(result.branches[j_want].probability - 1.0),
                  result.branches[1 - j_want].probability,
                  abs(result.rejected_probability))
    checks.append(check_record(
        "pbm-resolves-odd-bells",
        "each odd-parity Bell state fires its own outcome deterministically",
        dev, 0.0, 1e-12))

    dev = 0.0
    for label in (PHI_PLUS, PHI_MINUS):
        state = tensor_qubits(bell_state(label, ("B1", "B2")),
                              QubitState(("Q",), (1.0, 0.0)))
        result = qubit_teleport.pbm(state, ("B1", "B2"))
        dev = max(dev, result.branches[0].probability, result.branches[1].probability,
                  abs(result.rejected_probability - 1.0))
    checks.append(check_record(
        "pbm-rejects-even-bells", "even-parity Bell components are rejected outright",
        dev, 0.0, 1e-12))

    eye2 = np.eye(2)
    decomposed = 0.5 * (np.eye(4) + np.kron(PAULI_Z, eye2) + np.kron(eye2, PAULI_Z)
                        - np.kron(PAULI_Z, PAULI_Z))
    checks.append(check_record(
        "cz-pauli-decomposition",
        "the controlled phase is half the signed sum of identity and Z terms",
        np.abs(decomposed - CZ_MATRIX).max(), 0.0, 1e-14))

    combo = np.zeros(16, dtype=complex)
    for sign1, label1 in ((1, PSI_PLUS), (-1, PSI_MINUS)):
        for sign2, label2 in ((1, PSI_PLUS), (-1, PSI_MINUS)):
            coeff = 0.5 * (-1.0 if sign1 == sign2 == -1 else 1.0)
            product = tensor_qubits(bell_state(label1, ("A1", "A2")),
                                    bell_state(label2, ("A1'", "A2'")))
            combo = combo + coeff * product.amplitudes
    checks.append(check_record(
        "cz-aux-bell-combination", "the controlled-phase resource is the signed half "
        "sum of odd Bell pair products",
        np.abs(combo - cz_aux_state().amplitudes).max(), 0.0, 1e-14))

    dev = 0.0
    for index, kept in ((0b00, 1.0), (0b01, 0.0), (0b10, 0.0), (0b11, 1.0)):
        amps = np.zeros(4)
        amps[index] = 1.0
        out = parity_filter(QubitState(("Q1", "Q2"), amps), ("Q1", "Q2"))
        dev = max(dev, abs(out.norm_squared() - kept))
    checks.append(check_record(
        "parity-filter-projector",
        "the pair filter keeps matched bits untouched and removes the rest",
        dev, 0.0, 1e-14))

    rejected = qubit_teleport.telegate_t(QubitState(("Q",), (0.8, 0.6)), "Q",
                                         bell_state(PHI_PLUS, ("A1", "A2")),
                                         variant="parity_filter")
    checks.append(check_record(
        "telegate-filter-rejects-even-aux",
        "the parity-filter telegate accepts nothing from an even-parity auxiliary",
        rejected.success_probability, 0.0, 1e-12))

    cn_ops = compile_branches(qubit_gate(qubit_teleport.cnot_via_cz, ("Q1", "Q2")), 4)
    table_success, table_branch, table_fid = gate_deviations(
        cn_ops, np.eye(4), CNOT_MATRIX, 0.25, 1.0 / 16.0)
    checks.append(check_record(
        "cnot-via-cz-table-outputs",
        "the teleportation CNOT maps every basis input to its flipped image",
        table_fid, 1.0, 1e-10))
    checks.append(check_record(
        "cnot-via-cz-branch-probability", "each Bell outcome pair carries 1/16",
        table_branch, 0.0, 1e-10))
    checks.append(check_record(
        "cnot-via-cz-success", "the teleportation CNOT succeeds with probability 1/4",
        table_success, 0.0, 1e-10))

    if trials <= 0:
        return checks

    draws = [(random_amplitudes(rng, 2), random_amplitudes(rng, 4)) for _ in range(trials)]
    phis, psis = (np.array(column).T for column in zip(*draws))

    plus, minus, t_variants = [], [], []
    for label, frame, devs in ((PSI_PLUS, IDENTITY_2, plus), (PSI_MINUS, PAULI_Z, minus)):
        ops = {variant: compile_branches(qubit_gate(
            qubit_teleport.telegate_t, ("Q",), "Q", bell_state(label, ("A1", "A2")),
            variant=variant), 2) for variant in ("swap", "parity_filter")}
        devs.extend(gate_deviations(k, phis, frame, 0.5, 0.25) for k in ops.values())
        pairs = pair_branches(ops["swap"], ops["parity_filter"])
        t_variants.append(np.nan if pairs is None
                          else np.max([np.abs(a @ phis - b @ phis) for a, b in pairs]))
    t_success, t_branch = (np.max([d[i] for d in plus + minus]) for i in (0, 1))
    t_plus, t_minus = (np.min([d[2] for d in devs]) for devs in (plus, minus))
    t_variants = np.max(t_variants)

    pauli_fid = []
    for frame1, label1 in ((IDENTITY_2, PSI_PLUS), (PAULI_Z, PSI_MINUS)):
        for frame2, label2 in ((IDENTITY_2, PSI_PLUS), (PAULI_Z, PSI_MINUS)):
            aux = tensor_qubits(bell_state(label1, ("A1", "A2")),
                                bell_state(label2, ("A1'", "A2'")))
            ops = compile_branches(
                qubit_gate(qubit_teleport.cz_via_two_telegates, ("Q1", "Q2"), aux), 4)
            pauli_fid.append(gate_deviations(ops, psis, np.kron(frame1, frame2), 0.25,
                                             1.0 / 16.0)[2])
    pauli_fid = np.min(pauli_fid)

    cz_success, cz_branch, cz_fid = gate_deviations(
        compile_branches(qubit_gate(qubit_teleport.cz_via_two_telegates, ("Q1", "Q2")), 4),
        psis, CZ_MATRIX, 0.25, 1.0 / 16.0)
    cn_fid = gate_deviations(cn_ops, psis, CNOT_MATRIX, 0.25, 1.0 / 16.0)[2]

    checks.append(check_record(
        "telegate-success", "the telegate succeeds with probability 1/2 regardless "
        "of the input", t_success, 0.0, 1e-11))
    checks.append(check_record(
        "telegate-branch-probability", "each accepted telegate branch carries 1/4",
        t_branch, 0.0, 1e-11))
    checks.append(check_record(
        "telegate-plus-aux-output", "with the plus auxiliary the corrected output "
        "is the input", t_plus, 1.0, 1e-11))
    checks.append(check_record(
        "telegate-minus-aux-output", "with the minus auxiliary the corrected output "
        "picks up a phase flip", t_minus, 1.0, 1e-11))
    checks.append(check_record(
        "telegate-variants-identical", "the swap and parity-filter routes produce "
        "identical branch amplitudes", t_variants, 0.0, 1e-12))
    checks.append(check_record(
        "two-telegate-pauli-frame", "with product Bell auxiliaries the two-telegate "
        "device applies the matching Z frame", pauli_fid, 1.0, 1e-11))
    checks.append(check_record(
        "cz-via-telegates-success", "the two-telegate controlled phase succeeds with "
        "probability 1/4", cz_success, 0.0, 1e-10))
    checks.append(check_record(
        "cz-via-telegates-branch-probability", "each Bell outcome pair carries 1/16",
        cz_branch, 0.0, 1e-10))
    checks.append(check_record(
        "cz-via-telegates-output", "every corrected branch equals the controlled-phase "
        "image of the input", cz_fid, 1.0, 1e-10))
    checks.append(check_record(
        "cnot-via-telegates-output", "conjugating the controlled phase with target "
        "rotations gives the CNOT on every branch", cn_fid, 1.0, 1e-10))
    return checks


def _suite_mb(rng: np.random.Generator, trials: int) -> list[dict]:
    checks: list[dict] = []
    reg = Register(("IN", "A"))
    enc = MBEncoding(("IN",), ("A",))

    # Columns HH, HV, VH, VV on (IN, A); rows IN bit, then the A pair as (V, H) bits.
    encode = linear_map(lambda amps: mb_bridge.mb_encode(
        polarization_ket(reg, ("IN", "A"), amps), enc).amplitudes, 4)
    want = np.eye(8)[:, [0b001, 0b010, 0b101, 0b110]]
    checks.append(check_record(
        "mb-dictionary", "each single-photon port pattern maps to exactly its "
        "occupation qubit string", np.abs(encode - want).max(), 0.0, 1e-15))

    reg_a = Register(("A",))
    enc_a = MBEncoding((), ("A",))
    dev = 0.0
    for sign, label in ((1.0, PSI_PLUS), (-1.0, PSI_MINUS)):
        ket = FockKet(reg_a, {(1, 0): HALF, (0, 1): sign * HALF})
        encoded = mb_bridge.mb_encode(ket, enc_a)
        dev = max(dev, np.abs(encoded.amplitudes
                              - bell_state(label, ("AV", "AH")).amplitudes).max())
    checks.append(check_record(
        "mb-bell-identification", "balanced one-photon splits encode exactly to the "
        "odd-parity Bell states", dev, 0.0, 1e-15))

    fixed = polarization_ket(reg, ("IN", "A"), np.array([0.5, 0.5j, -0.5, 0.5]))
    decoded = mb_decode(mb_bridge.mb_encode(fixed, enc), enc)
    dev = max(abs(fixed.amplitude(k) - decoded.amplitude(k))
              for k in set(fixed.terms) | set(decoded.terms))
    checks.append(check_record(
        "mb-roundtrip", "decoding after encoding returns the original optical state",
        dev, 0.0, 1e-13))

    checks.extend(mb_bridge.verify_pbs_mb(rng, trials))
    checks.extend(mb_bridge.verify_hwp_mb(rng, trials))
    checks.extend(mb_bridge.verify_f_equals_tprime(rng, trials))
    checks.extend(mb_bridge.verify_aux_state_equivalence())
    checks.extend(mb_bridge.verify_ecnot_equals_tcnot(rng, trials))

    if trials > 0:
        draws = np.array([(random_amplitudes(rng, 4), random_amplitudes(rng, 4))
                          for _ in range(trials)])
        xs, ys = draws[:, 0].T, draws[:, 1].T
        fock = np.sum(xs.conj() * ys, axis=0)
        encoded = np.sum((encode @ xs).conj() * (encode @ ys), axis=0)
        worst = np.max(np.abs(fock - encoded))
        checks.append(check_record(
            "mb-isometry", "encoding preserves inner products on the single-photon "
            "subspace", worst, 0.0, 1e-12))
    return checks


# Suite name -> suite, in the order `--suite all` runs them.
SUITES = {
    "optical": _suite_optical,
    "teleport": _suite_teleport,
    "mb": _suite_mb,
}


@dataclass
class Report:
    """Outcome of one verify run; serializes to the fixed JSON schema."""

    suite: str
    seed: int
    checks: list[dict]
    passed: bool

    @classmethod
    def build(cls, suite: str, seed: int, checks: list[dict]) -> "Report":
        return cls(suite, seed, checks,
                   all(c["status"] == "pass" for c in checks))

    def to_json_dict(self) -> dict:
        return {"suite": self.suite, "seed": self.seed, "checks": self.checks,
                "pass": self.passed}

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}", f"seed: {self.seed}"]
        for c in self.checks:
            lines.append(f"[{c['status'].upper()}] {c['id']} | {c['ref']} | "
                         f"got={c['got']!r} want={c['want']!r} tol={c['tol']!r}")
        n_pass = sum(1 for c in self.checks if c["status"] == "pass")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'} "
                     f"({n_pass}/{len(self.checks)} checks)")
        return "\n".join(lines)


def run_suite(suite: str, seed: int, trials: int = 100) -> Report:
    """Run one named suite (or all of them) with a fresh generator per suite."""
    names = SUITES if suite == "all" else (suite,)
    checks: list[dict] = []
    for name in names:
        checks.extend(SUITES[name](np.random.default_rng(seed), trials))
    return Report.build(suite, seed, checks)


def _port_inputs(*ports: str) -> list[str]:
    """Row texts of the polarization basis on ports, first port leftmost."""
    return ["|" + " ".join(f"{port}.{pol}=1" for port, pol in zip(ports, pols)) + ">"
            for pols in itertools.product((H, V), repeat=len(ports))]


def _qubit_inputs(n: int) -> list[str]:
    return [f"|{index:0{n}b}>" for index in range(2 ** n)]


_PLUS_PAIR = bell_state(PSI_PLUS, ("A1", "A2"))

# Gate name -> (note, row texts, amplitude-in builders). Each builder runs on
# the basis of its own consecutive block of rows.
TRUTH_TABLES = {
    "f_gate": ("balanced auxiliary photon on A", _port_inputs("IN"),
               [filter_gate(optical_gates.f_gate, (HALF, HALF))]),
    "parity_check": ("auxiliary photon fixed to H", _port_inputs("IN"),
                     [filter_gate(optical_gates.f_gate, (1.0, 0.0))]),
    "d_cnot": ("control photon on A (consumed), target on IN", _port_inputs("A", "IN"),
               [filter_gate(optical_gates.destructive_cnot, control)
                for control in np.eye(2)]),
    "e_cnot": ("control on IN, target on IN'", _port_inputs("IN", "IN'"), [ecnot_gate]),
    "telegate_t": ("variant swap, auxiliary pair in the plus Bell state", _qubit_inputs(1),
                   [qubit_gate(qubit_teleport.telegate_t, ("Q",), "Q", _PLUS_PAIR,
                               variant="swap")]),
    "telegate_tp": ("variant parity_filter, auxiliary pair in the plus Bell state",
                    _qubit_inputs(1),
                    [qubit_gate(qubit_teleport.telegate_t, ("Q",), "Q", _PLUS_PAIR,
                                variant="parity_filter")]),
    "cz2t": ("controlled phase from two telegates", _qubit_inputs(2),
             [qubit_gate(qubit_teleport.cz_via_two_telegates, ("Q1", "Q2"))]),
    "cnot_cz": ("CNOT from the telegate controlled phase", _qubit_inputs(2),
                [qubit_gate(qubit_teleport.cnot_via_cz, ("Q1", "Q2"))]),
}
