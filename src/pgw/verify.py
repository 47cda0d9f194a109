"""Check suites and gate truth tables behind `pgw verify` and `pgw truth-table`.

run_suite runs one suite of SUITES (optical, teleport, mb), or all in
order, each with a fresh random.Random(seed), and returns a Report in
the fixed text and JSON formats. TRUTH_TABLES builds, on each lookup, the
amplitude-in builders of a tabulated gate and the encoding of its branch
operators, whose columns are the table rows. Random element pipelines are
optical_gates.Pipeline values and run as circuits and the library gates do.

Each layer function that perfbench/tracer.py wraps is called through its
module (optical_elements.hwp, qubit_teleport.telegate_t), also where a gate
is handed to filter_gate or qubit_gate: the tracer swaps names only in the
pgw modules it lists, so a by-name import here would hide those calls.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from . import fock_core, mb_bridge, optical_elements, optical_gates, qubit_teleport
from .fock_core import (
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
    compile_branches,
    eye,
    gate_deviations,
    kraus_deviations,
    linear_map,
    matmul,
    max_or_nan,
    mb_decode,
    min_or_nan,
    pair_branches,
)
from .optical_elements import ElementSpec
from .optical_gates import ROTATION_DEG, ecnot_gate, filter_gate
from .qubit_teleport import (
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

# Branch-operator encodings: the filters' output port IN, e_cnot's IN and IN'.
IN_ENC = MBEncoding(("IN",), ())
PAIR_ENC = MBEncoding(("IN", "IN'"), ())


def _kraus_claim(ops_targets, p: float) -> tuple[float, float]:
    """kraus_deviations for the claim that, for each (ops, M), every branch
    operator K_b is e^{i phi_b} sqrt(p/n) M over its n branches, so that
    sum_b K_b^dagger K_b = p I: one linear map per heralded outcome."""
    return kraus_deviations([[(k, _scaled(math.sqrt(p / len(ops)), m)) for k in ops.values()]
                             for ops, m in ops_targets], p)


def _scaled(c: complex, m) -> list[list[complex]]:
    return [[c * x for x in row] for row in m]


def _dense(t: fock_core.ModeTransform) -> list[list[complex]]:
    """The register matrix of t: its rows on touched, the identity elsewhere."""
    block = {(i, j): x for i, row in zip(t.touched, t.rows) for j, x in zip(t.touched, row)}
    n = t.register.n_modes
    return [[block.get((i, j), complex(i == j)) for j in range(n)] for i in range(n)]


def _kron(a, b) -> list[list[complex]]:
    return [[x * y for x in row_a for y in row_b] for row_a in a for row_b in b]


def _deviation(a, b) -> float:
    """The largest entry of |a - b| over two matrices given as rows."""
    return max_or_nan(abs(x - y) for row_a, row_b in zip(a, b, strict=True)
                      for x, y in zip(row_a, row_b, strict=True))


def _suite_optical(rng: random.Random, trials: int) -> list[dict]:
    checks: list[dict] = []
    check = mb_bridge.recorder(checks)
    cnot, identity = qubit_teleport.CNOT_MATRIX, qubit_teleport.IDENTITY_2
    pauli_x, pauli_z = qubit_teleport.PAULI_X, qubit_teleport.PAULI_Z
    reg_a = Register(("A",))

    u = _dense(optical_elements.hwp(reg_a, "A", ROTATION_DEG))
    want = _scaled(-1j * HALF, [[1.0, 1.0], [1.0, -1.0]])
    check("hwp-rotation-matrix",
          "plate at 22.5 degrees equals -i times the balanced rotation block",
          _deviation(u, want), 0.0, 1e-14)

    minus_identity = _scaled(-1.0, eye(2))
    worst = max_or_nan(_deviation(matmul(m, m), minus_identity) for m in (
        _dense(optical_elements.hwp(reg_a, "A", theta))
        for theta in (0.0, 10.0, ROTATION_DEG, 45.0, 67.5, 90.0)))
    check("hwp-double-pass", "two passes through one plate give the identity up to a global sign",
          worst, 0.0, 1e-13)

    reg_abc = Register(("A", "B", "C"))
    constructed = (optical_elements.pbs(reg_abc, "A", "B"),
                   optical_elements.hwp(reg_abc, "B", 33.0),
                   optical_elements.pockels_z(reg_abc, "C"),
                   optical_elements.mode_swap(reg_abc, ModeId("A", H), ModeId("B", H)))
    worst = max_or_nan(_deviation(matmul(mb_bridge.dagger(m), m), eye(6))
                       for m in map(_dense, constructed))
    check("elements-unitary", "every element constructor returns a unitary mode map",
          worst, 0.0, 1e-13)

    p = _dense(optical_elements.pbs(reg_abc, "A", "B"))
    q = _dense(optical_elements.hwp(reg_abc, "C", 17.0))
    check("disjoint-elements-commute", "elements acting on disjoint ports commute",
          _deviation(matmul(p, q), matmul(q, p)), 0.0, 1e-13)

    two = FockKet(reg_a, {(1, 1): 1.0})
    after = fock_core.apply_mode_transform(two, optical_elements.hwp(reg_a, "A", ROTATION_DEG))
    dev = max_or_nan((abs(after.amplitude((2, 0)) + HALF),
                      abs(after.amplitude((0, 2)) - HALF),
                      abs(after.amplitude((1, 1)))))
    check("hom-bunching", "two photons meeting in a balanced plate leave bunched in one mode",
          dev, 0.0, 1e-12)

    reg_ab = Register(("A", "B"))
    through = fock_core.apply_mode_transform(single_photon(ModeId("A", H), reg_ab),
                                             optical_elements.pbs(reg_ab, "A", "B"))
    crossed = fock_core.apply_mode_transform(single_photon(ModeId("A", V), reg_ab),
                                             optical_elements.pbs(reg_ab, "A", "B"))
    dev = max_or_nan((abs(through.amplitude((1, 0, 0, 0)) - 1.0),
                      abs(crossed.amplitude((0, 0, 0, 1)) - 1.0)))
    check("pbs-routing", "H transmits in place and V crosses ports with amplitude one",
          dev, 0.0, 1e-13)

    flipped = fock_core.apply_mode_transform(single_photon(ModeId("A", V), reg_a),
                                             optical_elements.hwp(reg_a, "A", 0.0))
    check("hwp-zero-angle", "plate at zero angle is the phase flip times the fixed -i",
          abs(flipped.amplitude((0, 1)) - 1.0j), 0.0, 1e-14)

    reg_in = Register(("IN",))
    match = optical_gates.quantum_parity_check(single_photon(ModeId("IN", H), reg_in), H)
    block = optical_gates.quantum_parity_check(single_photon(ModeId("IN", V), reg_in), H)
    check("parity-check-passes-match", "matched auxiliary passes the input outright",
          match.success_probability, 1.0, 1e-12)
    check("parity-check-blocks-mismatch", "mismatched auxiliary removes the input",
          block.success_probability, 0.0, 1e-12)

    # Each gate is compiled once to its branch operators; the table checks
    # apply them to the basis inputs, the randomized checks to the trials.
    ec_ops = compile_branches(ecnot_gate, 4, PAIR_ENC)
    table_success, _, table_fid = gate_deviations(ec_ops, eye(4), cnot, 0.25, 1.0 / 16.0)
    check("ecnot-truth-table-outputs", "control V flips the target and control H leaves it alone",
          table_fid, 1.0, 1e-10)
    check("ecnot-truth-table-success", "every basis input succeeds with probability 1/4",
          table_success, 0.0, 1e-10)

    def filter_ops(gate, aux) -> dict[str, tuple]:
        return compile_branches(filter_gate(gate, aux), 2, IN_ENC)

    # The destructive CNOT's branch operators are 1/2 times I (control H) or
    # X (control V), up to a phase, so it is checked exactly on the whole
    # input space.
    dc_ops = [(filter_ops(optical_gates.destructive_cnot, control), line)
              for control, line in (((1.0, 0.0), identity), ((0.0, 1.0), pauli_x))]
    phase_dev, complete_dev = _kraus_claim(dc_ops, 0.5)
    check("dcnot-kraus-phase", "each destructive CNOT branch operator is a phase times "
          "I/2 for control H and X/2 for control V", phase_dev, 0.0, MATRIX_IDENTITY_TOL)
    check("dcnot-kraus-complete", "for either control the destructive CNOT branch operators "
          "satisfy sum K^dagger K = I/2", complete_dev, 0.0, MATRIX_IDENTITY_TOL)
    check("ecnot-kraus-cnot", "each full CNOT branch operator is a phase times CNOT/4, and "
          "sum K^dagger K = I/4",
          max_or_nan(_kraus_claim([(ec_ops, cnot)], 0.25)), 0.0, MATRIX_IDENTITY_TOL)

    if trials <= 0:
        return checks

    # Draw every trial input in the per-trial order, then check each gate on
    # all of them at once through its compiled branch operators.
    draws = [(random_amplitudes(rng, 2), random_amplitudes(rng, 2), random_amplitudes(rng, 4),
              random_amplitudes(rng, 4), (rng.uniform(0.0, 180.0), rng.uniform(0.0, 180.0)))
             for _ in range(trials)]
    ab, gd, v, w, thetas = (list(column) for column in zip(*draws))

    neutral_ops = filter_ops(optical_gates.f_gate, (HALF, HALF))
    minus_ops = filter_ops(optical_gates.f_gate, (HALF, -HALF))
    neutral_success, neutral_branch, neutral_fid = gate_deviations(
        neutral_ops, ab, identity, 0.5, 0.25)
    _, minus_branch, minus_fid = gate_deviations(minus_ops, ab, pauli_z, 0.5, 0.25)
    # Every branch against the first one as the target map.
    branches_agree = all(gate_deviations(ops, ab, next(iter(ops.values())), 0.5, 0.25)[2]
                         >= 1.0 - 1e-10 for ops in (neutral_ops, minus_ops))
    dc = [gate_deviations(ops, gd, line, 0.5, 0.25) for ops, line in dc_ops]
    dc_success, dc_fid = max_or_nan(d[0] for d in dc), min_or_nan(d[2] for d in dc)
    ec_success, ec_branch, ec_fid = gate_deviations(ec_ops, v, cnot, 0.25, 1.0 / 16.0)

    # Random plate angles change the map on every trial, so these run one by one.
    port_a = [fock_core.DetectionPattern({ModeId("A", H): h, ModeId("A", V): v})
              for h, v in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2))]
    norm_dev, completeness_dev = [], []
    for amps, (theta1, theta2) in zip(w, thetas):
        elements = (ElementSpec("hwp", ("A",), theta1), ElementSpec("pbs", ("A", "B")),
                    ElementSpec("hwp", ("B",), theta2))
        state, branches = optical_gates.Pipeline(elements, port_a, {}).run(
            polarization_ket(reg_ab, ("A", "B"), amps))
        norm_dev.append(abs(state.norm_squared() - 1.0))
        completeness_dev.append(abs(sum(b.probability for b in branches) - 1.0))
    norm_dev, completeness_dev = max_or_nan(norm_dev), max_or_nan(completeness_dev)

    check("filter-neutral-success", "the balanced-auxiliary filter succeeds with probability 1/2",
          neutral_success, 0.0, 1e-10)
    check("filter-branch-probability", "each accepted filter branch carries 1/4",
          max_or_nan((neutral_branch, minus_branch)), 0.0, 1e-10)
    check("filter-neutral-output",
          "with a balanced auxiliary the corrected output equals the input",
          neutral_fid, 1.0, 1e-10)
    check("filter-minus-aux-flips-phase",
          "with the anti-balanced auxiliary the output picks up a phase flip",
          minus_fid, 1.0, 1e-10)
    check("filter-branches-agree", "both corrected detector branches agree up to a global phase",
          1.0 if branches_agree else 0.0, 1.0, 0.0)
    check("dcnot-success", "the destructive CNOT succeeds with probability 1/2",
          dc_success, 0.0, 1e-10)
    check("dcnot-line-outputs",
          "control H leaves the target and control V exchanges its amplitudes", dc_fid, 1.0, 1e-10)
    check("ecnot-random-success", "the full CNOT succeeds with probability 1/4",
          ec_success, 0.0, 1e-10)
    check("ecnot-random-branch-probability", "all sixteen amplitudes land in each "
          "detector pattern with weight 1/16", ec_branch, 0.0, 1e-10)
    check("ecnot-random-outputs", "every corrected branch equals the CNOT image of the input",
          ec_fid, 1.0, 1e-10)
    check("pipeline-norm-preserved", "element pipelines preserve the state norm",
          norm_dev, 0.0, 1e-11)
    check("detection-completeness", "per-port detector outcomes sum to the state norm",
          completeness_dev, 0.0, 1e-11)
    return checks


def _suite_teleport(rng: random.Random, trials: int) -> list[dict]:
    checks: list[dict] = []
    check = mb_bridge.recorder(checks)
    cnot, cz = qubit_teleport.CNOT_MATRIX, qubit_teleport.CZ_MATRIX
    identity, pauli_z = qubit_teleport.IDENTITY_2, qubit_teleport.PAULI_Z
    bells = [bell_state(label) for label in (PSI_PLUS, PSI_MINUS, PHI_PLUS, PHI_MINUS)]
    gram = [[overlap_q(x, y) for y in bells] for x in bells]
    check("bell-orthonormality", "the four Bell states form an orthonormal set",
          _deviation(gram, eye(4)), 0.0, 1e-14)

    # Each Bell state with the probabilities it must give: j = 0, j = 1, rejected.
    devs = []
    for label, want in ((PSI_PLUS, (1.0, 0.0, 0.0)), (PSI_MINUS, (0.0, 1.0, 0.0)),
                        (PHI_PLUS, (0.0, 0.0, 1.0)), (PHI_MINUS, (0.0, 0.0, 1.0))):
        state = tensor_qubits(bell_state(label, ("B1", "B2")), QubitState(("Q",), (1.0, 0.0)))
        result = qubit_teleport.pbm(state, ("B1", "B2"))
        got = (*(b.probability for b in result.accepted_branches),
               state.norm_squared() - result.success_probability)
        devs.append(max_or_nan(abs(g - w) for g, w in zip(got, want, strict=True)))
    check("pbm-resolves-odd-bells",
          "each odd-parity Bell state fires its own outcome deterministically",
          max_or_nan(devs[:2]), 0.0, 1e-12)
    check("pbm-rejects-even-bells", "even-parity Bell components are rejected outright",
          max_or_nan(devs[2:]), 0.0, 1e-12)

    eye2 = eye(2)
    terms = (eye(4), _kron(pauli_z, eye2), _kron(eye2, pauli_z), _kron(pauli_z, pauli_z))
    decomposed = [[0.5 * (a + b + c - d) for a, b, c, d in zip(*rows)] for rows in zip(*terms)]
    check("cz-pauli-decomposition",
          "the controlled phase is half the signed sum of identity and Z terms",
          _deviation(decomposed, cz), 0.0, 1e-14)

    combo = [0j] * 16
    for sign1, label1 in ((1, PSI_PLUS), (-1, PSI_MINUS)):
        for sign2, label2 in ((1, PSI_PLUS), (-1, PSI_MINUS)):
            coeff = 0.5 * (-1.0 if sign1 == sign2 == -1 else 1.0)
            product = tensor_qubits(bell_state(label1, ("A1", "A2")),
                                    bell_state(label2, ("A1'", "A2'")))
            combo = [x + coeff * a for x, a in zip(combo, product.amplitudes)]
    check("cz-aux-bell-combination", "the controlled-phase resource is the signed half "
          "sum of odd Bell pair products",
          _deviation([combo], [cz_aux_state().amplitudes]), 0.0, 1e-14)

    dev = max_or_nan(
        abs(parity_filter(QubitState(("Q1", "Q2"), eye(4)[index]), ("Q1", "Q2")).norm_squared()
            - kept) for index, kept in ((0b00, 1.0), (0b01, 0.0), (0b10, 0.0), (0b11, 1.0)))
    check("parity-filter-projector",
          "the pair filter keeps matched bits untouched and removes the rest", dev, 0.0, 1e-14)

    rejected = qubit_teleport.telegate_t(QubitState(("Q",), (0.8, 0.6)), "Q",
                                         bell_state(PHI_PLUS, ("A1", "A2")),
                                         variant="parity_filter")
    check("telegate-filter-rejects-even-aux",
          "the parity-filter telegate accepts nothing from an even-parity auxiliary",
          rejected.success_probability, 0.0, 1e-12)

    cn_ops = compile_branches(qubit_gate(qubit_teleport.cnot_via_cz, ("Q1", "Q2")), 4)
    table_success, table_branch, table_fid = gate_deviations(
        cn_ops, eye(4), cnot, 0.25, 1.0 / 16.0)
    check("cnot-via-cz-table-outputs",
          "the teleportation CNOT maps every basis input to its flipped image",
          table_fid, 1.0, 1e-10)
    check("cnot-via-cz-branch-probability", "each Bell outcome pair carries 1/16",
          table_branch, 0.0, 1e-10)
    check("cnot-via-cz-success", "the teleportation CNOT succeeds with probability 1/4",
          table_success, 0.0, 1e-10)
    cz_ops = compile_branches(qubit_gate(qubit_teleport.cz_via_two_telegates, ("Q1", "Q2")), 4)
    check("cnot-via-cz-kraus-cnot", "each teleportation CNOT branch operator is a phase times "
          "CNOT/4, and sum K^dagger K = I/4",
          max_or_nan(_kraus_claim([(cn_ops, cnot)], 0.25)), 0.0, MATRIX_IDENTITY_TOL)
    check("cz-via-telegates-kraus-cz", "each two-telegate branch operator is a phase times CZ/4, "
          "and sum K^dagger K = I/4",
          max_or_nan(_kraus_claim([(cz_ops, cz)], 0.25)), 0.0, MATRIX_IDENTITY_TOL)

    if trials <= 0:
        return checks

    draws = [(random_amplitudes(rng, 2), random_amplitudes(rng, 4)) for _ in range(trials)]
    phis, psis = (list(column) for column in zip(*draws))
    phi_rows = list(zip(*phis))

    plus, minus, t_variants = [], [], []
    for label, frame, devs in ((PSI_PLUS, identity, plus), (PSI_MINUS, pauli_z, minus)):
        ops = {variant: compile_branches(qubit_gate(
            qubit_teleport.telegate_t, ("Q",), "Q", bell_state(label, ("A1", "A2")),
            variant=variant), 2) for variant in ("swap", "parity_filter")}
        devs.extend(gate_deviations(k, phis, frame, 0.5, 0.25) for k in ops.values())
        pairs = pair_branches(ops["swap"], ops["parity_filter"])
        t_variants.append(math.nan if pairs is None
                          else max_or_nan(_deviation(matmul(a, phi_rows), matmul(b, phi_rows))
                                          for a, b in pairs))
    t_success, t_branch = (max_or_nan(d[i] for d in plus + minus) for i in (0, 1))
    t_plus, t_minus = (min_or_nan(d[2] for d in devs) for devs in (plus, minus))
    t_variants = max_or_nan(t_variants)

    pauli_fid = []
    for frame1, label1 in ((identity, PSI_PLUS), (pauli_z, PSI_MINUS)):
        for frame2, label2 in ((identity, PSI_PLUS), (pauli_z, PSI_MINUS)):
            aux = tensor_qubits(bell_state(label1, ("A1", "A2")),
                                bell_state(label2, ("A1'", "A2'")))
            ops = compile_branches(
                qubit_gate(qubit_teleport.cz_via_two_telegates, ("Q1", "Q2"), aux), 4)
            pauli_fid.append(gate_deviations(ops, psis, _kron(frame1, frame2), 0.25,
                                             1.0 / 16.0)[2])
    pauli_fid = min_or_nan(pauli_fid)

    cz_success, cz_branch, cz_fid = gate_deviations(cz_ops, psis, cz, 0.25, 1.0 / 16.0)
    cn_fid = gate_deviations(cn_ops, psis, cnot, 0.25, 1.0 / 16.0)[2]

    check("telegate-success", "the telegate succeeds with probability 1/2 regardless "
          "of the input", t_success, 0.0, 1e-11)
    check("telegate-branch-probability", "each accepted telegate branch carries 1/4",
          t_branch, 0.0, 1e-11)
    check("telegate-plus-aux-output", "with the plus auxiliary the corrected output "
          "is the input", t_plus, 1.0, 1e-11)
    check("telegate-minus-aux-output", "with the minus auxiliary the corrected output "
          "picks up a phase flip", t_minus, 1.0, 1e-11)
    check("telegate-variants-identical", "the swap and parity-filter routes produce "
          "identical branch amplitudes", t_variants, 0.0, 1e-12)
    check("two-telegate-pauli-frame", "with product Bell auxiliaries the two-telegate "
          "device applies the matching Z frame", pauli_fid, 1.0, 1e-11)
    check("cz-via-telegates-success", "the two-telegate controlled phase succeeds with "
          "probability 1/4", cz_success, 0.0, 1e-10)
    check("cz-via-telegates-branch-probability", "each Bell outcome pair carries 1/16",
          cz_branch, 0.0, 1e-10)
    check("cz-via-telegates-output", "every corrected branch equals the controlled-phase "
          "image of the input", cz_fid, 1.0, 1e-10)
    check("cnot-via-telegates-output", "conjugating the controlled phase with target "
          "rotations gives the CNOT on every branch", cn_fid, 1.0, 1e-10)
    return checks


def _suite_mb(rng: random.Random, trials: int) -> list[dict]:
    checks: list[dict] = []
    check = mb_bridge.recorder(checks)
    reg = Register(("IN", "A"))
    enc = MBEncoding(("IN",), ("A",))

    # Columns HH, HV, VH, VV on (IN, A); rows IN bit, then the A pair as (V, H) bits.
    encode = linear_map(lambda amps: mb_bridge.mb_encode(
        polarization_ket(reg, ("IN", "A"), amps), enc).amplitudes, 4)
    want = [[float(r == c) for c in (0b001, 0b010, 0b101, 0b110)] for r in range(8)]
    check("mb-dictionary", "each single-photon port pattern maps to exactly its "
          "occupation qubit string", _deviation(encode, want), 0.0, 1e-15)

    reg_a = Register(("A",))
    enc_a = MBEncoding((), ("A",))
    devs = []
    for sign, label in ((1.0, PSI_PLUS), (-1.0, PSI_MINUS)):
        ket = FockKet(reg_a, {(1, 0): HALF, (0, 1): sign * HALF})
        encoded = mb_bridge.mb_encode(ket, enc_a)
        devs.append(_deviation([encoded.amplitudes], [bell_state(label, ("AV", "AH")).amplitudes]))
    dev = max_or_nan(devs)
    check("mb-bell-identification", "balanced one-photon splits encode exactly to the "
          "odd-parity Bell states", dev, 0.0, 1e-15)

    fixed = polarization_ket(reg, ("IN", "A"), (0.5, 0.5j, -0.5, 0.5))
    decoded = mb_decode(mb_bridge.mb_encode(fixed, enc), enc)
    dev = max_or_nan(abs(fixed.amplitude(k) - decoded.amplitude(k))
                     for k in set(fixed.terms) | set(decoded.terms))
    check("mb-roundtrip", "decoding after encoding returns the original optical state",
          dev, 0.0, 1e-13)

    checks.extend(mb_bridge.verify_pbs_mb(rng, trials))
    checks.extend(mb_bridge.verify_hwp_mb(rng, trials))
    checks.extend(mb_bridge.verify_f_equals_tprime(rng, trials))
    checks.extend(mb_bridge.verify_aux_state_equivalence())
    checks.extend(mb_bridge.verify_ecnot_equals_tcnot(rng, trials))

    if trials > 0:
        draws = [(random_amplitudes(rng, 4), random_amplitudes(rng, 4)) for _ in range(trials)]
        xs, ys = (list(zip(*column)) for column in zip(*draws))
        worst = max_or_nan(abs(fock - encoded) for fock, encoded in zip(
            mb_bridge.inner(xs, ys), mb_bridge.inner(matmul(encode, xs), matmul(encode, ys))))
        check("mb-isometry", "encoding preserves inner products on the single-photon subspace",
              worst, 0.0, 1e-12)
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
        checks.extend(SUITES[name](random.Random(seed), trials))
    return Report.build(suite, seed, checks)


def _port_inputs(*ports: str) -> list[str]:
    """Row texts of the polarization basis on ports, first port leftmost."""
    return ["|" + " ".join(f"{port}.{pol}=1" for port, pol in zip(ports, pols)) + ">"
            for pols in itertools.product((H, V), repeat=len(ports))]


def _qubit_inputs(n: int) -> list[str]:
    return [f"|{index:0{n}b}>" for index in range(2 ** n)]


def _plus_telegate(variant: str):
    """telegate_t on qubit Q through an auxiliary pair in the plus Bell state."""
    return qubit_gate(qubit_teleport.telegate_t, ("Q",), "Q", bell_state(PSI_PLUS, ("A1", "A2")),
                      variant=variant)


# Gate name -> a function that builds, on each lookup, (note, row texts, amplitude-in
# builders, output encoding or None for a qubit gate). Each builder runs on the
# basis of its own block of rows.
TRUTH_TABLES = {
    "f_gate": lambda: ("balanced auxiliary photon on A", _port_inputs("IN"),
                       [filter_gate(optical_gates.f_gate, (HALF, HALF))], IN_ENC),
    "parity_check": lambda: ("auxiliary photon fixed to H", _port_inputs("IN"),
                             [filter_gate(optical_gates.f_gate, (1.0, 0.0))], IN_ENC),
    "d_cnot": lambda: ("control photon on A (consumed), target on IN", _port_inputs("A", "IN"),
                       [filter_gate(optical_gates.destructive_cnot, control)
                        for control in ((1.0, 0.0), (0.0, 1.0))], IN_ENC),
    "e_cnot": lambda: ("control on IN, target on IN'", _port_inputs("IN", "IN'"), [ecnot_gate],
                       PAIR_ENC),
    "telegate_t": lambda: ("variant swap, auxiliary pair in the plus Bell state",
                           _qubit_inputs(1), [_plus_telegate("swap")], None),
    "telegate_tp": lambda: ("variant parity_filter, auxiliary pair in the plus Bell state",
                            _qubit_inputs(1), [_plus_telegate("parity_filter")], None),
    "cz2t": lambda: ("controlled phase from two telegates", _qubit_inputs(2),
                     [qubit_gate(qubit_teleport.cz_via_two_telegates, ("Q1", "Q2"))], None),
    "cnot_cz": lambda: ("CNOT from the telegate controlled phase", _qubit_inputs(2),
                        [qubit_gate(qubit_teleport.cnot_via_cz, ("Q1", "Q2"))], None),
}
