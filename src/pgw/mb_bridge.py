"""Mixed-basis bridge between the optical and teleportation layers.

The mixed basis keeps input ports as polarization qubits (H maps to 0,
V to 1) while each auxiliary port contributes two occupation-number
qubits, one per mode, ordered (V mode, H mode):

    |H>_A  ->  |0>_AV |1>_AH        |V>_A  ->  |1>_AV |0>_AH

mb_encode, project_encodable and mb_decode all read one table of every
encodable occupation vector and its qubit index. A single photon split
across the two modes of one auxiliary port is then exactly a Bell state of
the two occupation qubits: (|H> + |V>)/sqrt(2) encodes to Psi+ and
(|H> - |V>)/sqrt(2) to Psi-. Under this dictionary
the polarizing beam splitter acts as the even-parity filter on (input,
V-qubit), the half-wave plate at 22.5 degrees acts as the Bell rotation
|01> -> (|01> + |10>)/sqrt(2), |10> -> (|01> - |10>)/sqrt(2) (up to a
global -i), and per-port detection realizes the partial Bell measurement.
The verify_* functions machine-check these statements, the branch-by-
branch equality of the optical parity-check filter with the parity-filter
telegate, the equality of the rotated entangled pair with the controlled-Z
auxiliary resource, and the end-to-end match of the optical CNOT with the
teleportation CNOT.

A post-selected gate with feed-forward is one linear map K_b per accepted
outcome b. GATES holds each configuration that the checks and truth tables
read, an optical one as its `gate` line; a BranchOperators compiles each
once per run (compile_branches, on each basis input), binding an optical
line's Pipeline once. The truth tables read their rows off the columns of
K_b, the randomized checks apply K_b to every seeded trial input in one
matrix product, and the optical-versus-teleported claim is also checked as
K_b(optical) = e^{i phi_b} K_b(teleported), outcomes paired by label;
gate_deviations reads "each branch is M v with weight q, sum p" off K_b.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from . import fock_core, optical_gates, qubit_teleport
from .fock_core import (
    DEFAULT_CUTOFF,
    HALF,
    FockKet,
    GateResult,
    H,
    ModeId,
    Register,
    V,
    _names,
    apply_mode_transform,
    polarization_ket,
)
from .optical_elements import hwp, pbs
from .optical_gates import ROTATION_DEG
from .qubit_teleport import (
    PSI_MINUS,
    PSI_PLUS,
    Matrix,
    QubitState,
    bell_state,
    cz_aux_state,
    overlap_q,
    qubit_fidelity,
    random_amplitudes,
)

MATRIX_IDENTITY_TOL = 1e-14

# Detector outcome of each optical stage -> Bell outcome of the matching
# teleportation stage: D0 <-> Psi+ and D1 <-> Psi-; primes mark stage two.
DETECTOR_TO_BELL = {"D0": PSI_PLUS, "D1": PSI_MINUS, "D0'": PSI_PLUS, "D1'": PSI_MINUS}


class EncodingDomainError(ValueError):
    """The optical state lies outside the encodable subspace."""


class DecodingDomainError(ValueError):
    """The qubit state has support outside the image of the encoding."""


@dataclass(frozen=True)
class MBEncoding:
    """Port declaration for the mixed-basis dictionary.

    input_ports stay polarization qubits; each aux port becomes the qubit
    pair (portV, portH) read from mode occupations.
    """

    input_ports: tuple[str, ...]
    aux_ports: tuple[str, ...]

    def __post_init__(self):
        input_ports = _names(self.input_ports, "input_ports")
        aux_ports = _names(self.aux_ports, "aux_ports")
        ports = input_ports + aux_ports
        if not ports:
            raise ValueError("encoding needs at least one port")
        if len(set(ports)) != len(ports):
            raise ValueError(f"ports declared twice in {ports}")
        object.__setattr__(self, "input_ports", input_ports)
        object.__setattr__(self, "aux_ports", aux_ports)

    @property
    def qubit_labels(self) -> tuple[str, ...]:
        labels = list(self.input_ports)
        for port in self.aux_ports:
            labels.extend((f"{port}V", f"{port}H"))
        return tuple(labels)


def _codebook(register: Register, enc: MBEncoding) -> dict[tuple[int, ...], int]:
    """Every encodable occupation vector of register, one photon in each
    declared port and none elsewhere, with its qubit index. An input port
    reads H as 0 and V as 1; an aux port reads as its (V count, H count) pair."""
    codes = ([((H, 1, 0), (V, 1, 1))] * len(enc.input_ports)
             + [((H, 2, 0b01), (V, 2, 0b10))] * len(enc.aux_ports))
    book = {}
    for picks in itertools.product(*codes):
        occ, index = [0] * register.n_modes, 0
        for port, (pol, width, code) in zip(enc.input_ports + enc.aux_ports, picks):
            occ[register.index_of(ModeId(port, pol))] = 1
            index = index << width | code
        book[tuple(occ)] = index
    return book


def mb_encode(state: FockKet, enc: MBEncoding) -> QubitState:
    """Isometric map from the one-photon-per-port subspace to qubits."""
    book = _codebook(state.register, enc)
    amps = [0j] * 2 ** len(enc.qubit_labels)
    for occ, amp in state.terms.items():
        index = book.get(occ)
        if index is None:
            raise EncodingDomainError(
                f"term {occ} is not one photon in each declared port and none elsewhere")
        amps[index] += amp
    return QubitState(enc.qubit_labels, amps)


def mb_decode(state: QubitState, enc: MBEncoding) -> FockKet:
    """Left inverse of mb_encode, onto a register that holds one photon per port."""
    if state.labels != enc.qubit_labels:
        raise ValueError(f"state labels {state.labels} do not match encoding "
                         f"{enc.qubit_labels}")
    ports = enc.input_ports + enc.aux_ports
    register = Register(ports, max(DEFAULT_CUTOFF, len(ports)))
    occs = {index: occ for occ, index in _codebook(register, enc).items()}
    support = [i for i, amp in enumerate(state.amplitudes) if amp]
    for index in support:
        if index not in occs:
            raise DecodingDomainError(f"basis state |{index:0{state.n_qubits}b}> is outside "
                                      "the image: an aux pair other than |01> or |10>")
    return FockKet(register, {occs[i]: state.amplitudes[i] for i in support})


def project_encodable(state: FockKet, enc: MBEncoding) -> FockKet:
    """Keep only the terms inside the encodable subspace (post-selection)."""
    book = _codebook(state.register, enc)
    return FockKet(state.register, {occ: a for occ, a in state.terms.items() if occ in book},
                   validate=False)


def check_record(check_id: str, ref: str, got: float, want: float, tol: float) -> dict:
    """One verification record in the report schema."""
    got, want, tol = float(got), float(want), float(tol)
    status = "pass" if abs(got - want) <= tol else "fail"
    return {"id": check_id, "ref": ref, "status": status,
            "got": got, "want": want, "tol": tol}


def recorder(checks: list[dict]) -> Callable[..., None]:
    """check(id, ref, got, want, tol) appends one check_record to checks."""
    return lambda *record: checks.append(check_record(*record))


def eye(dim: int) -> Matrix:
    """The dim x dim identity; its rows are also the basis inputs, as columns."""
    return tuple(tuple(complex(i == j) for j in range(dim)) for i in range(dim))


def dagger(m: Matrix) -> list[list[complex]]:
    return [[x.conjugate() for x in col] for col in zip(*m)]


# A batch of trial inputs v_1 ... v_n is kept as the rows of the matrix with
# columns v_1 ... v_n, so that each step below is one map over the batch.

def matmul(a: Matrix, b: Matrix) -> list[list[complex]]:
    """a @ b, both given as rows; each entry sums a's nonzero terms in order."""
    n = len(b[0]) if len(b) else 0
    out = []
    for row in a:
        acc = None
        for x, entries in zip(row, b, strict=True):
            if x:
                term = map(operator.mul, itertools.repeat(complex(x), n), entries)
                acc = list(term) if acc is None else list(map(operator.add, acc, term))
        out.append([0j] * n if acc is None else acc)
    return out


def inner(left: Matrix, right: Matrix) -> list[complex]:
    """<l|r> for each column l of left and r of right."""
    return list(map(sum, zip(*[map(operator.mul, map(complex.conjugate, map(complex, a)), b)
                               for a, b in zip(left, right, strict=True)])))


def branch_probabilities(outputs: Matrix) -> list[float]:
    """Squared norm of each column (as the sum of its |x|^2): one branch
    probability per trial, for outputs that hold one trial per column."""
    return list(map(sum, zip(*[[h * h for h in map(abs, row)] for row in outputs])))


def batched_fidelity(states: Matrix, targets: Matrix, target_norms=None) -> list[float]:
    """Column-wise |<t|s>| / (|s| |t|) for states and targets that hold one
    trial per column: qubit_fidelity for every trial at once (target_norms
    are the targets' column norms, if known). A zero column gives NaN where
    qubit_fidelity raises; max_or_nan and min_or_nan propagate it, so any
    check reduced from it fails."""
    norms = [math.sqrt(z.real) for z in inner(states, states)]
    if target_norms is None:
        target_norms = [math.sqrt(z.real) for z in inner(targets, targets)]
    return [abs(overlap) / size if size else math.nan for overlap, size in
            zip(inner(targets, states), map(operator.mul, norms, target_norms))]


def max_or_nan(values: Iterable[float]) -> float:
    """The largest of values; NaN if any is NaN, wherever it sits, or if none."""
    worst = math.nan
    for d in values:
        if not d <= worst:  # larger, or one of the two is NaN
            if d != d:
                return math.nan
            worst = d
    return float(worst)


def min_or_nan(values: Iterable[float]) -> float:
    return -max_or_nan(-d for d in values)


def linear_map(fn: Callable[[Sequence[complex]], Sequence[complex]], dim: int) -> Matrix:
    """Matrix of a linear map given as a function of dim input amplitudes."""
    return tuple(zip(*[tuple(fn(basis)) for basis in eye(dim)]))


def compile_branches(gate: Callable[[Sequence[complex]], GateResult], dim: int,
                     enc: MBEncoding | None = None) -> dict[str, Matrix]:
    """Branch operators {outcome label: K_b} of a post-selected linear gate.

    gate runs the gate on the input with the given dim amplitudes. Column i
    of K_b is branch b's conditional state for the i-th basis input,
    encoded with enc (optical gates) or read as qubit amplitudes (enc None).
    By linearity K_b @ v is branch b for any input v, unnormalized, so its
    squared column norms are the branch probabilities. Each label must occur
    exactly once for each basis input, else ValueError.
    """
    columns: dict[str, list[tuple[complex, ...]]] = {}
    for basis in eye(dim):
        branches = gate(basis).accepted_branches
        labels = [branch.outcome_label for branch in branches]
        if len(set(labels)) != len(labels):
            raise ValueError(f"outcome labels {labels} repeat for one basis input")
        for branch in branches:
            state = branch.conditional_state
            columns.setdefault(branch.outcome_label, []).append(
                state.amplitudes if enc is None else mb_encode(state, enc).amplitudes)
    for label, cols in columns.items():
        if len(cols) != dim:
            raise ValueError(f"outcome {label!r} occurs {len(cols)} times over "
                             f"{dim} basis inputs")
    return {label: tuple(zip(*cols)) for label, cols in columns.items()}


# Branch-operator encodings: the filters' output port IN, e_cnot's IN and IN'.
IN_ENC = MBEncoding(("IN",), ())
PAIR_ENC = MBEncoding(("IN", "IN'"), ())


def _telegate(label: str, variant: str) -> Callable[[Sequence[complex]], GateResult]:
    """telegate_t on qubit Q, as a function of its amplitudes, through the
    auxiliary pair (A1, A2) in the Bell state label."""
    return lambda amps: qubit_teleport.telegate_t(
        QubitState(("Q",), amps), "Q", bell_state(label, ("A1", "A2")), variant=variant)


# Gate configuration -> (its `gate` line: a GATE_EXPANDERS name and its ports, inputs
# then auxiliaries first; the auxiliary photons' amplitudes; its encoding) or (a qubit
# gate of its input amplitudes; their number; None), each looked up on its module as run.
GATES = {
    "f_gate": (("f_gate", "IN", "A", "D0", "D1"), (HALF, HALF), IN_ENC),
    "f_gate minus": (("f_gate", "IN", "A", "D0", "D1"), (HALF, -HALF), IN_ENC),
    "parity_check": (("parity_check", "IN", "A", "D0", "D1"), (1.0, 0.0), IN_ENC),
    "d_cnot H": (("d_cnot", "IN", "A", "D0", "D1"), (1.0, 0.0), IN_ENC),
    "d_cnot V": (("d_cnot", "IN", "A", "D0", "D1"), (0.0, 1.0), IN_ENC),
    "e_cnot": (("e_cnot", "IN", "IN'", "A", "A'", "D0", "D1", "D0'", "D1'"),
               (HALF, 0.0, 0.0, HALF), PAIR_ENC),
    "telegate_t": (_telegate(PSI_PLUS, "swap"), 2, None),
    "telegate_t minus": (_telegate(PSI_MINUS, "swap"), 2, None),
    "telegate_tp": (_telegate(PSI_PLUS, "parity_filter"), 2, None),
    "telegate_tp minus": (_telegate(PSI_MINUS, "parity_filter"), 2, None),
    "cz2t": (lambda amps: qubit_teleport.cz_via_two_telegates(QubitState(("Q1", "Q2"), amps)),
             4, None),
    "cnot_cz": (lambda amps: qubit_teleport.cnot_via_cz(QubitState(("Q1", "Q2"), amps)), 4, None),
}


class BranchOperators(dict):
    """GATES name -> its branch operators, compiled the first time they are
    read. One serves one run, so a gate patched between runs is seen."""

    def __missing__(self, name: str) -> dict[str, Matrix]:
        gate, arg, enc = GATES[name]
        if enc is not None:  # a `gate` line: its Pipeline, bound once, runs on each input
            (expander, *ports), aux, arg = gate, arg, 2 ** len(enc.input_ports)
            register = Register(ports)
            run = optical_gates.GATE_EXPANDERS[expander][0](*ports).bind(register)
            photons = ports[:len(enc.input_ports) + len(aux).bit_length() - 1]

            def gate(amps: Sequence[complex]) -> GateResult:
                ket = polarization_ket(register, photons, [a * b for a in amps for b in aux])
                return GateResult(run(ket)[1])
        self[name] = ops = compile_branches(gate, arg, enc)
        return ops


def pair_branches(left: Mapping[str, Matrix], right: Mapping[str, Matrix],
                  rename: Mapping[str, str] | None = None
                  ) -> list[tuple[Matrix, Matrix]] | None:
    """Match branches by outcome label, in left's order.

    Each comma-separated stage of a left label is mapped through rename
    (labels are compared as they are when rename is None). Returns None when
    a side is empty or a label is missing or unmatched, so that the checks
    built on the pairing fail.
    """
    renamed = {}
    for label, value in left.items():
        if rename is not None:
            stages = label.split(",")
            if not all(stage in rename for stage in stages):
                return None
            label = ",".join(rename[stage] for stage in stages)
        renamed[label] = value
    if not renamed or len(renamed) != len(left) or renamed.keys() != right.keys():
        return None
    return [(value, right[label]) for label, value in renamed.items()]


def gate_deviations(ops: Mapping[str, Matrix] | Iterable[Matrix],
                    inputs: Sequence[Sequence[complex]], target: Matrix, success,
                    weight) -> tuple[float, float, float]:
    """How far branch operators K_b are from the claim that, on every input
    column v, each branch is target @ v up to a phase with probability
    weight, and the branch probabilities sum to success.

    Returns the largest |sum_b p_b - success| and |p_b - weight| over the
    columns and the smallest fidelity of K_b @ v with target @ v. success
    and weight may be per-column sequences. A zero column gives a NaN
    fidelity, which fails any check built on it.
    """
    rows = list(zip(*inputs))
    wanted = matmul(target, rows)
    wanted_norms = [math.sqrt(z.real) for z in inner(wanted, wanted)]
    probs, fids = [], []
    for k in (ops.values() if isinstance(ops, Mapping) else ops):
        out = matmul(k, rows)
        probs.append(branch_probabilities(out))
        fids += batched_fidelity(out, wanted, wanted_norms)
    success, weight = (x if isinstance(x, Sequence) else itertools.repeat(x)
                       for x in (success, weight))
    return (max_or_nan(abs(sum(ps) - s) for ps, s in zip(zip(*probs), success)),
            max_or_nan(abs(p - w) for ps in probs for p, w in zip(ps, weight)),
            min_or_nan(fids))


def _paired_deviations(groups: list, inputs: Sequence[Sequence[complex]], weight=None
                       ) -> tuple[float, float]:
    """Largest branch-probability deviation and smallest fidelity over the
    label-matched (optical, teleported) pairs. Each optical operator goes
    through gate_deviations with its teleported partner as the target and
    the partner's branch probabilities as the weight; a given weight holds
    both sides to it instead. Both are NaN when a group failed to pair."""
    if any(group is None for group in groups):
        return math.nan, math.nan
    prob_devs, fids = [], []
    for group in groups:
        for k_opt, k_tel in group:
            p_tel = branch_probabilities(matmul(k_tel, list(zip(*inputs))))
            want = p_tel if weight is None else [weight] * len(p_tel)
            _, prob_dev, fid = gate_deviations([k_opt], inputs, k_tel, want, want)
            prob_devs += [prob_dev, max_or_nan(abs(p - w) for p, w in zip(p_tel, want))]
            fids.append(fid)
    return max_or_nan(prob_devs), min_or_nan(fids)


def kraus_deviations(groups: list, p_success: float) -> tuple[float, float]:
    """Exact operator checks on groups of label-matched (optical,
    teleported) branch operators, one group per gate configuration.

    Returns the largest entry of |K_opt - e^{i phi} K_tel|, with the phase
    taken from the two operators' trace overlap (NaN where it is zero), and
    the largest entry of sum_b K_b^dagger K_b - p_success I on either side
    of any group. Both are NaN when a group failed to pair.
    """
    if any(group is None for group in groups):
        return math.nan, math.nan
    phase_devs, complete_devs = [], []
    for group in groups:
        for k_opt, k_tel in group:
            k_opt, k_tel = ([complex(x) for row in k for x in row] for k in (k_opt, k_tel))
            overlap = sum(map(operator.mul, map(complex.conjugate, k_tel), k_opt))
            phase = overlap * (1.0 / abs(overlap)) if overlap else complex(math.nan, math.nan)
            phase_devs.append(max_or_nan(abs(x - phase * y) for x, y in zip(k_opt, k_tel)))
        for side in zip(*group):
            n = len(side[0])
            grams = [[x for row in matmul(dagger(k), k) for x in row] for k in side]
            complete_devs.append(max_or_nan(abs(sum(g) - p_success * (i % (n + 1) == 0))
                                            for i, g in enumerate(zip(*grams))))
    return max_or_nan(phase_devs), max_or_nan(complete_devs)


def verify_pbs_mb(rng: random.Random, trials: int = 100) -> list[dict]:
    """Check that the beam splitter's coincidence action encodes to the
    even-parity filter structure a A |001> + b B |110> on (IN, AV, AH)."""
    enc = MBEncoding(("IN",), ("A",))
    register = Register(("IN", "A"))
    splitter = pbs(register, "IN", "A")
    # Columns: the coincidence inputs |HH>, |HV>, |VH>, |VV> on (IN, A).
    after_pbs = linear_map(lambda amps: mb_encode(project_encodable(apply_mode_transform(
        polarization_ket(register, ("IN", "A"), amps), splitter), enc), enc).amplitudes, 4)

    def expected(inp: Sequence[complex], aux: Sequence[complex]) -> list[complex]:
        amps = [0j] * 8
        amps[0b001], amps[0b110] = inp[0] * aux[0], inp[1] * aux[1]
        return amps

    checks = []
    check = recorder(checks)
    got = max_or_nan(abs(row[0] - y) for row, y in zip(after_pbs, expected((1, 0), (1, 0))))
    check("pbs-mb-even-term", "matched H input and H auxiliary pass the beam splitter "
          "into the surviving even-parity ket", got, 0.0, 1e-12)
    got = math.hypot(*(abs(row[0b10]) for row in after_pbs))
    check("pbs-mb-odd-filtered", "odd-parity input and auxiliary combination is "
          "post-selected away by the beam splitter", got, 0.0, 1e-12)
    if trials > 0:
        draws = [(random_amplitudes(rng, 2), random_amplitudes(rng, 2)) for _ in range(trials)]
        joint = list(zip(*([a * b for a in inp for b in aux] for inp, aux in draws)))
        want = list(zip(*(expected(inp, aux) for inp, aux in draws)))
        worst = max_or_nan(abs(x - y) for got, row in zip(matmul(after_pbs, joint), want)
                           for x, y in zip(got, row))
        check("pbs-mb-random", "beam splitter action on random coincidence inputs "
              "equals the even-parity filter structure", worst, 0.0, 1e-12)
    return checks


def verify_hwp_mb(rng: random.Random, trials: int = 100) -> list[dict]:
    """Check the half-wave plate's mixed-basis image: the Bell rotation on
    the occupation qubit pair, and Bell discrimination after detection."""
    enc = MBEncoding((), ("A",))
    register = Register(("A",))
    rotation = hwp(register, "A", ROTATION_DEG)
    after_hwp = linear_map(lambda amps: mb_encode(apply_mode_transform(
        polarization_ket(register, ("A",), amps), rotation), enc).amplitudes, 2)

    def expected(x: complex, y: complex) -> list[complex]:
        """Bell rotation image of the input (x, y)."""
        out = [0j] * 4
        out[0b01], out[0b10] = (x + y) * HALF, (x - y) * HALF
        return out

    h_line, v_line = batched_fidelity(after_hwp, list(zip(expected(1, 0), expected(0, 1))))
    checks = []
    check = recorder(checks)
    check("hwp-mb-h-line", "plate maps the H occupation pattern to the plus Bell "
          "state up to a global phase", h_line, 1.0, 1e-12)
    check("hwp-mb-v-line", "plate maps the V occupation pattern to the minus Bell "
          "state up to a global phase", v_line, 1.0, 1e-12)

    analyzer = []
    for sign, pol in ((1, H), (-1, V)):
        plus = polarization_ket(register, ("A",), (HALF, sign * HALF))
        # Through its module, so that a tracer that wraps it there sees the call.
        fired = fock_core.measure_and_postselect(apply_mode_transform(plus, rotation),
                                                 fock_core.DetectionPattern({ModeId("A", pol): 1}))
        analyzer.append(fired.probability)
    check("bell-analyzer-psi-plus", "plus Bell state fires the H-side detector "
          "deterministically", analyzer[0], 1.0, 1e-12)
    check("bell-analyzer-psi-minus", "minus Bell state fires the V-side detector "
          "deterministically", analyzer[1], 1.0, 1e-12)

    if trials > 0:
        amps = [random_amplitudes(rng, 2) for _ in range(trials)]
        worst = min_or_nan(batched_fidelity(matmul(after_hwp, list(zip(*amps))),
                                            list(zip(*(expected(*a) for a in amps)))))
        check("hwp-mb-random", "plate action on random single-photon auxiliary states "
              "matches the Bell rotation up to a global phase", worst, 1.0, 1e-12)
    return checks


def verify_f_equals_tprime(ops: BranchOperators, rng: random.Random,
                           trials: int = 200) -> list[dict]:
    """Branch-by-branch equality of the optical parity-check filter with the
    parity-filter telegate on the encodable auxiliary domain, with outcomes
    paired by DETECTOR_TO_BELL: exactly as branch operators, and on one
    fixed and trials - 1 random inputs."""
    groups = [pair_branches(ops[optical], ops[teleported], DETECTOR_TO_BELL)
              for optical, teleported in (("f_gate", "telegate_tp"),
                                          ("f_gate minus", "telegate_tp minus"))]
    inputs = [(0.6 + 0.0j, 0.8j)] + [random_amplitudes(rng, 2) for _ in range(trials - 1)]
    worst_prob, worst_fid = _paired_deviations(groups, inputs)
    phase_dev, complete_dev = kraus_deviations(groups, 0.5)
    return [
        check_record("filter-telegate-branch-prob", "optical filter branches and parity-filter "
                     "telegate branches carry identical probabilities", worst_prob, 0.0, 1e-11),
        check_record("filter-telegate-branch-state", "encoded optical filter branches equal the "
                     "matching telegate branches up to a global phase", worst_fid, 1.0, 1e-11),
        check_record("filter-telegate-kraus-phase", "each encoded optical filter branch operator "
                     "equals its label-matched parity-filter telegate operator times a phase",
                     phase_dev, 0.0, MATRIX_IDENTITY_TOL),
        check_record("filter-telegate-kraus-complete",
                     "on both sides the branch operators satisfy "
                     "sum K^dagger K = I/2, success 1/2 on every input",
                     complete_dev, 0.0, MATRIX_IDENTITY_TOL),
    ]


def verify_aux_state_equivalence() -> list[dict]:
    """The rotated entangled pair encodes exactly to the controlled-Z
    auxiliary resource; dropping the rotation or flipping the pair sign
    kills the overlap entirely."""
    enc = MBEncoding((), ("A", "A'"))
    register = Register(("A", "A'"))
    target = cz_aux_state(("AV", "AH", "A'V", "A'H"))

    def pair_state(sign) -> FockKet:
        return polarization_ket(register, ("A", "A'"), (HALF, 0.0, 0.0, sign * HALF))

    rotated = apply_mode_transform(pair_state(1), hwp(register, "A'", ROTATION_DEG))
    fid = qubit_fidelity(mb_encode(rotated, enc), target)
    unrotated_fid = abs(overlap_q(mb_encode(pair_state(1), enc), target))
    wrong_sign = apply_mode_transform(pair_state(-1), hwp(register, "A'", ROTATION_DEG))
    wrong_sign_fid = abs(overlap_q(mb_encode(wrong_sign, enc), target))
    return [
        check_record("aux-resource-equivalence", "rotating one arm of the entangled pair and "
                     "encoding gives the controlled-Z auxiliary resource", fid, 1.0, 1e-12),
        check_record("aux-resource-needs-rotation", "without the plate the encoded pair is "
                     "orthogonal to the controlled-Z resource", unrotated_fid, 0.0, 1e-12),
        check_record("aux-resource-needs-plus-pair", "starting from the minus-signed pair the "
                     "encoded state is orthogonal to the resource", wrong_sign_fid, 0.0, 1e-12),
    ]


def verify_ecnot_equals_tcnot(ops: BranchOperators, rng: random.Random,
                              trials: int = 100) -> list[dict]:
    """End to end: encoded branches of the optical CNOT equal the branches
    of the teleportation CNOT, pairing detector outcomes with Bell outcomes
    stage by stage through DETECTOR_TO_BELL: exactly as branch operators,
    and on one fixed and trials - 1 random inputs."""
    groups = [pair_branches(ops["e_cnot"], ops["cnot_cz"], DETECTOR_TO_BELL)]
    inputs = ([(0.5, 0.5j, -0.5, 0.5)]
              + [random_amplitudes(rng, 4) for _ in range(trials - 1)])
    worst_prob, worst_fid = _paired_deviations(groups, inputs, 1.0 / 16.0)
    phase_dev, complete_dev = kraus_deviations(groups, 0.25)
    return [
        check_record("ecnot-tcnot-branch-prob", "optical CNOT and teleportation CNOT branches "
                     "all carry probability 1/16", worst_prob, 0.0, 1e-10),
        check_record("ecnot-tcnot-branch-state", "encoded optical CNOT branches equal the "
                     "teleportation CNOT branches up to a global phase", worst_fid, 1.0, 1e-10),
        check_record("ecnot-tcnot-kraus-phase", "each encoded optical CNOT branch operator equals "
                     "its label-matched teleportation CNOT operator times a phase",
                     phase_dev, 0.0, MATRIX_IDENTITY_TOL),
        check_record("ecnot-tcnot-kraus-complete", "on both sides the branch operators satisfy "
                     "sum K^dagger K = I/4, success 1/4 on every input",
                     complete_dev, 0.0, MATRIX_IDENTITY_TOL),
    ]
