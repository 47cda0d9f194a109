"""Workbench command line: simulate circuit files, tabulate gates, verify.

Subcommands
    simulate <file>          run a circuit file, print its measurement branches
    truth-table <gate>       print a gate's basis-input table
    verify [--suite S] [--seed N] [--trials M] [--json PATH]
                             run check suites (optical, teleport, mb, or all)
                             and exit 1 if any check fails

The seed defaults to the PGW_SEED environment variable, then 12345; the
--seed flag overrides both. Reports for the same (suite, seed, trials) are
byte-identical between runs. --trials 0 keeps only deterministic checks.

Circuit file format (header line `pgw-circuit v1`, then directives):
    register IN A D0 D1        spatial ports, each an H and a V mode
    cutoff 4                   optional photon cap (default 4, at most 170)
    term RE,IM IN.H=1 A.V=1    one initial-state term (omitted modes are 0)
    element pbs IN A           beam splitter between two ports
    element hwp A 22.5         wave plate on one port at an angle in degrees
    element pc IN              conditional phase flip element on one port
    element swap A.H D0.H      exchange two modes (detector routing)
    gate f_gate IN A D0 D1     expand a named gate into elements, detector
                               patterns, and per-outcome corrections
    detect D0 0 D0.H=1 D0.V=0  branch: exact counts, with a label and a
                               feed-forward index j
    correct D0 pc IN           correction applied to that branch's survivors
Lines starting with # are comments. `gate` names: f_gate, parity_check,
d_cnot (ports: target control d0 d1), e_cnot (ports: control target aux
aux' d0 d1 d0' d1'). All detections are evaluated on the state after the
full element pipeline, so expanded corrections are conjugated through any
elements that follow their detector in the original staged circuit.
The gate expanders and the runner that applies elements, detections and
corrections live in optical_gates; the library gates run through the same
runner. Detection patterns must be pairwise exclusive: two patterns that
agree on every mode they both constrain are an error. A `correct` step may
not act on a mode that its branch's detection consumes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fock_core import (
    BRANCH_EQUALITY_TOL,
    DEFAULT_CUTOFF,
    NORM_SLACK,
    Branch,
    DetectionPattern,
    FockKet,
    H,
    ModeId,
    Register,
    RegisterError,
    V,
    apply_mode_transform,
    measure_and_postselect,
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
    mb_encode,
    pair_branches,
    verify_aux_state_equivalence,
    verify_ecnot_equals_tcnot,
    verify_f_equals_tprime,
    verify_hwp_mb,
    verify_pbs_mb,
)
from .optical_elements import ElementKind, ElementSpec, hwp, mode_swap, pbs, pockels_z
from .optical_gates import (
    GATE_EXPANDERS,
    ROTATION_DEG,
    DetectionSpec,
    destructive_cnot,
    ecnot_gate,
    f_gate,
    filter_gate,
    gate_truth_table,
    quantum_parity_check,
    run_pipeline,
)
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
    cnot_via_cz,
    cz_aux_state,
    cz_via_two_telegates,
    overlap_q,
    parity_filter,
    pbm,
    qubit_gate,
    random_amplitudes,
    telegate_t,
    tensor_qubits,
)

DEFAULT_SEED = 12345
CONSERVATION_TOL = 1e-11
# 170! is the largest factorial a float holds; rows of phi(U) scale by ratios up to n!.
MAX_CUTOFF = 170
HEADER = "pgw-circuit v1"

_TOKEN_RE = re.compile(r"\S+")


class CircuitParseError(ValueError):
    """Syntax or reference error in a circuit file, with position info."""

    def __init__(self, reason: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {reason}")
        self.reason = reason
        self.line = line
        self.column = column


@dataclass
class CircuitFile:
    """Parsed circuit: register, initial terms, pipeline, detections."""

    source: str
    labels: tuple[str, ...]
    cutoff: int
    terms: list[tuple[complex, dict[ModeId, int]]] = field(default_factory=list)
    elements: list[ElementSpec] = field(default_factory=list)
    detections: list[DetectionSpec] = field(default_factory=list)
    corrections: dict[str, list[ElementSpec]] = field(default_factory=dict)


def _line_tokens(raw: str) -> list[tuple[str, int]]:
    return [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(raw)]


def _parse_float(text: str, what: str, line: int, col: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CircuitParseError(f"expected {what}, got {text!r}", line, col) from None
    if not math.isfinite(value):
        raise CircuitParseError(f"expected {what}, got non-finite {text!r}", line, col)
    return value


def _parse_int(text: str, what: str, line: int, col: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise CircuitParseError(f"expected {what}, got {text!r}", line, col) from None


def _parse_amplitude(text: str, line: int, col: int) -> complex:
    left, sep, right = text.partition(",")
    if not sep:
        raise CircuitParseError(f"expected amplitude RE,IM, got {text!r}", line, col)
    amp = complex(_parse_float(left, "a real part", line, col),
                  _parse_float(right, "an imaginary part", line, col))
    # No term of a ket with norm at most 1 has a larger part; the bound also
    # keeps squared magnitudes far from float overflow.
    if max(abs(amp.real), abs(amp.imag)) > 1.0 + NORM_SLACK:
        raise CircuitParseError(f"amplitude parts must lie in [-1, 1], got {text!r}",
                                line, col)
    return amp


def _parse_mode(text: str, labels: tuple[str, ...], line: int, col: int) -> ModeId:
    try:
        mode = ModeId.parse(text)
    except ValueError as e:
        raise CircuitParseError(str(e), line, col) from None
    if mode.spatial_label not in labels:
        raise CircuitParseError(
            f"port {mode.spatial_label!r} not declared in register", line, col)
    return mode


def _parse_port(text: str, labels: tuple[str, ...], line: int, col: int) -> str:
    if text not in labels:
        raise CircuitParseError(f"port {text!r} not declared in register", line, col)
    return text


def _parse_element_tokens(tokens: list[tuple[str, int]], labels: tuple[str, ...],
                          line: int) -> ElementSpec:
    if not tokens:
        raise CircuitParseError("missing element kind", line, 1)
    kind, col = tokens[0]
    args = tokens[1:]
    if kind == "pbs":
        if len(args) != 2:
            raise CircuitParseError("element pbs takes two port arguments", line, col)
        return ElementSpec(ElementKind.PBS,
                           tuple(_parse_port(t, labels, line, c) for t, c in args))
    if kind == "hwp":
        if len(args) != 2:
            raise CircuitParseError("element hwp takes a port and an angle", line, col)
        port = _parse_port(args[0][0], labels, line, args[0][1])
        angle = _parse_float(args[1][0], "an angle in degrees", line, args[1][1])
        return ElementSpec(ElementKind.HWP, (port,), (), angle)
    if kind == "pc":
        if len(args) != 1:
            raise CircuitParseError("element pc takes one port argument", line, col)
        return ElementSpec(ElementKind.PC, (_parse_port(args[0][0], labels, line,
                                                        args[0][1]),))
    if kind == "swap":
        if len(args) != 2:
            raise CircuitParseError("element swap takes two mode arguments", line, col)
        return ElementSpec(ElementKind.SWAP, (),
                           tuple(_parse_mode(t, labels, line, c) for t, c in args))
    raise CircuitParseError(f"unknown element kind {kind!r}", line, col)


def _parse_counts(tokens: list[tuple[str, int]], labels: tuple[str, ...],
                  line: int) -> dict[ModeId, int]:
    counts: dict[ModeId, int] = {}
    for text, col in tokens:
        mode_text, sep, count_text = text.partition("=")
        if not sep:
            raise CircuitParseError(f"expected MODE=COUNT, got {text!r}", line, col)
        mode = _parse_mode(mode_text, labels, line, col)
        count = _parse_int(count_text, "a photon count", line, col)
        if count < 0:
            raise CircuitParseError("photon counts must be nonnegative", line, col)
        if mode in counts:
            raise CircuitParseError(f"mode {mode} listed twice", line, col)
        counts[mode] = count
    return counts


def _argument_modes(element: ElementSpec) -> list[tuple[ModeId, ...]]:
    """The modes that each port or mode argument of an element acts on."""
    if element.modes:
        return [(m,) for m in element.modes]
    return [(ModeId(p, H), ModeId(p, V)) for p in element.spatial_ports]


def parse_circuit(text: str, source: str = "<circuit>") -> CircuitFile:
    labels: tuple[str, ...] | None = None
    cutoff = DEFAULT_CUTOFF
    cutoff_line = None
    header_seen = False
    terms: list[tuple[complex, dict[ModeId, int]]] = []
    elements: list[ElementSpec] = []
    detections: list[DetectionSpec] = []
    corrections: dict[str, list[ElementSpec]] = {}
    # Each `correct` step: (branch label, element, argument columns, line).
    correct_steps: list[tuple[str, ElementSpec, list[int], int]] = []

    def need_register(line: int, col: int) -> tuple[str, ...]:
        if labels is None:
            raise CircuitParseError("register must be declared first", line, col)
        return labels

    for line_no, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = _line_tokens(raw)
        if not header_seen:
            if [t for t, _ in tokens] != HEADER.split():
                raise CircuitParseError(f"expected header {HEADER!r}", line_no,
                                        tokens[0][1])
            header_seen = True
            continue
        word, col = tokens[0]
        rest = tokens[1:]
        if word == "register":
            if labels is not None:
                raise CircuitParseError("register declared twice", line_no, col)
            if not rest:
                raise CircuitParseError("register needs at least one port", line_no, col)
            seen = []
            for name, ncol in rest:
                if any(c in name for c in ".,=#"):
                    raise CircuitParseError(
                        f"port label {name!r} may not contain '.', ',', '=', or '#'",
                        line_no, ncol)
                if name in seen:
                    raise CircuitParseError(f"port {name!r} declared twice", line_no, ncol)
                seen.append(name)
            labels = tuple(seen)
        elif word == "cutoff":
            if cutoff_line is not None:
                raise CircuitParseError("cutoff declared twice", line_no, col)
            if len(rest) != 1:
                raise CircuitParseError("cutoff takes one integer", line_no, col)
            cutoff = _parse_int(rest[0][0], "a photon cap", line_no, rest[0][1])
            if cutoff < 1:
                raise CircuitParseError("cutoff must be at least 1", line_no, rest[0][1])
            if cutoff > MAX_CUTOFF:
                raise CircuitParseError(f"cutoff may not exceed {MAX_CUTOFF}",
                                        line_no, rest[0][1])
            cutoff_line = line_no
        elif word == "term":
            decl = need_register(line_no, col)
            if not rest:
                raise CircuitParseError("term needs an amplitude", line_no, col)
            amp = _parse_amplitude(rest[0][0], line_no, rest[0][1])
            terms.append((amp, _parse_counts(rest[1:], decl, line_no)))
        elif word == "element":
            decl = need_register(line_no, col)
            elements.append(_parse_element_tokens(rest, decl, line_no))
        elif word == "gate":
            decl = need_register(line_no, col)
            if not rest:
                raise CircuitParseError("gate needs a name", line_no, col)
            name, ncol = rest[0]
            if name not in GATE_EXPANDERS:
                raise CircuitParseError(f"unknown gate {name!r}", line_no, ncol)
            expander, arity = GATE_EXPANDERS[name]
            ports = rest[1:]
            if len(ports) != arity:
                raise CircuitParseError(f"gate {name} takes {arity} ports", line_no, ncol)
            port_names = [_parse_port(t, decl, line_no, c) for t, c in ports]
            if len(set(port_names)) != len(port_names):
                raise CircuitParseError(f"gate {name} ports must be distinct",
                                        line_no, ncol)
            g_elements, g_detections, g_corrections = expander(*port_names)
            elements.extend(g_elements)
            detections.extend(g_detections)
            for label, fixes in g_corrections.items():
                corrections.setdefault(label, []).extend(fixes)
        elif word == "detect":
            decl = need_register(line_no, col)
            if len(rest) < 3:
                raise CircuitParseError("detect needs a label, an index, and counts",
                                        line_no, col)
            label, label_col = rest[0]
            if any(d.label == label for d in detections):
                raise CircuitParseError(f"detection label {label!r} used twice",
                                        line_no, label_col)
            j = _parse_int(rest[1][0], "a feed-forward index", line_no, rest[1][1])
            if j not in (0, 1):
                raise CircuitParseError("feed-forward index must be 0 or 1",
                                        line_no, rest[1][1])
            counts = _parse_counts(rest[2:], decl, line_no)
            detections.append(DetectionSpec(label, j, tuple(sorted(counts.items()))))
        elif word == "correct":
            decl = need_register(line_no, col)
            if not rest:
                raise CircuitParseError("correct needs a branch label", line_no, col)
            label = rest[0][0]
            element = _parse_element_tokens(rest[1:], decl, line_no)
            corrections.setdefault(label, []).append(element)
            correct_steps.append((label, element, [c for _, c in rest[2:]], line_no))
        else:
            raise CircuitParseError(f"unknown directive {word!r}", line_no, col)

    if not header_seen:
        raise CircuitParseError(f"expected header {HEADER!r}", 1, 1)
    if labels is None:
        raise CircuitParseError("missing register directive",
                                max(text.count("\n") + 1, 1), 1)
    consumed = {d.label: {m for m, _ in d.required} for d in detections}
    for label, element, columns, line_no in correct_steps:
        if label not in consumed:
            raise CircuitParseError(f"correction for unknown branch {label!r}",
                                    line_no, 1)
        for modes, col in zip(_argument_modes(element), columns):
            for mode in modes:
                if mode in consumed[label]:
                    raise CircuitParseError(
                        f"correction for branch {label!r} acts on mode {mode}, "
                        "which its detection consumes", line_no, col)
    return CircuitFile(source, labels, cutoff, terms, elements, detections, corrections)


@dataclass
class SimulationResult:
    register: Register
    initial_norm_squared: float
    final_state: FockKet | None
    branches: tuple[Branch, ...]
    rejected_probability: float


def run_circuit(cf: CircuitFile) -> SimulationResult:
    register = Register(cf.labels, cf.cutoff)
    terms: dict[tuple[int, ...], complex] = {}
    for amp, counts in cf.terms:
        occ = [0] * register.n_modes
        for mode, count in counts.items():
            occ[register.index_of(mode)] = count
        key = tuple(occ)
        terms[key] = terms.get(key, 0.0 + 0.0j) + amp
    state = FockKet(register, terms)
    initial = state.norm_squared()
    _require_exclusive(cf.detections)
    state, branches = run_pipeline(state, cf.elements, cf.detections, cf.corrections)
    if abs(state.norm_squared() - initial) > CONSERVATION_TOL:
        raise ValueError(f"the elements took norm^2 from {initial!r} to {state.norm_squared()!r}:"
                         " precision loss in the n-photon amplitudes (too many photons)")
    if not cf.detections:
        return SimulationResult(register, initial, state, (), 0.0)
    total = sum(b.probability for b in branches)
    rejected = initial - total
    if rejected < -CONSERVATION_TOL:
        raise ValueError(f"detected branches carry {total!r} of the initial norm^2 "
                         f"{initial!r}; the detection patterns overlap")
    return SimulationResult(register, initial, None, branches, rejected)


def _require_exclusive(detections: list[DetectionSpec]) -> None:
    """Two patterns can both fire unless some mode they both constrain has
    different counts in them; such a pair would count one outcome twice."""
    for i, det in enumerate(detections):
        counts = dict(det.required)
        for other in detections[i + 1:]:
            for mode, n in other.required:
                if counts.get(mode, n) != n:
                    break
            else:
                raise ValueError(f"detections {det.label!r} and {other.label!r} are not "
                                 "exclusive: they agree on every mode they both constrain")


def _fmt_c(z: complex) -> str:
    re_part = z.real if z.real != 0.0 else 0.0
    im_part = z.imag if z.imag != 0.0 else 0.0
    return f"{re_part:.12g}{im_part:+.12g}j"


def _fmt_fock(state: FockKet) -> str:
    modes = state.register.modes
    parts = []
    for occ, amp in sorted(state.terms.items()):
        body = " ".join(f"{modes[i]}={n}" for i, n in enumerate(occ) if n) or "vac"
        parts.append(f"({_fmt_c(amp)}) |{body}>")
    return " + ".join(parts) or "0"


def _fmt_qubit(state: QubitState) -> str:
    n = state.n_qubits
    parts = [f"({_fmt_c(amp)}) |{index:0{n}b}>"
             for index, amp in enumerate(state.amplitudes) if abs(amp) > 1e-12]
    return " + ".join(parts) or "0"


def cmd_simulate(path: str) -> int:
    try:
        text = Path(path).read_text()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        cf = parse_circuit(text, source=path)
        result = run_circuit(cf)
    except CircuitParseError as e:
        print(f"{path}:{e.line}:{e.column}: error: {e.reason}", file=sys.stderr)
        return 2
    except (RegisterError, ValueError) as e:
        print(f"{path}: error: {e}", file=sys.stderr)
        return 2
    print(f"circuit: {path}")
    print(f"register: {' '.join(cf.labels)} (cutoff {cf.cutoff})")
    print(f"initial norm^2: {result.initial_norm_squared!r}")
    if result.final_state is not None:
        print("final state:")
        print(f"  {_fmt_fock(result.final_state)}")
        return 0
    print("branches:")
    for branch in result.branches:
        print(f"outcome {branch.outcome_label}  j={branch.j}  p={branch.probability!r}")
        if branch.probability > 0.0:
            print(f"  {_fmt_fock(branch.conditional_state.normalized())}")
        else:
            print("  (zero probability)")
    print(f"rejected: p={result.rejected_probability!r}")
    return 0


def _suite_optical(rng: np.random.Generator, trials: int) -> list[dict]:
    checks: list[dict] = []
    half = 2.0 ** -0.5
    reg_a = Register(("A",))

    u = hwp(reg_a, "A", ROTATION_DEG).matrix
    want = -1j * half * np.array([[1.0, 1.0], [1.0, -1.0]])
    checks.append(check_record(
        "hwp-rotation-matrix",
        "plate at 22.5 degrees equals -i times the balanced rotation block",
        np.abs(u - want).max(), 0.0, 1e-14))

    worst = 0.0
    for theta in (0.0, 10.0, ROTATION_DEG, 45.0, 67.5, 90.0):
        m = hwp(reg_a, "A", theta).matrix
        worst = max(worst, np.abs(m @ m + np.eye(2)).max())
    checks.append(check_record(
        "hwp-double-pass",
        "two passes through one plate give the identity up to a global sign",
        worst, 0.0, 1e-13))

    reg_abc = Register(("A", "B", "C"))
    constructed = (pbs(reg_abc, "A", "B"), hwp(reg_abc, "B", 33.0),
                   pockels_z(reg_abc, "C"),
                   mode_swap(reg_abc, ModeId("A", H), ModeId("B", H)))
    worst = max(np.abs(t.matrix.conj().T @ t.matrix - np.eye(6)).max()
                for t in constructed)
    checks.append(check_record(
        "elements-unitary", "every element constructor returns a unitary mode map",
        worst, 0.0, 1e-13))

    p = pbs(reg_abc, "A", "B").matrix
    q = hwp(reg_abc, "C", 17.0).matrix
    checks.append(check_record(
        "disjoint-elements-commute", "elements acting on disjoint ports commute",
        np.abs(p @ q - q @ p).max(), 0.0, 1e-13))

    two = FockKet(reg_a, {(1, 1): 1.0})
    after = apply_mode_transform(two, hwp(reg_a, "A", ROTATION_DEG))
    dev = max(abs(after.amplitude((2, 0)) + half),
              abs(after.amplitude((0, 2)) - half),
              abs(after.amplitude((1, 1))))
    checks.append(check_record(
        "hom-bunching",
        "two photons meeting in a balanced plate leave bunched in one mode",
        dev, 0.0, 1e-12))

    reg_ab = Register(("A", "B"))
    through = apply_mode_transform(single_photon(ModeId("A", H), reg_ab),
                                   pbs(reg_ab, "A", "B"))
    crossed = apply_mode_transform(single_photon(ModeId("A", V), reg_ab),
                                   pbs(reg_ab, "A", "B"))
    dev = max(abs(through.amplitude((1, 0, 0, 0)) - 1.0),
              abs(crossed.amplitude((0, 0, 0, 1)) - 1.0))
    checks.append(check_record(
        "pbs-routing", "H transmits in place and V crosses ports with amplitude one",
        dev, 0.0, 1e-13))

    flipped = apply_mode_transform(single_photon(ModeId("A", V), reg_a),
                                   hwp(reg_a, "A", 0.0))
    checks.append(check_record(
        "hwp-zero-angle", "plate at zero angle is the phase flip times the fixed -i",
        abs(flipped.amplitude((0, 1)) - 1.0j), 0.0, 1e-14))

    reg_in = Register(("IN",))
    match = quantum_parity_check(single_photon(ModeId("IN", H), reg_in), H)
    block = quantum_parity_check(single_photon(ModeId("IN", V), reg_in), H)
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
    dc_ops = [(filter_ops(destructive_cnot, control), line)
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

    neutral_ops = filter_ops(f_gate, (half, half))
    minus_ops = filter_ops(f_gate, (half, -half))
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
    norm_dev, completeness_dev = [], []
    for amps, (theta1, theta2) in zip(w.T, thetas.T):
        state = polarization_ket(reg_ab, ("A", "B"), amps)
        state = apply_mode_transform(state, hwp(reg_ab, "A", theta1))
        state = apply_mode_transform(state, pbs(reg_ab, "A", "B"))
        state = apply_mode_transform(state, hwp(reg_ab, "B", theta2))
        norm_dev.append(abs(state.norm_squared() - 1.0))
        total = 0.0
        for counts in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)):
            pattern = DetectionPattern({ModeId("A", H): counts[0],
                                        ModeId("A", V): counts[1]})
            total += measure_and_postselect(state, pattern).probability
        completeness_dev.append(abs(total - 1.0))
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
        result = pbm(state, ("B1", "B2"))
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
        result = pbm(state, ("B1", "B2"))
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

    rejected = telegate_t(QubitState(("Q",), (0.8, 0.6)), "Q",
                          bell_state(PHI_PLUS, ("A1", "A2")), variant="parity_filter")
    checks.append(check_record(
        "telegate-filter-rejects-even-aux",
        "the parity-filter telegate accepts nothing from an even-parity auxiliary",
        rejected.success_probability, 0.0, 1e-12))

    cn_ops = compile_branches(qubit_gate(cnot_via_cz, ("Q1", "Q2")), 4)
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
            telegate_t, ("Q",), "Q", bell_state(label, ("A1", "A2")), variant=variant), 2)
            for variant in ("swap", "parity_filter")}
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
            ops = compile_branches(qubit_gate(cz_via_two_telegates, ("Q1", "Q2"), aux), 4)
            pauli_fid.append(gate_deviations(ops, psis, np.kron(frame1, frame2), 0.25,
                                             1.0 / 16.0)[2])
    pauli_fid = np.min(pauli_fid)

    cz_success, cz_branch, cz_fid = gate_deviations(
        compile_branches(qubit_gate(cz_via_two_telegates, ("Q1", "Q2")), 4), psis, CZ_MATRIX,
        0.25, 1.0 / 16.0)
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


def _fock_dev(a: FockKet, b: FockKet) -> float:
    keys = set(a.terms) | set(b.terms)
    return max((abs(a.amplitude(k) - b.amplitude(k)) for k in keys), default=0.0)


def _suite_mb(rng: np.random.Generator, trials: int) -> list[dict]:
    checks: list[dict] = []
    half = 2.0 ** -0.5
    reg = Register(("IN", "A"))
    enc = MBEncoding(("IN",), ("A",))

    dev = 0.0
    for in_pol, in_bit in ((H, 0), (V, 1)):
        for aux_pol, aux_bits in ((H, (0, 1)), (V, (1, 0))):
            occ = [0] * reg.n_modes
            occ[reg.index_of(ModeId("IN", in_pol))] = 1
            occ[reg.index_of(ModeId("A", aux_pol))] = 1
            encoded = mb_encode(FockKet(reg, {tuple(occ): 1.0}), enc)
            want = np.zeros(8, dtype=complex)
            want[(in_bit << 2) | (aux_bits[0] << 1) | aux_bits[1]] = 1.0
            dev = max(dev, np.abs(encoded.amplitudes - want).max())
    checks.append(check_record(
        "mb-dictionary", "each single-photon port pattern maps to exactly its "
        "occupation qubit string", dev, 0.0, 1e-15))

    reg_a = Register(("A",))
    enc_a = MBEncoding((), ("A",))
    dev = 0.0
    for sign, label in ((1.0, PSI_PLUS), (-1.0, PSI_MINUS)):
        ket = FockKet(reg_a, {(1, 0): half, (0, 1): sign * half})
        encoded = mb_encode(ket, enc_a)
        dev = max(dev, np.abs(encoded.amplitudes
                              - bell_state(label, ("AV", "AH")).amplitudes).max())
    checks.append(check_record(
        "mb-bell-identification", "balanced one-photon splits encode exactly to the "
        "odd-parity Bell states", dev, 0.0, 1e-15))

    fixed = polarization_ket(reg, ("IN", "A"), np.array([0.5, 0.5j, -0.5, 0.5]))
    decoded = mb_decode(mb_encode(fixed, enc), enc)
    checks.append(check_record(
        "mb-roundtrip", "decoding after encoding returns the original optical state",
        _fock_dev(fixed, decoded), 0.0, 1e-13))

    checks.extend(verify_pbs_mb(rng, trials))
    checks.extend(verify_hwp_mb(rng, trials))
    checks.extend(verify_f_equals_tprime(rng, trials))
    checks.extend(verify_aux_state_equivalence())
    checks.extend(verify_ecnot_equals_tcnot(rng, trials))

    if trials > 0:
        draws = np.array([(random_amplitudes(rng, 4), random_amplitudes(rng, 4))
                          for _ in range(trials)])
        xs, ys = draws[:, 0].T, draws[:, 1].T
        encode = linear_map(
            lambda amps: mb_encode(polarization_ket(reg, ("IN", "A"), amps), enc).amplitudes, 4)
        fock = np.sum(xs.conj() * ys, axis=0)
        encoded = np.sum((encode @ xs).conj() * (encode @ ys), axis=0)
        worst = np.max(np.abs(fock - encoded))
        checks.append(check_record(
            "mb-isometry", "encoding preserves inner products on the single-photon "
            "subspace", worst, 0.0, 1e-12))
    return checks


_SUITES = {
    "optical": _suite_optical,
    "teleport": _suite_teleport,
    "mb": _suite_mb,
}
SUITE_ORDER = ("optical", "teleport", "mb")


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
    names = SUITE_ORDER if suite == "all" else (suite,)
    checks: list[dict] = []
    for name in names:
        checks.extend(_SUITES[name](np.random.default_rng(seed), trials))
    return Report.build(suite, seed, checks)


def cmd_verify(suite: str, seed: int, trials: int, json_path: str | None = None) -> int:
    report = run_suite(suite, seed, trials)
    print(report.to_text())
    if json_path is not None:
        try:
            Path(json_path).write_text(
                json.dumps(report.to_json_dict(), indent=2) + "\n")
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    return 0 if report.passed else 1


def _port_inputs(*ports: str) -> list[str]:
    """Row texts of the polarization basis on ports, first port leftmost."""
    return ["|" + " ".join(f"{port}.{pol}=1" for port, pol in zip(ports, pols)) + ">"
            for pols in itertools.product((H, V), repeat=len(ports))]


def _qubit_inputs(n: int) -> list[str]:
    return [f"|{index:0{n}b}>" for index in range(2 ** n)]


_HALF = 2.0 ** -0.5
_PLUS_PAIR = bell_state(PSI_PLUS, ("A1", "A2"))

# Gate name -> (note, row texts, amplitude-in builders). Each builder runs on
# the basis of its own consecutive block of rows.
TRUTH_TABLES = {
    "f_gate": ("balanced auxiliary photon on A", _port_inputs("IN"),
               [filter_gate(f_gate, (_HALF, _HALF))]),
    "parity_check": ("auxiliary photon fixed to H", _port_inputs("IN"),
                     [filter_gate(f_gate, (1.0, 0.0))]),
    "d_cnot": ("control photon on A (consumed), target on IN", _port_inputs("A", "IN"),
               [filter_gate(destructive_cnot, control) for control in np.eye(2)]),
    "e_cnot": ("control on IN, target on IN'", _port_inputs("IN", "IN'"), [ecnot_gate]),
    "telegate_t": ("variant swap, auxiliary pair in the plus Bell state", _qubit_inputs(1),
                   [qubit_gate(telegate_t, ("Q",), "Q", _PLUS_PAIR, variant="swap")]),
    "telegate_tp": ("variant parity_filter, auxiliary pair in the plus Bell state",
                    _qubit_inputs(1),
                    [qubit_gate(telegate_t, ("Q",), "Q", _PLUS_PAIR, variant="parity_filter")]),
    "cz2t": ("controlled phase from two telegates", _qubit_inputs(2),
             [qubit_gate(cz_via_two_telegates, ("Q1", "Q2"))]),
    "cnot_cz": ("CNOT from the telegate controlled phase", _qubit_inputs(2),
                [qubit_gate(cnot_via_cz, ("Q1", "Q2"))]),
}


def cmd_truth_table(gate: str) -> int:
    note, texts, builders = TRUTH_TABLES[gate]
    block = np.eye(len(texts) // len(builders))
    rows = [row for builder in builders for row in gate_truth_table(builder, block)]
    print(f"truth-table: {gate}")
    print(f"# {note}")
    width = max(map(len, texts))
    for text, row in zip(texts, rows, strict=True):
        out = row.output_state
        if out is None:
            shown = "(blocked)"
        else:
            shown = _fmt_qubit(out) if isinstance(out, QubitState) else _fmt_fock(out)
        print(f"  {text:<{width}}  p={row.probability:.12g}  ->  {shown}")
    return 0


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("PGW_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SystemExit(f"error: PGW_SEED must be an integer, got {env!r}")
    return DEFAULT_SEED


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pgw",
        description="post-selected photonic CNOT workbench: simulate circuits, "
                    "tabulate gates, and verify optical/teleport equivalences")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a circuit file")
    p_sim.add_argument("path", help="circuit file (pgw-circuit v1 format)")

    p_tt = sub.add_parser("truth-table", help="print a gate's basis-input table")
    p_tt.add_argument("gate", choices=sorted(TRUTH_TABLES))

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("--suite", choices=("all",) + SUITE_ORDER, default="all")
    p_ver.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: PGW_SEED, then 12345)")
    p_ver.add_argument("--trials", type=int, default=100,
                       help="randomized trials per check; 0 keeps only "
                            "deterministic checks")
    p_ver.add_argument("--json", dest="json_path", default=None,
                       help="also write the report as JSON to this path")

    args = parser.parse_args(argv)
    if args.command == "simulate":
        return cmd_simulate(args.path)
    if args.command == "truth-table":
        return cmd_truth_table(args.gate)
    return cmd_verify(args.suite, _resolve_seed(args.seed), args.trials, args.json_path)


if __name__ == "__main__":
    raise SystemExit(main())
