"""Workbench command line: simulate circuit files, tabulate gates, verify.

Subcommands
    simulate <file>          run a circuit file, print its measurement branches
    truth-table <gate>       print a gate's basis-input table
    verify [--suite S] [--seed N] [--trials M] [--json PATH]
                             run check suites (optical, teleport, mb, or all)
                             and exit 1 if any check fails

The suites and gate tables live in pgw.verify. The seed defaults to the
PGW_SEED environment variable, then 12345; the --seed flag overrides both.
A seed or trial count that is not a non-negative integer exits 2. Reports
for the same (suite, seed, trials) are byte-identical between runs.
--trials 0 keeps only deterministic checks.

Circuit file format (UTF-8; header line `pgw-circuit v1`, then directives):
    register IN A D0 D1        spatial ports, each an H and a V mode
    cutoff 4                   photon cap on each term (default 4, at most 170)
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
A `#` starts a comment that runs to the end of its line; no port label,
number or count contains one. `gate` names: f_gate, parity_check,
d_cnot (ports: target control d0 d1), e_cnot (ports: control target aux
aux' d0 d1 d0' d1'). All detections are evaluated on the state after the
full element pipeline, so expanded corrections are conjugated through any
elements that follow their detector in the original staged circuit.
The gate expanders and the runner that applies elements, detections and
corrections live in optical_gates; the library gates run through the same
runner. Each `detect` line and each outcome of a `gate` line is one
fock_core.DetectionPattern, and outcome labels are unique across both kinds
of line. An element's port or mode arguments are distinct. Detection
patterns must be pairwise exclusive: two patterns that agree on every mode
they both constrain are an error. A `correct` step may not act on a mode
that its branch's detection consumes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fock_core import (
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
)
from .optical_elements import ELEMENTS, ElementKind, ElementSpec
from .optical_gates import GATE_EXPANDERS, gate_truth_table, run_pipeline
from .qubit_teleport import QubitState
from .verify import SUITES, TRUTH_TABLES, run_suite

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

    labels: tuple[str, ...]
    cutoff: int
    terms: list[tuple[complex, dict[ModeId, int]]] = field(default_factory=list)
    elements: list[ElementSpec] = field(default_factory=list)
    detections: list[DetectionPattern] = field(default_factory=list)
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
    _parse_port(mode.spatial_label, labels, line, col)
    return mode


def _parse_port(text: str, labels: tuple[str, ...], line: int, col: int) -> str:
    if text not in labels:
        raise CircuitParseError(f"port {text!r} not declared in register", line, col)
    return text


def _parse_element_tokens(tokens: list[tuple[str, int]], labels: tuple[str, ...],
                          line: int) -> ElementSpec:
    """KIND, its port or mode arguments, then an angle if the kind takes one."""
    if not tokens:
        raise CircuitParseError("missing element kind", line, 1)
    (word, col), args = tokens[0], tokens[1:]
    if word not in ELEMENTS:  # ElementKind members hash and compare as their values
        raise CircuitParseError(f"unknown element kind {word!r}", line, col)
    _, arity, modes, angle = ELEMENTS[word]
    if len(args) != arity + angle:
        noun = "mode" if modes else "port"
        raise CircuitParseError(f"element {word} takes {arity} {noun} argument(s)"
                                + " and an angle" * angle, line, col)
    parse = _parse_mode if modes else _parse_port
    targets = tuple(parse(t, labels, line, c) for t, c in args[:arity])
    for k in range(1, arity):
        if targets[k] in targets[:k]:
            raise CircuitParseError(f"element {word} repeats argument {args[k][0]!r}",
                                    line, args[k][1])
    degrees = _parse_float(args[-1][0], "an angle in degrees", line, args[-1][1]) if angle else 0.0
    ports, mode_ids = ((), targets) if modes else (targets, ())
    return ElementSpec(ElementKind(word), ports, mode_ids, degrees)


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


def parse_circuit(text: str) -> CircuitFile:
    labels: tuple[str, ...] | None = None
    cutoff = DEFAULT_CUTOFF
    cutoff_line = None
    header_seen = False
    terms: list[tuple[complex, dict[ModeId, int]]] = []
    photons: list[tuple[int, int, int]] = []  # (photons, line, column) per term
    elements: list[ElementSpec] = []
    detections: dict[str, DetectionPattern] = {}  # by label, from `detect` and `gate` lines
    corrections: dict[str, list[ElementSpec]] = {}
    # Each `correct` step: (branch label, element, label column, argument columns, line).
    correct_steps: list[tuple[str, ElementSpec, int, list[int], int]] = []

    def need_register(line: int, col: int) -> tuple[str, ...]:
        if labels is None:
            raise CircuitParseError("register must be declared first", line, col)
        return labels

    def unused_label(label: str, line: int, col: int) -> str:
        if label in detections:
            raise CircuitParseError(f"detection label {label!r} used twice", line, col)
        return label

    for line_no, raw in enumerate(text.splitlines(), 1):
        tokens = _line_tokens(raw.partition("#")[0])  # '#' starts a comment
        if not tokens:
            continue
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
                if any(c in name for c in ".,="):
                    raise CircuitParseError(
                        f"port label {name!r} may not contain '.', ',', or '='", line_no, ncol)
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
            counts = _parse_counts(rest[1:], decl, line_no)
            terms.append((amp, counts))
            photons.append((sum(counts.values()), line_no, (rest[1:] or rest)[0][1]))
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
            for pattern in g_detections:
                detections[unused_label(pattern.label, line_no, ncol)] = pattern
            for label, fixes in g_corrections.items():
                corrections.setdefault(label, []).extend(fixes)
        elif word == "detect":
            decl = need_register(line_no, col)
            if len(rest) < 3:
                raise CircuitParseError("detect needs a label, an index, and counts",
                                        line_no, col)
            label = unused_label(rest[0][0], line_no, rest[0][1])
            j = _parse_int(rest[1][0], "a feed-forward index", line_no, rest[1][1])
            if j not in (0, 1):
                raise CircuitParseError("feed-forward index must be 0 or 1",
                                        line_no, rest[1][1])
            counts = _parse_counts(rest[2:], decl, line_no)
            detections[label] = DetectionPattern(counts, label=label, j=j)
        elif word == "correct":
            decl = need_register(line_no, col)
            if not rest:
                raise CircuitParseError("correct needs a branch label", line_no, col)
            label, label_col = rest[0]
            element = _parse_element_tokens(rest[1:], decl, line_no)
            corrections.setdefault(label, []).append(element)
            correct_steps.append((label, element, label_col, [c for _, c in rest[2:]], line_no))
        else:
            raise CircuitParseError(f"unknown directive {word!r}", line_no, col)

    if not header_seen:
        raise CircuitParseError(f"expected header {HEADER!r}", 1, 1)
    if labels is None:
        raise CircuitParseError("missing register directive",
                                len((text + "?").splitlines()), 1)
    for n, line_no, col in photons:  # checked here, as cutoff may follow the terms
        if n > cutoff:
            raise CircuitParseError(f"term holds {n} photons, more than the cutoff {cutoff}",
                                    line_no, col)
    for label, element, label_col, columns, line_no in correct_steps:
        if label not in detections:
            raise CircuitParseError(f"correction for unknown branch {label!r}",
                                    line_no, label_col)
        for modes, col in zip(_argument_modes(element), columns):
            for mode in modes:
                if mode in detections[label].measured:
                    raise CircuitParseError(
                        f"correction for branch {label!r} acts on mode {mode}, "
                        "which its detection consumes", line_no, col)
    return CircuitFile(labels, cutoff, terms, elements, list(detections.values()), corrections)


@dataclass
class SimulationResult:
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
        return SimulationResult(initial, state, (), 0.0)
    total = sum(b.probability for b in branches)
    rejected = initial - total
    if rejected < -CONSERVATION_TOL:
        raise ValueError(f"detected branches carry {total!r} of the initial norm^2 "
                         f"{initial!r}; the detection patterns overlap")
    return SimulationResult(initial, None, branches, rejected)


def _require_exclusive(detections: list[DetectionPattern]) -> None:
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
        data = Path(path).read_bytes()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        cf = parse_circuit(data.decode("utf-8"))
        result = run_circuit(cf)
    except UnicodeDecodeError as e:  # at the first bad byte, counting lines as the parser does
        lines = (data[:e.start].decode("utf-8") + "?").splitlines()
        print(f"{path}:{len(lines)}:{len(lines[-1])}: error: invalid UTF-8 byte "
              f"0x{data[e.start]:02x}", file=sys.stderr)
        return 2
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


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _resolve_seed(flag_value: int | None, parser: argparse.ArgumentParser) -> int:
    if flag_value is not None:
        return flag_value
    try:
        return _non_negative_int(os.environ.get("PGW_SEED", str(DEFAULT_SEED)))
    except argparse.ArgumentTypeError as e:
        parser.error(f"PGW_SEED: {e}")


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
    p_ver.add_argument("--suite", choices=("all", *SUITES), default="all")
    p_ver.add_argument("--seed", type=_non_negative_int, default=None,
                       help="RNG seed (default: PGW_SEED, then 12345)")
    p_ver.add_argument("--trials", type=_non_negative_int, default=100,
                       help="randomized trials per check; 0 keeps only "
                            "deterministic checks")
    p_ver.add_argument("--json", dest="json_path", default=None,
                       help="also write the report as JSON to this path")

    args = parser.parse_args(argv)
    if args.command == "simulate":
        return cmd_simulate(args.path)
    if args.command == "truth-table":
        return cmd_truth_table(args.gate)
    return cmd_verify(args.suite, _resolve_seed(args.seed, p_ver), args.trials, args.json_path)


if __name__ == "__main__":
    raise SystemExit(main())
