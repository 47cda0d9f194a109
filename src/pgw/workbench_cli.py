"""Workbench command line: simulate circuit files, tabulate gates, verify.

Subcommands
    simulate <file>          run a circuit file, print its measurement branches
    truth-table <gate>       print a gate's basis-input table
    verify [--suite S] [--seed N] [--trials M] [--json PATH]
                             run check suites (optical, teleport, mb, or all)
                             and exit 1 if any check fails

The suites and gate tables live in pgw.verify. The seed defaults to the
PGW_SEED environment variable, then 12345; the --seed flag overrides both.
A seed or trial count that is not a non-negative integer, written as
numbers in circuit files are (ASCII, no `_`), exits 2. Reports
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
A parsed circuit holds one optical_gates.Pipeline of its elements and its
outcomes, the value that each gate expander returns and that the library
gates run too. Each `detect` line and each outcome of a `gate` line is one
outcome: a fock_core.DetectionPattern, with a label unique across both kinds
of line, and its corrections in file order (a gate outcome's own at its
`gate` line, each `correct` line at its own). An element's port or mode
arguments are distinct. Detection patterns must be pairwise exclusive: two
patterns that agree on every mode they both constrain are an error, raised
when the parser builds the Pipeline. A `correct` step may not act on a mode
that its branch's detection consumes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

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
from .mb_bridge import GATES, BranchOperators, branch_probabilities, mb_decode
from .optical_elements import ELEMENTS, ElementSpec
from .optical_gates import GATE_EXPANDERS, Pipeline
from .qubit_teleport import QubitState
from .verify import SUITES, TRUTH_TABLES, run_suite

DEFAULT_SEED = 12345
CONSERVATION_TOL = 1e-11
# 170! is the largest factorial a float holds; rows of phi(U) scale by ratios up to n!.
MAX_CUTOFF = 170
HEADER = "pgw-circuit v1"


class CircuitParseError(ValueError):
    """Syntax or reference error in a circuit file, with position info."""

    def __init__(self, reason: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {reason}")
        self.reason = reason
        self.line = line
        self.column = column


@dataclass
class CircuitFile:
    """Parsed circuit: port labels in file order, the initial ket on the
    circuit's register (its cutoff too), and the Pipeline of its elements
    and outcomes."""

    labels: tuple[str, ...]
    initial: FockKet
    pipeline: Pipeline


def _ascii_number(parse, text: str):
    """parse(text), int or float, or None: ASCII only and without underscores,
    which int() and float() alone also read (`1_0`, non-ASCII digits)."""
    try:
        return parse(text) if text.isascii() and "_" not in text else None
    except ValueError:
        return None


class _Reader:
    """The state of one parse. An argument kind reads the line's tokens from
    index i, a compound kind to the end of the line; a builder takes what the
    kinds read. An error names a token by index; its column is found then."""

    def __init__(self):
        self.where: tuple[int, str] = (1, "")  # line number, line without its comment
        self.ports: dict[str, None] | None = None  # the register's labels, in order
        self.cutoff: int | None = None
        self.modes: dict[str, ModeId] = {}  # each mode token read so far, as "A.H"
        self.terms: list[tuple[complex, dict[ModeId, int], tuple[int, str]]] = []
        self.elements: list[ElementSpec] = []
        self.detections: dict[str, DetectionPattern] = {}  # by label, from `detect` and `gate`
        # (label, element, where) per correction in file order, from `gate` and `correct`.
        self.corrections: list[tuple[str, ElementSpec, tuple[int, str]]] = []

    def error(self, reason: str, index: int, where=None) -> CircuitParseError:
        """The error at token `index` of where (default: this line); column 1 past its end."""
        line_no, code = where or self.where
        starts = [m.start() + 1 for m in re.finditer(r"\S+", code)]
        return CircuitParseError(reason, line_no, starts[index] if index < len(starts) else 1)

    def read(self, tokens: list[str]) -> None:
        if tokens[0] not in DIRECTIVES:
            raise self.error(f"unknown directive {tokens[0]!r}", 0)
        kinds, least, most, arity_error, build = DIRECTIVES[tokens[0]]
        setting = isinstance(build, str)
        if setting and getattr(self, build) is not None:
            raise self.error(f"{tokens[0]} declared twice", 0)
        if not setting and self.ports is None:
            raise self.error("register must be declared first", 0)
        if len(tokens) - 1 < least or most is not None and len(tokens) - 1 > most:
            raise self.error(arity_error, 0)
        values = [kind(self, tokens, i) for i, kind in enumerate(kinds, 1)]
        if setting:
            setattr(self, build, *values)
        else:
            build(self, *values)

    def number(self, parse, text: str, what: str, i: int):
        """An int, or a finite float, read by _ascii_number."""
        value = _ascii_number(parse, text)
        if value is None:
            raise self.error(f"expected {what}, got {text!r}", i)
        if parse is float and not math.isfinite(value):
            raise self.error(f"expected {what}, got non-finite {text!r}", i)
        return value

    def port(self, text: str, i: int) -> str:
        if text not in self.ports:
            raise self.error(f"port {text!r} not declared in register", i)
        return text

    def mode(self, text: str, i: int) -> ModeId:
        if text not in self.modes:
            try:
                self.modes[text] = ModeId.parse(text)
            except ValueError as e:
                raise self.error(str(e), i) from None
            self.port(self.modes[text].spatial_label, i)
        return self.modes[text]

    def port_labels(self, tokens: list[str], i: int) -> dict[str, None]:
        """Kind: new port labels, to the end of the line."""
        labels: dict[str, None] = {}
        for k in range(i, len(tokens)):
            if "." in tokens[k] or "," in tokens[k] or "=" in tokens[k]:
                raise self.error(f"port label {tokens[k]!r} may not contain '.', ',', or '='", k)
            if tokens[k] in labels:
                raise self.error(f"port {tokens[k]!r} declared twice", k)
            labels[tokens[k]] = None
        return labels

    def cap(self, tokens: list[str], i: int) -> int:
        cap = self.number(int, tokens[i], "a photon cap", i)
        if not 1 <= cap <= MAX_CUTOFF:
            raise self.error("cutoff must be at least 1" if cap < 1
                             else f"cutoff may not exceed {MAX_CUTOFF}", i)
        return cap

    def amplitude(self, tokens: list[str], i: int) -> complex:
        left, sep, right = tokens[i].partition(",")
        if not sep:
            raise self.error(f"expected amplitude RE,IM, got {tokens[i]!r}", i)
        amp = complex(self.number(float, left, "a real part", i),
                      self.number(float, right, "an imaginary part", i))
        # No term of a ket of norm at most 1 has a larger part, and squares stay far from overflow.
        if max(abs(amp.real), abs(amp.imag)) > 1.0 + NORM_SLACK:
            raise self.error(f"amplitude parts must lie in [-1, 1], got {tokens[i]!r}", i)
        return amp

    def counts(self, tokens: list[str], i: int) -> dict[ModeId, int]:
        """Kind: MODE=COUNT tokens, to the end of the line."""
        counts: dict[ModeId, int] = {}
        for k in range(i, len(tokens)):
            mode_text, sep, count_text = tokens[k].partition("=")
            if not sep:
                raise self.error(f"expected MODE=COUNT, got {tokens[k]!r}", k)
            mode = self.mode(mode_text, k)
            count = self.number(int, count_text, "a photon count", k)
            if count < 0:
                raise self.error("photon counts must be nonnegative", k)
            if mode in counts:
                raise self.error(f"mode {mode} listed twice", k)
            counts[mode] = count
        return counts

    def element(self, tokens: list[str], i: int) -> ElementSpec:
        """Kind: KIND, its port or mode arguments, then an angle if the kind
        takes one, to the end of the line."""
        if i == len(tokens):
            raise self.error("missing element kind", 0)
        word = tokens[i]
        if word not in ELEMENTS:
            raise self.error(f"unknown element kind {word!r}", i)
        _, arity, modes, angle = ELEMENTS[word]
        if len(tokens) - i - 1 != arity + angle:
            raise self.error(f"element {word} takes {arity} {'mode' if modes else 'port'} "
                             "argument(s)" + " and an angle" * angle, i)
        parse = self.mode if modes else self.port
        targets: tuple = ()
        for k in range(i + 1, i + 1 + arity):
            if (target := parse(tokens[k], k)) in targets:
                raise self.error(f"element {word} repeats argument {tokens[k]!r}", k)
            targets += (target,)
        last = len(tokens) - 1
        degrees = self.number(float, tokens[last], "an angle in degrees", last) if angle else 0.0
        return ElementSpec(word, targets, degrees)

    def gate(self, tokens: list[str], i: int) -> Pipeline:
        """Kind: NAME, then its ports, to the end of the line; the gate's Pipeline."""
        name = tokens[i]
        if name not in GATE_EXPANDERS:
            raise self.error(f"unknown gate {name!r}", i)
        expander, arity = GATE_EXPANDERS[name]
        if len(tokens) - i - 1 != arity:
            raise self.error(f"gate {name} takes {arity} ports", i)
        ports = [self.port(tokens[k], k) for k in range(i + 1, len(tokens))]
        if len(set(ports)) != arity:
            raise self.error(f"gate {name} ports must be distinct", i)
        return expander(*ports)

    def label(self, tokens: list[str], i: int) -> str:
        return tokens[i]

    def new_label(self, tokens: list[str], i: int, label: str | None = None) -> str:
        """Kind: a detection label not used before (or `label`, a gate outcome)."""
        label = tokens[i] if label is None else label
        if label in self.detections:
            raise self.error(f"detection label {label!r} used twice", i)
        return label

    def index(self, tokens: list[str], i: int) -> int:
        j = self.number(int, tokens[i], "a feed-forward index", i)
        if j not in (0, 1):
            raise self.error("feed-forward index must be 0 or 1", i)
        return j

    def add_term(self, amp: complex, counts: dict[ModeId, int]) -> None:
        self.terms.append((amp, counts, self.where))  # checked against the cutoff at the end

    def add_element(self, element: ElementSpec) -> None:
        self.elements.append(element)

    def add_gate(self, pipeline: Pipeline) -> None:
        self.elements.extend(pipeline.elements)
        for pattern, fixes in pipeline.outcomes:
            self.detections[self.new_label(None, 1, pattern.label)] = pattern
            self.corrections += [(pattern.label, fix, self.where) for fix in fixes]

    def add_detection(self, label: str, j: int, counts: dict[ModeId, int]) -> None:
        self.detections[label] = DetectionPattern(counts, label=label, j=j)

    def add_correction(self, label: str, element: ElementSpec) -> None:
        self.corrections.append((label, element, self.where))  # checked at the end


# The one table of directives. Name -> (argument kinds, fewest and most
# arguments (None: no limit), the error for any other number, builder). A
# setting's builder is the attribute it sets: a setting is declared once, before
# or after the register, which every other directive needs first.
_R = _Reader
DIRECTIVES = {
    "register": ((_R.port_labels,), 1, None, "register needs at least one port", "ports"),
    "cutoff": ((_R.cap,), 1, 1, "cutoff takes one integer", "cutoff"),
    "term": ((_R.amplitude, _R.counts), 1, None, "term needs an amplitude", _R.add_term),
    "element": ((_R.element,), 0, None, "", _R.add_element),
    "gate": ((_R.gate,), 1, None, "gate needs a name", _R.add_gate),
    "detect": ((_R.new_label, _R.index, _R.counts), 3, None,
               "detect needs a label, an index, and counts", _R.add_detection),
    "correct": ((_R.label, _R.element), 1, None, "correct needs a branch label",
                _R.add_correction),
}


def parse_circuit(text: str) -> CircuitFile:
    reader = _Reader()
    header_seen = False
    for line_no, raw in enumerate(text.splitlines(), 1):
        reader.where = line_no, raw.partition("#")[0]  # '#' starts a comment
        tokens = reader.where[1].split()
        if not tokens:
            continue
        if header_seen:
            reader.read(tokens)
        elif tokens != HEADER.split():
            raise reader.error(f"expected header {HEADER!r}", 0)
        header_seen = True
    if not header_seen:
        raise CircuitParseError(f"expected header {HEADER!r}", 1, 1)
    if reader.ports is None:
        raise CircuitParseError("missing register directive", len((text + "?").splitlines()), 1)
    cutoff = DEFAULT_CUTOFF if reader.cutoff is None else reader.cutoff
    register = Register(reader.ports, cutoff)
    initial: dict[tuple[int, ...], complex] = {}  # amplitude per occupation
    for amp, counts, where in reader.terms:
        n = sum(counts.values())
        if n > cutoff:  # at the first count
            raise reader.error(f"term holds {n} photons, more than the cutoff {cutoff}", 2, where)
        occ = [0] * register.n_modes
        for mode, count in counts.items():
            occ[register.index_of(mode)] = count
        key = tuple(occ)
        initial[key] = initial.get(key, 0.0 + 0.0j) + amp
    sq = sum(abs(c) ** 2 for c in initial.values())
    if sq > 1.0 + NORM_SLACK:  # FockKet's bound, reported at the last term's amplitude
        raise reader.error(f"initial state has squared norm {sq!r}, more than 1",
                           1, reader.terms[-1][2])
    fixes: dict[str, list[ElementSpec]] = {label: [] for label in reader.detections}
    for label, element, where in reader.corrections:
        if label not in fixes:
            raise reader.error(f"correction for unknown branch {label!r}", 1, where)
        # The arguments follow `correct LABEL KIND`; a port argument acts on both its modes.
        modes = ELEMENTS[element.kind][2]
        for k, arg in enumerate(element.args, 3):
            for mode in (arg,) if modes else (ModeId(arg, H), ModeId(arg, V)):
                if mode in reader.detections[label].measured:
                    raise reader.error(f"correction for branch {label!r} acts on mode {mode}, "
                                       "which its detection consumes", k, where)
        fixes[label].append(element)
    # Counts and amplitudes were checked as read, photons and the norm above: none again.
    # The Pipeline checks that the detections are exclusive.
    return CircuitFile(tuple(reader.ports), FockKet(register, initial, validate=False),
                       Pipeline(reader.elements, [(pattern, fixes[label])
                                                  for label, pattern in reader.detections.items()]))


@dataclass
class SimulationResult:
    initial_norm_squared: float
    final_state: FockKet | None
    branches: tuple[Branch, ...]
    rejected_probability: float


def run_circuit(cf: CircuitFile) -> SimulationResult:
    initial = cf.initial.norm_squared()
    state, branches = cf.pipeline.run(cf.initial)
    if abs(state.norm_squared() - initial) > CONSERVATION_TOL:
        raise ValueError(f"the elements took norm^2 from {initial!r} to {state.norm_squared()!r}:"
                         " precision loss in the n-photon amplitudes (too many photons)")
    if not cf.pipeline.outcomes:
        return SimulationResult(initial, state, (), 0.0)
    # The Pipeline's patterns are exclusive, so the branches never carry more than initial.
    return SimulationResult(initial, None, branches,
                            initial - sum(b.probability for b in branches))


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


def _fmt_qubit(amps: list[complex]) -> str:
    n = len(amps).bit_length() - 1
    parts = [f"({_fmt_c(amp)}) |{index:0{n}b}>"
             for index, amp in enumerate(amps) if abs(amp) > 1e-12]
    return " + ".join(parts) or "0"


def _normalized(amps: list[complex]) -> list[complex]:
    """amps over their norm, as a multiple of the norm's reciprocal."""
    scale = 1.0 / math.hypot(*map(abs, amps))
    return [a * scale for a in amps]


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
    print(f"register: {' '.join(cf.labels)} (cutoff {cf.initial.register.cutoff})")
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
    note, texts, names = TRUTH_TABLES[gate]
    ops, enc = BranchOperators(), GATES[names[0]][2]
    # Row i of a block is column i of each of its configuration's K_b.
    columns = [cols for name in names for cols in zip(*(zip(*k) for k in ops[name].values()))]
    print(f"truth-table: {gate}")
    print(f"# {note}")
    width = max(map(len, texts))
    for text, cols in zip(texts, columns, strict=True):
        out = next((_normalized(c) for c in cols if any(c)), None)
        if out is None:
            shown = "(blocked)"
        elif enc is None:
            shown = _fmt_qubit(out)
        else:
            shown = _fmt_fock(mb_decode(QubitState(enc.qubit_labels, out), enc))
        p = sum(branch_probabilities(list(zip(*cols))))
        print(f"  {text:<{width}}  p={p:.12g}  ->  {shown}")
    return 0


def _non_negative_int(text: str) -> int:
    """An int of at least 0, read by the circuit files' rule (_ascii_number)."""
    value = _ascii_number(int, text)
    if value is None or value < 0:
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
