"""Composite post-selected polarization gates with feed-forward corrections.

The building block is a two-photon parity-check filter (f_gate): a
polarizing beam splitter couples the input port to an auxiliary port, a
half-wave plate at 22.5 degrees rotates the auxiliary photon, and the
auxiliary port is split onto two number-resolving detectors. Exactly one
detected photon is accepted; the detector that fired fixes the correction
index j, and j = 1 triggers a phase flip on the input port.

With the auxiliary photon in (|H> + |V>)/sqrt(2) the filter passes any
input with success probability 1/2 (the two accepted branches carry 1/4
each); with |H> or |V> it acts as a parity check passing only the matching
polarization component. Composing the filter with half-wave plates gives a
destructive CNOT (control photon consumed, success 1/2), and adding a
parity check fed by one half of an entangled pair gives the full
post-selected CNOT on two polarization qubits (success 1/4, four accepted
detector combinations carrying 1/16 each).

A gate or a whole circuit is one Pipeline value: its elements, its
heralded outcomes (each a fock_core.DetectionPattern with its label and j)
and the corrections of each outcome. Building one checks that its patterns
are pairwise exclusive. Each gate is written once, as an expander that
returns its Pipeline; e_cnot's expander joins those of its two stages into
one pattern per outcome, corrections included. Pipeline.run applies the
elements to a state as one composed mode transform, passes the patterns
straight to measure_outcomes, and applies each outcome's corrections as one
composed transform too. The library gates run their expansion and drop the
emptied auxiliary ports; the circuit-file `gate` directive (workbench_cli)
splices the same expansion into a circuit's Pipeline, which run_circuit
runs the same way. filter_gate and ecnot_gate run the library gates as
functions of their input qubits' amplitudes, which
mb_bridge.compile_branches turns into the branch operators K_b that the
checks and the truth tables read; a GateResult holds only the branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .fock_core import (
    HALF,
    Branch,
    DetectionPattern,
    FockKet,
    GateResult,
    H,
    ModeId,
    ModeTransform,
    Register,
    V,
    apply_mode_transform,
    drop_vacuum_ports,
    measure_outcomes,
    polarization_ket,
    require_unitary,
    single_photon,
    tensor,
)
from .optical_elements import ElementSpec

ROTATION_DEG = 22.5


@dataclass(frozen=True)
class Pipeline:
    """A gate or a circuit: elements, then detections, each outcome's corrections.

    elements and detections are stored as tuples; corrections maps an
    outcome label to its list of elements. The patterns must be pairwise
    exclusive: two patterns can both fire unless some mode they both
    constrain has different counts in them, and such a pair would count one
    outcome twice.
    """

    elements: tuple[ElementSpec, ...]
    detections: tuple[DetectionPattern, ...]
    corrections: Mapping[str, list[ElementSpec]]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "detections", tuple(self.detections))
        for i, det in enumerate(self.detections):
            counts = dict(det.required)
            for other in self.detections[i + 1:]:
                if all(counts.get(mode, n) == n for mode, n in other.required):
                    raise ValueError(f"detections {det.label!r} and {other.label!r} are not "
                                     "exclusive: they agree on every mode they both constrain")

    def run(self, state: FockKet) -> tuple[FockKet, tuple[Branch, ...]]:
        """Apply the elements, then run every detection on the resulting state
        and apply that outcome's corrections to its survivors.

        The elements, and each outcome's corrections, compose to one mode
        unitary each (_compose), applied once. Against one pass per element,
        |20, 20> through 12 random plates, each followed by a pbs, agrees to
        1e-11 per amplitude (about 5e-13); |30, 30> only to about 5e-10.

        Returns the state after the elements and one branch per detection, in
        order. Detected modes are traced out of each branch; every other port,
        emptied or not, stays in its register.
        """
        state = apply_mode_transform(state, _compose(state.register, self.elements))
        branches = []
        for raw in measure_outcomes(state, self.detections):
            out = raw.conditional_state
            fixes = self.corrections.get(raw.outcome_label)
            if fixes:
                out = apply_mode_transform(out, _compose(out.register, fixes))
            branches.append(Branch(raw.outcome_label, raw.j, out, raw.probability))
        return state, tuple(branches)


def _expand_f_gate(inp: str, aux: str, d0: str, d1: str) -> Pipeline:
    """Filter stage: combine, rotate, route to detectors, flip on outcome 1."""
    elements = (
        ElementSpec("pbs", (inp, aux)),
        ElementSpec("hwp", (aux,), ROTATION_DEG),
        ElementSpec("swap", (ModeId(aux, H), ModeId(d0, H))),
        ElementSpec("swap", (ModeId(aux, V), ModeId(d1, V))),
    )
    modes = (ModeId(d0, H), ModeId(d0, V), ModeId(d1, H), ModeId(d1, V))
    detections = (DetectionPattern(dict(zip(modes, (1, 0, 0, 0))), label=d0, j=0),
                  DetectionPattern(dict(zip(modes, (0, 0, 0, 1))), label=d1, j=1))
    return Pipeline(elements, detections, {d1: [ElementSpec("pc", (inp,))]})


def _expand_d_cnot(target: str, control: str, d0: str, d1: str) -> Pipeline:
    """Plate-sandwiched filter. The closing plate sits before detection here,
    so the outcome-1 phase flip conjugates to a polarization exchange."""
    f = _expand_f_gate(target, control, d0, d1)
    plate = ElementSpec("hwp", (target,), ROTATION_DEG)
    control_plate = ElementSpec("hwp", (control,), ROTATION_DEG)
    return Pipeline((plate, control_plate, *f.elements, plate), f.detections,
                    {d1: [ElementSpec("swap", (ModeId(target, H), ModeId(target, V)))]})


def _expand_e_cnot(control: str, target: str, aux: str, aux2: str,
                   d0: str, d1: str, d0b: str, d1b: str) -> Pipeline:
    """Parity stage on (control, aux), then the plate-sandwiched stage on
    (target, aux2); each outcome joins one of each stage, with its corrections."""
    s1 = _expand_f_gate(control, aux, d0, d1)
    s2 = _expand_d_cnot(target, aux2, d0b, d1b)
    detections = []
    corrections: dict[str, list[ElementSpec]] = {}
    for b1 in s1.detections:
        for b2 in s2.detections:
            label = f"{b1.label},{b2.label}"
            detections.append(DetectionPattern(dict(b1.required + b2.required),
                                               label=label, j=b2.j))
            fixes = s1.corrections.get(b1.label, []) + s2.corrections.get(b2.label, [])
            if fixes:
                corrections[label] = fixes
    return Pipeline(s1.elements + s2.elements, detections, corrections)


# Gate name -> (expander returning its Pipeline, number of port arguments), for circuit files.
GATE_EXPANDERS = {
    "f_gate": (_expand_f_gate, 4),
    "parity_check": (_expand_f_gate, 4),
    "d_cnot": (_expand_d_cnot, 4),
    "e_cnot": (_expand_e_cnot, 8),
}


def _compose(register: Register, elements: Sequence[ElementSpec]) -> ModeTransform:
    """The elements as one checked mode unitary U = U_k ... U_1 on register.

    U is kept as row[p] = {q: U_pq}: each element's block, checked for
    unitarity, rewrites only its own rows. U is checked and trimmed once as
    a ModeTransform, so phi(U) = phi(U_k) ... phi(U_1) applies in one pass.
    """
    rows: dict[int, dict[int, complex]] = {}
    for element in elements:
        modes, block = element.block(register)
        require_unitary(block)
        old = [rows.get(m, {m: 1 + 0j}) for m in modes]
        for m, entries in zip(modes, block):
            rows[m] = new = {}
            for b, row in zip(entries, old):
                if b:
                    for q, x in row.items():
                        new[q] = new.get(q, 0j) + b * x
    touched = sorted(rows)
    return ModeTransform(register, [[rows[p].get(q, 0j) for q in touched] for p in touched],
                         touched)


def _run_gate(state: FockKet, pipeline: Pipeline, aux_ports: Sequence[str]) -> GateResult:
    """Run an expanded gate and drop its emptied auxiliary ports."""
    _, branches = pipeline.run(state)
    return GateResult(tuple(
        Branch(b.outcome_label, b.j, drop_vacuum_ports(b.conditional_state, aux_ports),
               b.probability) for b in branches))


def _require_port_photons(state: FockKet, ports: Sequence[str], count: int) -> None:
    """Every term holds exactly count photons (0 or 1) in each of ports."""
    for port in ports:
        idx = state.register.port_index(port)
        for occ in state.terms:
            if sum(occ[i] for i in idx) != count:
                raise ValueError(f"expected exactly one photon in port {port!r}" if count
                                 else f"expected vacuum in port {port!r}")


def _run_filter(expander, joint: FockKet, ports: tuple[str, str, str, str]) -> GateResult:
    """f_gate or destructive_cnot on (input, aux, d0, d1): check, then run."""
    if not all(isinstance(port, str) for port in ports):
        raise ValueError(f"filter ports must be strings, got {ports}")
    if len(set(ports)) != 4:
        raise ValueError(f"filter ports must be distinct, got {ports}")
    inp, aux, d0, d1 = ports
    _require_port_photons(joint, (inp, aux), 1)
    _require_port_photons(joint, (d0, d1), 0)
    return _run_gate(joint, expander(*ports), (aux,))


def f_gate(joint: FockKet, inp: str, aux: str, d0: str, d1: str) -> GateResult:
    """Post-selected parity-check filter on (inp, aux) with detector ports
    d0 and d1, in the order of `gate f_gate`; see module docstring.

    The joint state must hold exactly one photon in the input port and one
    in the auxiliary port; detector ports must be vacuum. Accepted branch
    states live on the input port (plus any bystander ports).
    """
    return _run_filter(_expand_f_gate, joint, (inp, aux, d0, d1))


def quantum_parity_check(input_state: FockKet, aux_polarization) -> GateResult:
    """Filter specialization with a definite H or V auxiliary photon.

    Passes only the input component whose polarization matches the
    auxiliary photon; success probability is that component's weight.
    """
    ports = input_state.register.spatial_labels
    if len(ports) != 1:
        raise ValueError("input_state must live on a single spatial port")
    inp = ports[0]
    if inp in ("A", "D0", "D1"):
        raise ValueError("input port may not be named A, D0 or D1")
    if aux_polarization not in (H, V):
        raise ValueError(f"auxiliary polarization must be H or V, got {aux_polarization!r}")
    aux_reg = Register(("A", "D0", "D1"), cutoff=input_state.register.cutoff)
    joint = tensor(input_state, single_photon(ModeId("A", aux_polarization), aux_reg))
    return f_gate(joint, inp, "A", "D0", "D1")


def destructive_cnot(joint: FockKet, target: str, control: str, d0: str, d1: str) -> GateResult:
    """CNOT whose control photon is consumed by detection at d0 or d1, in
    the order of `gate d_cnot`.

    The filter is sandwiched in half-wave plates: one on the target before,
    one on the auxiliary control (mapping H/V onto the +/- basis), and one
    on the target after. An H control leaves the target alone, a V control
    flips it; success probability 1/2.
    """
    return _run_filter(_expand_d_cnot, joint, (target, control, d0, d1))


def e_cnot(two_qubit_input: FockKet, control_port: str = "IN",
           target_port: str = "IN'") -> GateResult:
    """Full post-selected CNOT on two polarization qubits.

    Internally tensors in the entangled auxiliary pair
    (|HH> + |VV>)/sqrt(2) on ports A, A'; a parity check couples the
    control to A, and a destructive CNOT driven by A' acts on the target.
    Four accepted detector combinations, 1/16 probability each, all equal
    to the CNOT output up to a global phase after feed-forward.
    """
    _require_port_photons(two_qubit_input, (control_port, target_port), 1)
    reg = two_qubit_input.register
    if set(reg.spatial_labels) != {control_port, target_port}:
        raise ValueError("input register must hold exactly the control and target ports")
    if reg.cutoff < 4:
        raise ValueError("e_cnot needs a register cutoff of at least 4 photons")

    aux_ports = ("A", "A'")
    detectors = ("D0", "D1", "D0'", "D1'")
    pair = polarization_ket(Register(aux_ports + detectors, cutoff=reg.cutoff),
                            aux_ports, (HALF, 0.0, 0.0, HALF))
    return _run_gate(tensor(two_qubit_input, pair),
                     _expand_e_cnot(control_port, target_port, *aux_ports, *detectors),
                     aux_ports)


def filter_gate(gate: Callable[..., GateResult], aux: Sequence[complex]
                ) -> Callable[[Sequence[complex]], GateResult]:
    """gate (f_gate or destructive_cnot) on ports IN, A, D0, D1, as a function
    of IN's (H, V) amplitudes, with the A photon in the polarization aux."""
    register = Register(("IN", "A", "D0", "D1"))
    return lambda amps: gate(polarization_ket(register, ("IN", "A"),
                                              [a * b for a in amps for b in aux]),
                             "IN", "A", "D0", "D1")


def ecnot_gate(amps) -> GateResult:
    """e_cnot with control IN and target IN', as a function of their
    (HH, HV, VH, VV) amplitudes."""
    return e_cnot(polarization_ket(Register(("IN", "IN'")), ("IN", "IN'"), amps))
