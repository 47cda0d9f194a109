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

Each gate is written once, as an expander that lists its elements, its
heralded outcomes (each a fock_core.DetectionPattern with its label and j)
and the corrections of each outcome; e_cnot's expander joins those of its
two stages into one pattern per outcome, corrections included. One runner,
run_pipeline, applies such a list to a state as one composed mode transform
and passes the patterns straight to measure_outcomes. The library gates
call it on their expansion and drop the emptied auxiliary ports; the
circuit-file `gate` directive (workbench_cli) splices the same expansion
into a circuit, which run_circuit hands to the same runner. filter_gate
and ecnot_gate run the library gates as functions of their input qubits'
amplitudes, which mb_bridge.compile_branches turns into the branch
operators K_b that the checks and the truth tables read; a GateResult
holds only the branches.
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
from .optical_elements import ElementKind, ElementSpec

ROTATION_DEG = 22.5


@dataclass(frozen=True)
class FGateLayout:
    """Port assignment for one parity-check filter instance."""

    input_port: str
    aux_port: str
    detector_ports: tuple[str, str]

    def __post_init__(self):
        ports = (self.input_port, self.aux_port) + tuple(self.detector_ports)
        if len(set(ports)) != 4:
            raise ValueError(f"layout ports must be distinct, got {ports}")


def _expand_f_gate(inp: str, aux: str, d0: str, d1: str):
    """Filter stage: combine, rotate, route to detectors, flip on outcome 1."""
    elements = [
        ElementSpec(ElementKind.PBS, (inp, aux)),
        ElementSpec(ElementKind.HWP, (aux,), (), ROTATION_DEG),
        ElementSpec(ElementKind.SWAP, (), (ModeId(aux, H), ModeId(d0, H))),
        ElementSpec(ElementKind.SWAP, (), (ModeId(aux, V), ModeId(d1, V))),
    ]
    modes = (ModeId(d0, H), ModeId(d0, V), ModeId(d1, H), ModeId(d1, V))
    detections = [DetectionPattern(dict(zip(modes, (1, 0, 0, 0))), label=d0, j=0),
                  DetectionPattern(dict(zip(modes, (0, 0, 0, 1))), label=d1, j=1)]
    corrections = {d1: [ElementSpec(ElementKind.PC, (inp,))]}
    return elements, detections, corrections


def _expand_d_cnot(target: str, control: str, d0: str, d1: str):
    """Plate-sandwiched filter. The closing plate sits before detection here,
    so the outcome-1 phase flip conjugates to a polarization exchange."""
    f_elements, detections, _ = _expand_f_gate(target, control, d0, d1)
    plate = ElementSpec(ElementKind.HWP, (target,), (), ROTATION_DEG)
    control_plate = ElementSpec(ElementKind.HWP, (control,), (), ROTATION_DEG)
    elements = [plate, control_plate] + f_elements + [plate]
    corrections = {d1: [ElementSpec(ElementKind.SWAP, (),
                                    (ModeId(target, H), ModeId(target, V)))]}
    return elements, detections, corrections


def _expand_e_cnot(control: str, target: str, aux: str, aux2: str,
                   d0: str, d1: str, d0b: str, d1b: str):
    """Parity stage on (control, aux), then the plate-sandwiched stage on
    (target, aux2); each outcome joins one of each stage, with its corrections."""
    s1_elements, s1_detections, s1_corrections = _expand_f_gate(control, aux, d0, d1)
    s2_elements, s2_detections, s2_corrections = _expand_d_cnot(target, aux2, d0b, d1b)
    detections = []
    corrections: dict[str, list[ElementSpec]] = {}
    for b1 in s1_detections:
        for b2 in s2_detections:
            label = f"{b1.label},{b2.label}"
            detections.append(DetectionPattern(dict(b1.required + b2.required),
                                               label=label, j=b2.j))
            fixes = s1_corrections.get(b1.label, []) + s2_corrections.get(b2.label, [])
            if fixes:
                corrections[label] = fixes
    return s1_elements + s2_elements, detections, corrections


# Gate name -> (expander, number of port arguments), for circuit files.
GATE_EXPANDERS = {
    "f_gate": (_expand_f_gate, 4),
    "parity_check": (_expand_f_gate, 4),
    "d_cnot": (_expand_d_cnot, 4),
    "e_cnot": (_expand_e_cnot, 8),
}


def run_pipeline(state: FockKet, elements: Sequence[ElementSpec],
                 detections: Sequence[DetectionPattern],
                 corrections: Mapping[str, Sequence[ElementSpec]]
                 ) -> tuple[FockKet, tuple[Branch, ...]]:
    """Apply the elements, then run every detection on the resulting state
    and apply that outcome's corrections to its survivors.

    The elements compose to one mode unitary U = U_k ... U_1, kept as
    row[p] = {q: U_pq}: each element's block, checked for unitarity,
    rewrites only its own rows. U is checked and trimmed once as a
    ModeTransform, and phi(U) = phi(U_k) ... phi(U_1) applied once. Against
    one pass per element, |20, 20> through 12 random plates, each followed
    by a pbs, agrees to 1e-11 per amplitude (about 5e-13); |30, 30> only to
    about 5e-10.

    Returns the state after the elements and one branch per detection, in
    order. Detected modes are traced out of each branch; every other port,
    emptied or not, stays in its register.
    """
    register = state.register
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
    u = ModeTransform(register, [[rows[p].get(q, 0j) for q in touched] for p in touched],
                      touched)
    state = apply_mode_transform(state, u)
    branches = []
    for raw in measure_outcomes(state, detections):
        out = raw.conditional_state
        for fix in corrections.get(raw.outcome_label, ()):
            out = apply_mode_transform(out, fix.build(out.register))
        branches.append(Branch(raw.outcome_label, raw.j, out, raw.probability))
    return state, tuple(branches)


def _run_gate(state: FockKet, expansion, aux_ports: Sequence[str]) -> GateResult:
    """Run an expanded gate and drop its emptied auxiliary ports."""
    _, branches = run_pipeline(state, *expansion)
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


def _run_filter(expander, joint: FockKet, layout: FGateLayout) -> GateResult:
    """f_gate or destructive_cnot: check the photon numbers, run the expansion."""
    _require_port_photons(joint, (layout.input_port, layout.aux_port), 1)
    _require_port_photons(joint, layout.detector_ports, 0)
    return _run_gate(joint, expander(layout.input_port, layout.aux_port,
                                     *layout.detector_ports), (layout.aux_port,))


def f_gate(joint: FockKet, layout: FGateLayout) -> GateResult:
    """Post-selected parity-check filter on (input, aux); see module docstring.

    The joint state must hold exactly one photon in the input port and one
    in the auxiliary port; detector ports must be vacuum. Accepted branch
    states live on the input port (plus any bystander ports).
    """
    return _run_filter(_expand_f_gate, joint, layout)


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
    pol = {"H": H, "V": V}.get(str(aux_polarization))
    if pol is None:
        raise ValueError(f"auxiliary polarization must be H or V, got {aux_polarization!r}")
    aux_reg = Register(("A", "D0", "D1"), cutoff=input_state.register.cutoff)
    joint = tensor(input_state, single_photon(ModeId("A", pol), aux_reg))
    return f_gate(joint, FGateLayout(inp, "A", ("D0", "D1")))


def destructive_cnot(joint: FockKet, layout: FGateLayout) -> GateResult:
    """CNOT whose control photon (the auxiliary port) is consumed by detection.

    The filter is sandwiched in half-wave plates: one on the target before,
    one on the auxiliary control (mapping H/V onto the +/- basis), and one
    on the target after. An H control leaves the target alone, a V control
    flips it; success probability 1/2.
    """
    return _run_filter(_expand_d_cnot, joint, layout)


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


def filter_gate(gate: Callable[[FockKet, FGateLayout], GateResult], aux: Sequence[complex]
                ) -> Callable[[Sequence[complex]], GateResult]:
    """gate (f_gate or destructive_cnot) on ports IN, A, D0, D1, as a function
    of IN's (H, V) amplitudes, with the A photon in the polarization aux."""
    register = Register(("IN", "A", "D0", "D1"))
    layout = FGateLayout("IN", "A", ("D0", "D1"))
    return lambda amps: gate(polarization_ket(register, ("IN", "A"),
                                              [a * b for a in amps for b in aux]), layout)


def ecnot_gate(amps) -> GateResult:
    """e_cnot with control IN and target IN', as a function of their
    (HH, HV, VH, VV) amplitudes."""
    return e_cnot(polarization_ket(Register(("IN", "IN'")), ("IN", "IN'"), amps))
