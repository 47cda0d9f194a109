"""Whole circuit files against a dense reference.

Random circuits are rendered as pgw-circuit v1 text and run through
parse_circuit and run_circuit. reference.run_circuit_dense runs the same
circuit by dense linear algebra, with element matrices written from the
optical_elements conventions rather than from pgw's builders. Labels, j,
probabilities, branch amplitudes and the rejected probability must agree
within 1e-12, a missing amplitude reading as 0. Circuits with a `gate` line
(f_gate, parity_check and d_cnot on 4 ports, e_cnot on 8) run against the
reference's own expansion of that gate.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from pgw.workbench_cli import parse_circuit, run_circuit

TOL = 1e-12


def _element(draw, ports):
    """(kind, args, angle): args are port labels, or (port, pol) for swap."""
    kind = draw(st.sampled_from([k for k in ("pbs", "hwp", "pc", "swap")
                                 if len(ports) > 1 or k != "pbs"]))
    if kind == "swap":
        modes = [(port, pol) for port in ports for pol in "HV"]
        return kind, tuple(draw(st.lists(st.sampled_from(modes), min_size=2, max_size=2,
                                         unique=True))), 0.0
    arity = 2 if kind == "pbs" else 1
    args = draw(st.lists(st.sampled_from(ports), min_size=arity, max_size=arity, unique=True))
    return kind, tuple(args), draw(st.floats(-360.0, 360.0)) if kind == "hwp" else 0.0


def _words(kind, args, angle):
    words = [kind] + [arg if isinstance(arg, str) else f"{arg[0]}.{arg[1]}" for arg in args]
    return " ".join(words + [repr(angle)] * (kind == "hwp"))


def _counts(counts):
    return " ".join(f"{port}.{pol}={n}" for (port, pol), n in counts.items())


def _port_modes(port):
    return [(port, "H"), (port, "V")]


@st.composite
def _circuit(draw, gate=None):
    """At most 4 ports (declared in a random order), n <= 3 photons in up to
    four terms, at most 8 elements of every kind, every count pattern of the
    detected modes in a random order, and `correct` lines on the ports that
    no pattern measures. The patterns cover one port, or two ports jointly,
    or split into two groups on different mode sets: those with P.H >= 1 on
    port P, and those with P.H = 0 on P.H and one to three modes of P.V and
    a second port Q, so that the two groups may measure equally many modes.
    With a gate (f_gate, parity_check or d_cnot, expanded by
    reference.filter_gate_expansion, or e_cnot, by reference.e_cnot_expansion),
    one `gate` line is placed among the elements instead, on 4 ports (8 for
    e_cnot), with one photon in each of its input and auxiliary ports to
    start with (control, target, aux and aux' for e_cnot); its outcomes are
    then the only detections."""
    names = "ABCDEFGH" if gate == "e_cnot" else "ABCD"
    ports = draw(st.permutations(names))[:len(names) if gate else draw(st.integers(2, 4))]
    modes = [(port, pol) for port in ports for pol in "HV"]
    if gate:  # one photon in each of its input and auxiliary ports, in every polarization
        gate_ports = draw(st.permutations(ports))
        sources = gate_ports[:4 if gate == "e_cnot" else 2]
        keys = [frozenset((mode, 1) for mode in zip(sources, pols))
                for pols in itertools.product("HV", repeat=len(sources))]
    else:
        n = draw(st.integers(1, 3))
        keys = []
        for _ in range(draw(st.integers(1, 4))):
            counts = {}
            for mode in draw(st.lists(st.sampled_from(modes), min_size=n, max_size=n)):
                counts[mode] = counts.get(mode, 0) + 1
            keys.append(frozenset(counts.items()))
    amplitudes = {key: complex(draw(st.floats(0.1, 1.0)), draw(st.floats(-1.0, 1.0)))
                  for key in keys}
    norm = sum(abs(a) ** 2 for a in amplitudes.values()) ** 0.5
    terms = [(amp / norm, dict(key)) for key, amp in amplitudes.items()]
    elements = [_element(draw, ports) for _ in range(draw(st.integers(0, 8)))]
    element_lines = ["element " + _words(*element) for element in elements]
    if gate:
        at = draw(st.integers(0, len(elements)))
        expansion, outcomes = (reference.e_cnot_expansion(gate_ports) if gate == "e_cnot"
                               else reference.filter_gate_expansion(gate, gate_ports))
        elements[at:at] = expansion
        element_lines.insert(at, f"gate {gate} " + " ".join(gate_ports))
        detections = [(label, j, required) for label, j, required, _ in outcomes]
        corrections = {label: fixes for label, _, _, fixes in outcomes}
        kept = list(sources)
    else:
        p, q = draw(st.permutations(ports))[:2]
        shape = draw(st.sampled_from(["one port", "two ports", "two groups"]))
        if shape == "one port":
            groups = [(_port_modes(p), range(n + 1))]
        elif shape == "two ports":
            groups = [(_port_modes(p) + _port_modes(q), range(n + 1))]
        else:
            rest = draw(st.lists(st.sampled_from([(p, "V")] + _port_modes(q)), min_size=1,
                                 max_size=3, unique=True))
            groups = [(_port_modes(p), range(1, n + 1)), ([(p, "H")] + rest, (0,))]
        patterns = [dict(zip(measured, counts)) for measured, first in groups
                    for counts in itertools.product(range(n + 1), repeat=len(measured))
                    if sum(counts) <= n and counts[0] in first]
        detections = [(f"n{k}", draw(st.integers(0, 1)), required)
                      for k, required in enumerate(draw(st.permutations(patterns)))]
        corrections = {}
        consumed = {port for required in patterns for port, _ in required}
        kept = [port for port in ports if port not in consumed]
    correct_lines = []
    for label, _, _ in detections:
        if kept and draw(st.booleans()):
            fixes = [_element(draw, kept) for _ in range(draw(st.integers(1, 2)))]
            corrections[label] = corrections.get(label, []) + fixes
            correct_lines += [f"correct {label} {_words(*fix)}" for fix in fixes]
    lines = ["pgw-circuit v1", "register " + " ".join(ports)]
    lines += [f"term {amp.real!r},{amp.imag!r} {_counts(counts)}" for amp, counts in terms]
    lines += element_lines
    lines += [f"detect {label} {j} {_counts(required)}" for label, j, required in detections
              if not gate]
    lines += correct_lines
    return "\n".join(lines) + "\n", (ports, terms, elements, detections, corrections)


def _assert_agrees(text, circuit):
    result = run_circuit(parse_circuit(text))
    want, rejected = reference.run_circuit_dense(*circuit)
    assert [(b.outcome_label, b.j) for b in result.branches] == [w[:2] for w in want]
    for got, (_, _, probability, kept_modes, amplitudes) in zip(result.branches, want):
        assert abs(got.probability - probability) <= TOL
        state = got.conditional_state
        assert [(m.spatial_label, m.polarization) for m in state.register.modes] == kept_modes
        gap = max((abs(state.terms.get(k, 0.0) - amplitudes.get(k, 0.0))
                   for k in set(state.terms) | set(amplitudes)), default=0.0)
        assert gap <= TOL
    assert abs(result.rejected_probability - rejected) <= TOL


@given(_circuit())
@settings(max_examples=60, deadline=None)
def test_circuit_files_agree_with_the_dense_reference(case):
    _assert_agrees(*case)


@pytest.mark.parametrize("gate", ["f_gate", "parity_check", "d_cnot", "e_cnot"])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_gate_lines_agree_with_the_dense_reference(gate, data):
    """The `gate` line against the reference's own expansion of it, written
    from the optical_gates docstrings."""
    _assert_agrees(*data.draw(_circuit(gate)))
