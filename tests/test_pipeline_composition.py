"""Pipeline.run composes its elements into one mode unitary and applies
phi(U) once. These tests hold it to the one-pass-per-element runner
written below: the same labels and j, and probabilities and amplitudes
within 1e-12 (1e-11 at twenty photons per mode), with a missing key read
as 0. The same element errors must come out of both, from the pipeline and
from an outcome's corrections.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgw.fock_core import (
    DetectionPattern,
    FockKet,
    H,
    ModeId,
    Register,
    RegisterError,
    V,
    apply_mode_transform,
    measure_outcomes,
    polarization_ket,
)
from pgw.optical_elements import ELEMENTS, ElementSpec
from pgw.optical_gates import GATE_EXPANDERS, Pipeline


def _one_pass_per_element(state, elements, detections, corrections):
    """The pipeline as a chain of checked element transforms, each applied
    to the whole state, then the detections and each outcome's corrections."""
    for element in elements:
        state = apply_mode_transform(state, element.build(state.register))
    branches = []
    for raw in measure_outcomes(state, detections):
        out = raw.conditional_state
        for fix in corrections.get(raw.outcome_label, ()):
            out = apply_mode_transform(out, fix.build(out.register))
        branches.append((raw.outcome_label, raw.j, out, raw.probability))
    return state, branches


def _amplitude_gap(a, b):
    assert a.register == b.register
    return max((abs(a.terms.get(k, 0.0) - b.terms.get(k, 0.0))
                for k in set(a.terms) | set(b.terms)), default=0.0)


def _composed_run(state, elements, detections, corrections):
    """The same arguments as _one_pass_per_element, through Pipeline.run."""
    return Pipeline(elements, detections, corrections).run(state)


def _assert_same_run(state, elements, detections, corrections, tol):
    after, branches = _composed_run(state, elements, detections, corrections)
    want_after, want = _one_pass_per_element(state, elements, detections, corrections)
    assert _amplitude_gap(after, want_after) <= tol
    assert [(b.outcome_label, b.j) for b in branches] == [(w[0], w[1]) for w in want]
    for got, (_, _, out, probability) in zip(branches, want):
        assert abs(got.probability - probability) <= tol
        assert _amplitude_gap(got.conditional_state, out) <= tol


def _element(draw, reg, ports):
    kind = draw(st.sampled_from([k for k in ELEMENTS if len(ports) > 1 or k != "pbs"]))
    if kind == "swap":
        modes = draw(st.lists(st.sampled_from(reg.modes), min_size=2, max_size=2, unique=True))
        return ElementSpec(kind, tuple(modes))
    arity = 2 if kind == "pbs" else 1
    chosen = draw(st.lists(st.sampled_from(ports), min_size=arity, max_size=arity, unique=True))
    angle = draw(st.floats(-360.0, 360.0)) if kind == "hwp" else 0.0
    return ElementSpec(kind, tuple(chosen), angle)


@st.composite
def _random_pipeline(draw):
    """2-5 ports, 1-4 photons in up to four terms, up to 30 elements of every
    kind (some swaps repeated at once, so that they cancel), and every count
    pattern of one port detected, with corrections on the other ports."""
    ports = [f"P{k}" for k in range(draw(st.integers(2, 5)))]
    reg = Register(ports)
    photons = draw(st.integers(1, 4))
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        occ = [0] * reg.n_modes
        for _ in range(photons):
            occ[draw(st.integers(0, reg.n_modes - 1))] += 1
        terms[tuple(occ)] = complex(draw(st.floats(0.1, 1.0)), draw(st.floats(-1.0, 1.0)))
    norm = sum(abs(a) ** 2 for a in terms.values()) ** 0.5
    state = FockKet(reg, {occ: a / norm for occ, a in terms.items()})
    elements = []
    for _ in range(draw(st.integers(0, 30))):
        element = _element(draw, reg, ports)
        twice = element.kind == "swap" and draw(st.booleans())
        elements += [element] * (1 + twice)
    detector = draw(st.sampled_from(ports))
    kept = [p for p in ports if p != detector]
    detections, corrections = [], {}
    for h in range(photons + 1):
        for v in range(photons + 1 - h):
            label = f"{h}{v}"
            detections.append(DetectionPattern(
                {ModeId(detector, H): h, ModeId(detector, V): v}, label=label, j=h % 2))
            if draw(st.booleans()):
                corrections[label] = [_element(draw, Register(kept), kept)
                                      for _ in range(draw(st.integers(1, 3)))]
    return state, elements[:30], detections, corrections


@st.composite
def _gate_pipeline(draw):
    """One of the GATE_EXPANDERS on its own ports, one photon in each of its
    input and auxiliary ports with random amplitudes."""
    name = draw(st.sampled_from(sorted(GATE_EXPANDERS)))
    expander, arity = GATE_EXPANDERS[name]
    ports = ("IN", "A", "D0", "D1") if arity == 4 else (
        "IN", "IN'", "A", "A'", "D0", "D1", "D0'", "D1'")
    occupied = ports[:arity // 2]
    amps = [complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
            for _ in range(2 ** len(occupied))]
    norm = sum(abs(a) ** 2 for a in amps) ** 0.5 or 1.0
    state = polarization_ket(Register(ports), occupied, [a / norm for a in amps])
    pipeline = expander(*ports)
    return state, pipeline.elements, pipeline.detections, pipeline.corrections


@given(st.one_of(_random_pipeline(), _gate_pipeline()))
@settings(max_examples=120, deadline=None)
def test_composed_pipeline_equals_one_pass_per_element(case):
    _assert_same_run(*case, tol=1e-12)


def test_a_swap_applied_twice_leaves_the_state_untouched():
    reg = Register(("A", "B"))
    state = FockKet(reg, {(1, 0, 0, 1): 2 ** -0.5, (0, 1, 1, 0): 2 ** -0.5})
    swap = ElementSpec("swap", (ModeId("A", H), ModeId("B", V)))
    after, _ = Pipeline([swap, swap], [], {}).run(state)
    assert after is state  # the composed identity touches no mode, so nothing was applied


def _behind_a_detection(state, elements):
    """state with a vacuum port D added, the elements as the corrections of
    D's vacuum outcome, and that detection: after it the register is
    state's again."""
    reg = state.register
    detected = Register(cutoff=reg.cutoff, modes=reg.modes + (ModeId("D", H), ModeId("D", V)))
    vacuum_d = DetectionPattern({ModeId("D", H): 0, ModeId("D", V): 0})
    terms = {occ + (0, 0): amp for occ, amp in state.terms.items()}  # D sorts last here
    return FockKet(detected, terms), [], [vacuum_d], {vacuum_d.label: elements}


def test_every_element_block_is_checked_not_only_their_product(monkeypatch):
    """Two phase elements scaled by 2 and by 1/2 compose to the identity, so
    only the check of each block can reject them, in the pipeline and in a
    correction list, as one pass per element does."""
    def scaled(register, port):
        return (register.port_index(port)[1],), ((complex(next(scales)),),)

    monkeypatch.setitem(ELEMENTS, "pc", (scaled, 1, False, False))
    state = FockKet(Register(("A",)), {(0, 1): 1.0})
    pc = ElementSpec("pc", ("A",))
    for case in ((state, [pc, pc], [], {}), _behind_a_detection(state, [pc, pc])):
        for run in (_composed_run, _one_pass_per_element):
            scales = iter((2.0, 0.5))
            with pytest.raises(ValueError, match=r"^matrix is not unitary \(deviation 3\)$"):
                run(*case)


@pytest.mark.parametrize("element, error, text", [
    (ElementSpec("pbs", ("A", "Z")), RegisterError,
     "spatial port 'Z' not in register ('A', 'B', 'C')"),
    (ElementSpec("hwp", ("C",), 10.0), RegisterError,
     "spatial port 'C' only half in register ('A', 'B', 'C')"),
    (ElementSpec("pc", ("Z",)), RegisterError,
     "spatial port 'Z' not in register ('A', 'B', 'C')"),
    (ElementSpec("swap", (ModeId("A", H), ModeId("C", V))), RegisterError,
     "mode C.V not in register ('A', 'B', 'C')"),
    (ElementSpec("pbs", ("A", "A")), ValueError, "pbs needs two distinct spatial ports"),
    (ElementSpec("hwp", ("A",), float("nan")), ValueError,
     "wave plate angle must be finite, got nan"),
])
def test_an_element_that_cannot_be_built_raises_the_same_error_on_both_paths(
        element, error, text):
    reg = Register(modes=[ModeId(p, pol) for p in ("A", "B") for pol in (H, V)]
                   + [ModeId("C", H)])
    state = FockKet(reg, {(1, 0, 0, 1, 0): 1.0})
    elements = [ElementSpec("pbs", ("A", "B")), element]
    for case in ((state, elements, [], {}), _behind_a_detection(state, elements)):
        with pytest.raises(error) as composed:
            _composed_run(*case)
        with pytest.raises(error) as per_element:
            _one_pass_per_element(*case)
        assert str(composed.value) == str(per_element.value) == text


def test_twenty_photons_per_mode_keep_their_precision_through_a_long_chain():
    """|20, 20> on port A through 12 plates at random angles, on A and B in
    turn, each followed by a pbs: the composed path keeps norm^2 to 1e-11
    and agrees with one pass per element to 1e-11 per amplitude."""
    reg = Register(("A", "B"), cutoff=40)
    state = FockKet(reg, {(20, 20, 0, 0): 1.0})
    rnd = random.Random(12)
    elements = []
    for k in range(12):
        elements += [ElementSpec("hwp", ("AB"[k % 2],), rnd.uniform(0.0, 180.0)),
                     ElementSpec("pbs", ("A", "B"))]
    after, _ = Pipeline(elements, [], {}).run(state)
    assert abs(after.norm_squared() - 1.0) <= 1e-11
    assert len(after.terms) > 500
    _assert_same_run(state, elements, [], {}, tol=1e-11)
