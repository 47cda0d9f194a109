"""Unit tests for the post-selected filter and CNOT constructions.

Branch amplitudes are compared against frozen closed forms worked out by
hand from the element matrices: the filter sends input (a, b) with
auxiliary (c, d) to (-i/sqrt(2)) (a c, b d) on both corrected branches,
the plate-sandwiched CNOT line gives exactly +1/2 times the flipped
target, and the full CNOT branch is (-i/4) times the CNOT image.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from pgw.fock_core import (
    DetectionPattern,
    FockKet,
    H,
    ModeId,
    Register,
    V,
    apply_mode_transform,
    measure_and_postselect,
    measure_outcomes,
    single_photon,
)
from pgw.optical_elements import ElementSpec
from pgw.optical_gates import (
    GATE_EXPANDERS,
    Pipeline,
    destructive_cnot,
    e_cnot,
    f_gate,
    quantum_parity_check,
)
from pgw.qubit_teleport import CNOT_MATRIX

HALF = 2.0 ** -0.5
FILTER_PORTS = ("IN", "A", "D0", "D1")


def _pair(register, in_amps, aux_amps):
    terms = {}
    for pol1, c1 in zip((H, V), in_amps):
        for pol2, c2 in zip((H, V), aux_amps):
            occ = [0] * register.n_modes
            occ[register.index_of(ModeId("IN", pol1))] = 1
            occ[register.index_of(ModeId("A", pol2))] = 1
            terms[tuple(occ)] = complex(c1) * complex(c2)
    return FockKet(register, terms)


def _two_qubit(register, amps):
    terms = {}
    for index, (pol1, pol2) in enumerate(((H, H), (H, V), (V, H), (V, V))):
        occ = [0] * register.n_modes
        occ[register.index_of(ModeId("IN", pol1))] = 1
        occ[register.index_of(ModeId("IN'", pol2))] = 1
        terms[tuple(occ)] = complex(amps[index])
    return FockKet(register, terms)


@pytest.fixture
def filter_register():
    return Register(("IN", "A", "D0", "D1"))


def test_f_gate_branch_amplitudes_match_closed_form(filter_register):
    a, b = 0.6, 0.8j
    c, d = 0.48 + 0.36j, -0.8
    result = f_gate(_pair(filter_register, (a, b), (c, d)), *FILTER_PORTS)
    assert len(result.accepted_branches) == 2
    for branch, j_want in zip(result.accepted_branches, (0, 1)):
        assert branch.j == j_want
        state = branch.conditional_state
        assert abs(state.amplitude((1, 0)) - (-1j * HALF) * a * c) < 1e-12
        assert abs(state.amplitude((0, 1)) - (-1j * HALF) * b * d) < 1e-12


def test_f_gate_branch_labels_follow_detectors(filter_register):
    result = f_gate(_pair(filter_register, (1.0, 0.0), (HALF, HALF)), *FILTER_PORTS)
    assert [b.outcome_label for b in result.accepted_branches] == ["D0", "D1"]


def test_f_gate_neutral_aux_success_half(filter_register):
    rng = np.random.default_rng(5)
    for _ in range(20):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        a, b = v / np.linalg.norm(v)
        result = f_gate(_pair(filter_register, (a, b), (HALF, HALF)), *FILTER_PORTS)
        assert result.success_probability == pytest.approx(0.5, abs=1e-10)
        for branch in result.accepted_branches:
            assert branch.probability == pytest.approx(0.25, abs=1e-10)


def test_f_gate_minus_aux_flips_relative_phase(filter_register):
    a, b = 0.6, 0.8
    result = f_gate(_pair(filter_register, (a, b), (HALF, -HALF)), *FILTER_PORTS)
    for branch in result.accepted_branches:
        state = branch.conditional_state
        ratio = state.amplitude((0, 1)) / state.amplitude((1, 0))
        assert ratio == pytest.approx(-b / a, abs=1e-12)


def test_parity_check_passes_matching_component():
    reg = Register(("IN",))
    state = FockKet(reg, {(1, 0): 0.6, (0, 1): 0.8})
    result = quantum_parity_check(state, H)
    assert result.success_probability == pytest.approx(0.36, abs=1e-12)
    for branch in result.accepted_branches:
        assert abs(branch.conditional_state.amplitude((0, 1))) == 0.0
    flipped = quantum_parity_check(state, V)
    assert flipped.success_probability == pytest.approx(0.64, abs=1e-12)


def test_parity_check_auxiliary_polarization_must_be_h_or_v():
    state = single_photon(ModeId("IN", H), Register(("IN",)))
    for pol in ("X", "h", None):
        with pytest.raises(ValueError, match="auxiliary polarization must be H or V"):
            quantum_parity_check(state, pol)


def test_f_gate_rejects_multiphoton_input(filter_register):
    occ = [0] * filter_register.n_modes
    occ[filter_register.index_of(ModeId("IN", H))] = 1
    occ[filter_register.index_of(ModeId("IN", V))] = 1
    occ[filter_register.index_of(ModeId("A", H))] = 1
    with pytest.raises(ValueError):
        f_gate(FockKet(filter_register, {tuple(occ): 1.0}), *FILTER_PORTS)


def test_f_gate_requires_vacuum_detectors(filter_register):
    occ = [0] * filter_register.n_modes
    occ[filter_register.index_of(ModeId("IN", H))] = 1
    occ[filter_register.index_of(ModeId("A", H))] = 1
    occ[filter_register.index_of(ModeId("D0", H))] = 1
    with pytest.raises(ValueError):
        f_gate(FockKet(filter_register, {tuple(occ): 1.0}, validate=False), *FILTER_PORTS)


def test_f_gate_layout_requires_distinct_ports(filter_register):
    joint = _pair(filter_register, (1.0, 0.0), (HALF, HALF))
    for gate in (f_gate, destructive_cnot):
        for ports in (("IN", "IN", "D0", "D1"), ("IN", "A", "D0", "D0"),
                      ("IN", "A", "A", "D1")):
            with pytest.raises(ValueError, match=r"filter ports must be distinct, got \("):
                gate(joint, *ports)
        for ports in (("IN", "A", "D0", ["D1"]), ("IN", ["A"], "D0", "D1")):
            with pytest.raises(ValueError, match=r"filter ports must be strings, got \("):
                gate(joint, *ports)


def test_destructive_cnot_lines_carry_exactly_half(filter_register):
    gamma, delta = 0.6, 0.8j
    for control, want in (((1.0, 0.0), (gamma, delta)), ((0.0, 1.0), (delta, gamma))):
        result = destructive_cnot(_pair(filter_register, (gamma, delta), control),
                                  *FILTER_PORTS)
        assert result.success_probability == pytest.approx(0.5, abs=1e-10)
        for branch in result.accepted_branches:
            state = branch.conditional_state
            assert abs(state.amplitude((1, 0)) - 0.5 * want[0]) < 1e-12
            assert abs(state.amplitude((0, 1)) - 0.5 * want[1]) < 1e-12


def test_e_cnot_branch_amplitudes_are_quarter_i_times_cnot():
    reg = Register(("IN", "IN'"))
    result = e_cnot(_two_qubit(reg, np.eye(4)[2]))
    assert [b.outcome_label for b in result.accepted_branches] == [
        "D0,D0'", "D0,D1'", "D1,D0'", "D1,D1'"]
    for branch in result.accepted_branches:
        assert branch.probability == pytest.approx(1.0 / 16.0, abs=1e-12)
        state = branch.conditional_state
        occ_vv = (0, 1, 0, 1)
        assert abs(state.amplitude(occ_vv) - (-0.25j)) < 1e-12


def test_e_cnot_success_quarter_on_random_inputs():
    rng = np.random.default_rng(9)
    reg = Register(("IN", "IN'"))
    for _ in range(10):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v = v / np.linalg.norm(v)
        result = e_cnot(_two_qubit(reg, v))
        assert result.success_probability == pytest.approx(0.25, abs=1e-10)
        want = _two_qubit(reg, CNOT_MATRIX @ v)
        for branch in result.accepted_branches:
            got = branch.conditional_state.normalized()
            overlap = sum(np.conj(want.amplitude(k)) * got.amplitude(k)
                          for k in set(want.terms) | set(got.terms))
            assert abs(overlap) == pytest.approx(1.0, abs=1e-10)


def test_e_cnot_requires_the_declared_ports():
    reg = Register(("X", "Y"))
    terms = {}
    occ = [0] * reg.n_modes
    occ[reg.index_of(ModeId("X", H))] = 1
    occ[reg.index_of(ModeId("Y", H))] = 1
    terms[tuple(occ)] = 1.0
    with pytest.raises(ValueError):
        e_cnot(FockKet(reg, terms))


# Detection groups for the grouped-detection test: each is a set of measured
# modes on ports B and C, so corrections on port A always find their modes.
_GROUPS = ((ModeId("B", H), ModeId("B", V)), (ModeId("C", H),),
           (ModeId("B", V), ModeId("C", V)))
_BASIS = [occ for occ in reference.fock_basis(6, 3) if sum(occ)]


@given(picked=st.lists(st.tuples(st.sampled_from(range(len(_BASIS))),
                                 st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0)),
                       min_size=1, max_size=8, unique_by=lambda t: t[0]),
       patterns=st.lists(st.tuples(st.sampled_from(range(len(_GROUPS))),
                                   st.lists(st.integers(0, 4), min_size=2, max_size=2),
                                   st.sampled_from((0, 1)), st.booleans()),
                         min_size=2, max_size=10)
       .filter(lambda ps: len({g for g, *_ in ps}) >= 2),
       angle=st.floats(0.0, 180.0))
@settings(max_examples=100, deadline=None)
def test_grouped_detection_equals_one_projection_per_pattern(picked, patterns, angle):
    """measure_outcomes' one pass per detection group, on the state after the
    elements, gives the same branches as measure_and_postselect once per
    pattern; both then take the corrections one element at a time. The
    unfireable patterns of two groups that share no mode agree on every mode
    they both constrain, so Pipeline refuses every draw."""
    reg = Register(("A", "B", "C"))
    norm = sum(abs(amp) ** 2 for _, amp in picked) ** 0.5
    state = FockKet(reg, {_BASIS[k]: amp / norm for k, amp in picked})
    elements = [ElementSpec("pbs", ("A", "B")),
                ElementSpec("hwp", ("C",), angle)]
    # One pattern per group that no state with at most 3 photons can fire.
    patterns = patterns + [(g, [4, 0], 0, False) for g in range(len(_GROUPS))]
    detections, corrections = [], {}
    for k, (g, counts, j, fix) in enumerate(patterns):
        label = f"x{k}"
        detections.append(DetectionPattern(dict(zip(_GROUPS[g], counts)), label=label, j=j))
        if fix:
            corrections[label] = [ElementSpec("hwp", ("A",), angle),
                                  ElementSpec("pc", ("A",))]

    with pytest.raises(ValueError, match=r"^detections 'x\d+' and 'x\d+' are not exclusive: "):
        Pipeline(elements, [(d, corrections.get(d.label, ())) for d in detections])

    def corrected(branch):
        out = branch.conditional_state
        for fix in corrections.get(branch.outcome_label, ()):
            out = apply_mode_transform(out, fix.build(out.register))
        return out

    after = state
    for element in elements:
        after = apply_mode_transform(after, element.build(reg))
    branches = measure_outcomes(after, detections)
    assert len(branches) == len(detections)
    for det, got in zip(detections, branches):
        want = measure_and_postselect(after, det)
        assert (got.outcome_label, got.j) == (want.outcome_label, want.j)
        assert got.probability == want.probability
        got_out, want_out = corrected(got), corrected(want)
        assert got_out.register == want_out.register
        assert got_out.terms == want_out.terms
    assert any(b.probability == 0 for b in branches)


# Per gate: its detector ports, and the (label, j) of each outcome, when the
# ports are named after their roles.
_GATE_OUTCOMES = {
    "f_gate": (("D0", "D1"), [("D0", 0), ("D1", 1)]),
    "parity_check": (("D0", "D1"), [("D0", 0), ("D1", 1)]),
    "d_cnot": (("D0", "D1"), [("D0", 0), ("D1", 1)]),
    "e_cnot": (("D0", "D1", "D0'", "D1'"),
               [("D0,D0'", 0), ("D0,D1'", 1), ("D1,D0'", 0), ("D1,D1'", 1)]),
}
_GATE_PORTS = {4: ("IN", "A", "D0", "D1"), 8: ("IN", "IN'", "A", "A'", "D0", "D1", "D0'", "D1'")}


@pytest.mark.parametrize("name", sorted(GATE_EXPANDERS))
def test_gate_expanders_give_one_pattern_per_outcome_on_the_detector_modes(name):
    """Each expanded outcome measures exactly its detector ports' modes and
    requires one photon per stage, with the gate's labels and j values."""
    expander, arity = GATE_EXPANDERS[name]
    detectors, outcomes = _GATE_OUTCOMES[name]
    pipeline = expander(*_GATE_PORTS[arity])
    modes = {ModeId(port, pol) for port in detectors for pol in (H, V)}
    assert [(d.label, d.j) for d, _ in pipeline.outcomes] == outcomes
    for d, fixes in pipeline.outcomes:
        assert d.measured == modes and len(d.measured) == (8 if name == "e_cnot" else 4)
        assert {m for m, _ in d.required} == modes
        assert sum(c for _, c in d.required) == len(detectors) // 2
        assert type(fixes) is tuple


@pytest.mark.parametrize("name", sorted(GATE_EXPANDERS))
def test_each_gate_expander_returns_a_frozen_pipeline(name):
    """On its canonical ports: elements as a tuple, and outcomes as a tuple
    of (DetectionPattern, corrections) pairs, the corrections a tuple of
    elements."""
    expander, arity = GATE_EXPANDERS[name]
    pipeline = expander(*_GATE_PORTS[arity])
    assert type(pipeline) is Pipeline
    assert type(pipeline.elements) is tuple
    assert all(type(e) is ElementSpec for e in pipeline.elements)
    assert type(pipeline.outcomes) is tuple
    assert all(type(outcome) is tuple and len(outcome) == 2 for outcome in pipeline.outcomes)
    assert all(type(d) is DetectionPattern for d, _ in pipeline.outcomes)
    assert all(type(fixes) is tuple and all(type(e) is ElementSpec for e in fixes)
               for _, fixes in pipeline.outcomes)
    with pytest.raises(AttributeError):
        pipeline.elements = ()


@pytest.mark.parametrize("name", sorted(GATE_EXPANDERS))
def test_a_pipeline_is_a_hashable_deeply_immutable_value(name):
    """Two expansions of a gate are equal and hash equal, and a list given as
    an outcome's corrections is copied: changing it later leaves the
    Pipeline as it was."""
    expander, arity = GATE_EXPANDERS[name]
    first, second = expander(*_GATE_PORTS[arity]), expander(*_GATE_PORTS[arity])
    assert first == second and hash(first) == hash(second)
    assert len({first, second}) == 1
    fixes = [ElementSpec("pc", ("IN",))]
    outcomes = [(pattern, fixes if k == 0 else list(given))
                for k, (pattern, given) in enumerate(first.outcomes)]
    built = Pipeline(list(first.elements), outcomes)
    before = hash(built)
    fixes.append(ElementSpec("pc", ("A",)))
    outcomes.clear()
    assert built.outcomes[0][1] == (ElementSpec("pc", ("IN",)),)
    assert len(built.outcomes) == len(first.outcomes) and hash(built) == before


def test_e_cnot_expansion_is_the_join_of_its_two_stages():
    """Each pair of a parity-stage outcome on (IN, A) and a destructive-CNOT
    outcome on (IN', A') is one pattern: both labels, the second stage's j,
    both stages' counts, and the first stage's corrections before the
    second's."""
    first = GATE_EXPANDERS["f_gate"][0]("IN", "A", "D0", "D1")
    second = GATE_EXPANDERS["d_cnot"][0]("IN'", "A'", "D0'", "D1'")
    joined = GATE_EXPANDERS["e_cnot"][0](*_GATE_PORTS[8])
    assert joined.elements == first.elements + second.elements
    pairs = [(a, b) for a in first.outcomes for b in second.outcomes]
    assert [(d.label, d.j, d.required) for d, _ in joined.outcomes] == [
        (f"{a.label},{b.label}", b.j, tuple(sorted(a.required + b.required)))
        for (a, _), (b, _) in pairs]
    assert [fixes for _, fixes in joined.outcomes] == [f1 + f2 for (_, f1), (_, f2) in pairs]
    assert [len(fixes) for _, fixes in joined.outcomes] == [0, 1, 1, 2]


def test_two_patterns_that_can_both_fire_are_refused_by_any_pipeline():
    """The one exclusivity check, with the message circuit files have always
    given: patterns clash unless a mode they both constrain has different
    counts, so patterns on disjoint modes clash too."""
    d0 = DetectionPattern({ModeId("D0", H): 1, ModeId("D0", V): 0}, label="D0")
    for other in (DetectionPattern({ModeId("D0", H): 1}, label="X"),
                  DetectionPattern({ModeId("D1", H): 0}, label="X")):
        with pytest.raises(ValueError) as excinfo:
            Pipeline((), [(d0, ()), (DetectionPattern({ModeId("D0", H): 0}, label="Y"), ()),
                          (other, ())])
        assert type(excinfo.value) is ValueError
        assert str(excinfo.value) == ("detections 'D0' and 'X' are not exclusive: "
                                      "they agree on every mode they both constrain")
    kept = Pipeline([], [(d0, ()), (DetectionPattern({ModeId("D0", V): 1}, label="Y"), [])])
    assert kept.elements == () and [d.label for d, _ in kept.outcomes] == ["D0", "Y"]
    assert kept.outcomes[1][1] == ()


def test_parity_check_input_must_be_one_port_not_named_like_its_auxiliaries():
    for labels, message in ((("IN", "X"), "input_state must live on a single spatial port"),
                            (("A",), "input port may not be named A, D0 or D1")):
        state = single_photon(ModeId(labels[0], H), Register(labels))
        with pytest.raises(ValueError, match=f"^{message}$"):
            quantum_parity_check(state, H)


@pytest.mark.parametrize("labels, cutoff, message", [
    (("IN", "IN'", "X"), 4, "input register must hold exactly the control and target ports"),
    (("IN", "IN'"), 3, "e_cnot needs a register cutoff of at least 4 photons"),
], ids=["a-third-port", "cutoff-3"])
def test_e_cnot_checks_its_register_after_its_photons(labels, cutoff, message):
    """One photon in each of IN and IN' passes the photon check, then the
    register check names what is wrong."""
    reg = Register(labels, cutoff=cutoff)
    occ = [0] * reg.n_modes
    occ[reg.index_of(ModeId("IN", H))] = occ[reg.index_of(ModeId("IN'", V))] = 1
    with pytest.raises(ValueError, match=f"^{message}$"):
        e_cnot(FockKet(reg, {tuple(occ): 1.0}))
