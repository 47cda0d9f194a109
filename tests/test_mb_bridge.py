"""Unit tests for the mixed-basis bridge.

The dictionary is frozen by hand: |H> on an input port reads 0, |V> reads
1, and a single photon on an auxiliary port reads out as the two-qubit
pair (V mode, H mode), so the balanced superpositions land exactly on the
odd Bell states. Every verify_* routine must come back all-pass because
each one rechecks facts the unit tests here pin independently.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from pgw.fock_core import FockKet, H, ModeId, Register, V
from pgw.mb_bridge import (
    BranchOperators,
    DecodingDomainError,
    EncodingDomainError,
    MBEncoding,
    check_record,
    mb_decode,
    mb_encode,
    project_encodable,
    verify_aux_state_equivalence,
    verify_ecnot_equals_tcnot,
    verify_f_equals_tprime,
    verify_hwp_mb,
    verify_pbs_mb,
)

SQRT_HALF = 1.0 / np.sqrt(2.0)


def _aux_photon(register, port, amp_h, amp_v):
    occ_h = [0] * register.n_modes
    occ_h[register.index_of(ModeId(port, H))] = 1
    occ_v = [0] * register.n_modes
    occ_v[register.index_of(ModeId(port, V))] = 1
    return FockKet(register, {tuple(occ_h): amp_h, tuple(occ_v): amp_v})


def test_encoding_declaration_is_validated():
    with pytest.raises(ValueError):
        MBEncoding((), ())
    with pytest.raises(ValueError):
        MBEncoding(("A",), ("A",))
    enc = MBEncoding(("IN",), ("A",))
    assert enc.qubit_labels == ("IN", "AV", "AH")


_MALFORMED_ENCODINGS = {
    "bare string input ports": ("IN", (), "input_ports"),  # not ports 'I' and 'N'
    "bare string aux ports": ((), "A", "aux_ports"),
    "None input ports": (None, (), "input_ports"),
    "None aux ports": (("IN",), None, "aux_ports"),
    "int port": ((1,), (), "input_ports"),
    "None port": (("IN",), ("A", None), "aux_ports"),
}


@pytest.mark.parametrize("input_ports, aux_ports, argument", _MALFORMED_ENCODINGS.values(),
                         ids=_MALFORMED_ENCODINGS)
def test_encoding_rejects_a_malformed_argument(input_ports, aux_ports, argument):
    with pytest.raises(ValueError, match=f"^{argument} must be"):
        MBEncoding(input_ports, aux_ports)


_SCALARS = st.one_of(st.integers(-2, 2), st.booleans(), st.floats(allow_nan=True),
                     st.text(max_size=2), st.none(),
                     st.sampled_from([np.float64(0.5), np.int64(1), np.str_("A")]))
_MIXED = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3),
                   st.lists(_SCALARS, max_size=3).map(tuple),
                   st.lists(st.text(max_size=2), max_size=3).map(tuple))


@settings(max_examples=300, deadline=None)
@given(input_ports=_MIXED, aux_ports=_MIXED)
def test_encoding_constructs_or_raises_value_error(input_ports, aux_ports):
    try:
        enc = MBEncoding(input_ports, aux_ports)
    except ValueError:
        return
    assert all(isinstance(port, str) for port in enc.input_ports + enc.aux_ports)
    assert MBEncoding(enc.input_ports, enc.aux_ports) == enc


def test_dictionary_on_basis_states():
    register = Register(("IN", "A"))
    enc = MBEncoding(("IN",), ("A",))
    cases = (
        (H, 1.0, 0.0, 0b001),   # |H>_IN |H>_A -> |0>|01>
        (H, 0.0, 1.0, 0b010),   # |H>_IN |V>_A -> |0>|10>
        (V, 1.0, 0.0, 0b101),
        (V, 0.0, 1.0, 0b110),
    )
    for pol, ah, av, index in cases:
        occ_h = [0] * register.n_modes
        occ_h[register.index_of(ModeId("IN", pol))] = 1
        occ_h[register.index_of(ModeId("A", H))] = 1
        occ_v = [0] * register.n_modes
        occ_v[register.index_of(ModeId("IN", pol))] = 1
        occ_v[register.index_of(ModeId("A", V))] = 1
        state = FockKet(register, {tuple(occ_h): ah, tuple(occ_v): av})
        encoded = mb_encode(state, enc)
        want = np.zeros(8)
        want[index] = 1.0
        assert np.abs(encoded.amplitudes - want).max() == 0.0


def test_balanced_aux_photon_reads_as_odd_bell():
    register = Register(("A",))
    enc = MBEncoding((), ("A",))
    plus = _aux_photon(register, "A", SQRT_HALF, SQRT_HALF)
    minus = _aux_photon(register, "A", SQRT_HALF, -SQRT_HALF)
    got_plus = mb_encode(plus, enc).amplitudes
    got_minus = mb_encode(minus, enc).amplitudes
    want_plus = np.array([0.0, SQRT_HALF, SQRT_HALF, 0.0])
    want_minus = np.array([0.0, SQRT_HALF, -SQRT_HALF, 0.0])
    assert np.abs(got_plus - want_plus).max() == 0.0
    assert np.abs(got_minus - want_minus).max() == 0.0


def test_encode_rejects_two_photons_in_an_input_port():
    register = Register(("IN",))
    occ = [0] * register.n_modes
    occ[register.index_of(ModeId("IN", H))] = 1
    occ[register.index_of(ModeId("IN", V))] = 1
    state = FockKet(register, {tuple(occ): 1.0})
    with pytest.raises(EncodingDomainError):
        mb_encode(state, MBEncoding(("IN",), ()))


def test_encode_rejects_photons_outside_declared_ports():
    register = Register(("IN", "X"))
    occ = [0] * register.n_modes
    occ[register.index_of(ModeId("IN", H))] = 1
    occ[register.index_of(ModeId("X", H))] = 1
    state = FockKet(register, {tuple(occ): 1.0})
    with pytest.raises(EncodingDomainError):
        mb_encode(state, MBEncoding(("IN",), ()))


def test_decode_rejects_support_outside_the_image():
    enc = MBEncoding((), ("A",))
    from pgw.qubit_teleport import QubitState
    bad = QubitState(("AV", "AH"), (1.0, 0.0, 0.0, 0.0))
    with pytest.raises(DecodingDomainError):
        mb_decode(bad, enc)


def test_decode_checks_qubit_labels():
    enc = MBEncoding(("IN",), ())
    from pgw.qubit_teleport import QubitState
    wrong = QubitState(("OUT",), (1.0, 0.0))
    with pytest.raises(ValueError):
        mb_decode(wrong, enc)


def test_project_encodable_drops_outside_terms():
    register = Register(("IN",))
    occ_good = [0] * register.n_modes
    occ_good[register.index_of(ModeId("IN", H))] = 1
    occ_bad = [0] * register.n_modes
    occ_bad[register.index_of(ModeId("IN", H))] = 2
    state = FockKet(register,
                    {tuple(occ_good): 0.6, tuple(occ_bad): 0.8},
                    validate=False)
    kept = project_encodable(state, MBEncoding(("IN",), ()))
    assert kept.terms == {tuple(occ_good): 0.6}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-1.0, max_value=1.0,
                          allow_nan=False, allow_infinity=False),
                min_size=8, max_size=8))
def test_decode_then_encode_is_identity(raw):
    values = np.array(raw[:4]) + 1j * np.array(raw[4:])
    norm = np.linalg.norm(values)
    if norm > 1.0:
        values = values / norm
    from pgw.qubit_teleport import QubitState
    amps = np.zeros(8, dtype=complex)
    for value, index in zip(values, (0b001, 0b010, 0b101, 0b110)):
        amps[index] = value
    enc = MBEncoding(("IN",), ("A",))
    state = QubitState(enc.qubit_labels, amps)
    back = mb_encode(mb_decode(state, enc), enc)
    assert np.abs(back.amplitudes - amps).max() <= 1e-13


def test_encode_preserves_norm_on_random_encodable_states():
    rng = np.random.default_rng(61)
    register = Register(("IN", "A"))
    enc = MBEncoding(("IN",), ("A",))
    occs = []
    for pol in (H, V):
        for aux in (H, V):
            occ = [0] * register.n_modes
            occ[register.index_of(ModeId("IN", pol))] = 1
            occ[register.index_of(ModeId("A", aux))] = 1
            occs.append(tuple(occ))
    for _ in range(25):
        values = rng.normal(size=4) + 1j * rng.normal(size=4)
        values /= np.linalg.norm(values)
        state = FockKet(register, dict(zip(occs, values)))
        encoded = mb_encode(state, enc)
        assert encoded.norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_check_record_boundary_and_failure():
    ok = check_record("x", "claim", got=1.5, want=1.0, tol=0.5)
    assert ok["status"] == "pass"
    bad = check_record("x", "claim", got=1.5000001, want=1.0, tol=0.5)
    assert bad["status"] == "fail"
    assert set(ok) == {"id", "ref", "status", "got", "want", "tol"}


def _assert_all_pass(records):
    assert records, "verification produced no records"
    for record in records:
        assert record["status"] == "pass", record


def test_verify_pbs_dictionary_action():
    _assert_all_pass(verify_pbs_mb(random.Random(7), trials=30))


def test_verify_hwp_dictionary_action():
    _assert_all_pass(verify_hwp_mb(random.Random(7), trials=30))


def test_verify_filter_matches_parity_telegate():
    _assert_all_pass(verify_f_equals_tprime(BranchOperators(), random.Random(7), trials=30))


def test_verify_aux_resource_equivalence():
    records = verify_aux_state_equivalence()
    _assert_all_pass(records)
    by_id = {record["id"]: record for record in records}
    assert abs(by_id["aux-resource-equivalence"]["got"] - 1.0) <= 1e-12
    assert by_id["aux-resource-needs-rotation"]["got"] == 0.0
    assert by_id["aux-resource-needs-plus-pair"]["got"] == 0.0


def test_verify_optical_cnot_matches_teleported_cnot():
    _assert_all_pass(verify_ecnot_equals_tcnot(BranchOperators(), random.Random(7), trials=20))


@st.composite
def _declared_state(draw):
    """0-2 input and 0-2 aux ports (at least one port) and one spectator
    port, named in a random order, with up to five terms of nonzero
    amplitude: about half encodable, the rest with random counts."""
    n_in = draw(st.integers(0, 2))
    n_aux = draw(st.integers(0 if n_in else 1, 2))
    names = draw(st.permutations("PQRST"))[:n_in + n_aux + 1]
    enc = MBEncoding(tuple(names[:n_in]), tuple(names[n_in:-1]))
    register = Register(names, cutoff=4 * len(names))
    modes = [(m.spatial_label, m.polarization) for m in register.modes]
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            counts = {(port, draw(st.sampled_from("HV"))): 1 for port in names[:-1]}
        else:
            counts = {mode: draw(st.sampled_from((0, 0, 1, 2))) for mode in modes}
        occ = tuple(counts.get(mode, 0) for mode in modes)
        terms[occ] = draw(st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0,
                                             allow_nan=False, allow_infinity=False))
    norm = np.sqrt(sum(abs(a) ** 2 for a in terms.values()))
    return enc, FockKet(register, {occ: a / max(norm, 1.0) for occ, a in terms.items()})


@settings(max_examples=200, deadline=None)
@given(_declared_state())
def test_dictionary_matches_the_oracle(case):
    """mb_encode, project_encodable and mb_decode agree with the per-term
    dictionary in tests/reference.py on random declarations and terms."""
    enc, state = case
    modes = [(m.spatial_label, m.polarization) for m in state.register.modes]
    index = {occ: reference.mixed_basis_index(dict(zip(modes, occ)), enc.input_ports,
                                              enc.aux_ports) for occ in state.terms}
    accepted = {occ: amp for occ, amp in state.terms.items() if index[occ] is not None}
    assert project_encodable(state, enc).terms == accepted
    if len(accepted) < len(state.terms):
        with pytest.raises(EncodingDomainError):
            mb_encode(state, enc)
    want = np.zeros(2 ** len(enc.qubit_labels), dtype=complex)
    for occ, amp in accepted.items():
        want[index[occ]] += amp
    encoded = mb_encode(FockKet(state.register, accepted), enc)
    assert np.array_equal(encoded.amplitudes, want)
    assert np.array_equal(mb_encode(mb_decode(encoded, enc), enc).amplitudes, want)


@pytest.mark.parametrize("inputs, aux, index", [
    (("P1", "P2", "P3", "P4", "P5"), (), 0b10110),
    (("P1", "P2", "P3", "P4", "P5", "P6"), (), 0b101101),
    (("P1", "P2", "P3", "P4"), ("A",), 0b1011_10),
], ids=["5-inputs", "6-inputs", "4-inputs-1-aux"])
def test_decode_then_encode_above_the_default_cutoff(inputs, aux, index):
    """An encoding with more ports than the default cutoff decodes onto a
    register whose cutoff holds one photon per port."""
    from pgw.qubit_teleport import QubitState
    enc = MBEncoding(inputs, aux)
    amps = np.zeros(2 ** len(enc.qubit_labels), dtype=complex)
    amps[index] = 1.0
    decoded = mb_decode(QubitState(enc.qubit_labels, amps), enc)
    assert decoded.register.cutoff >= len(inputs + aux)
    assert np.array_equal(mb_encode(decoded, enc).amplitudes, amps)


def test_aux_ports_encode_in_declaration_order():
    """Each aux port reads as its (V, H) qubit pair, the first declared port
    the most significant: A.H with B.V is |01>|10> on aux ports (A, B), and
    |10>|01> on (B, A)."""
    register = Register(("A", "B"))
    occ = [0] * register.n_modes
    occ[register.index_of(ModeId("A", H))] = occ[register.index_of(ModeId("B", V))] = 1
    state = FockKet(register, {tuple(occ): 1.0})
    for aux_ports, index in ((("A", "B"), 0b0110), (("B", "A"), 0b1001)):
        amplitudes = mb_encode(state, MBEncoding((), aux_ports)).amplitudes
        assert [i for i, amp in enumerate(amplitudes) if amp] == [index]
        assert amplitudes[index] == 1.0
