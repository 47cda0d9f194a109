"""Unit tests for the sparse Fock state layer."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from pgw.fock_core import (
    DetectionPattern,
    FockKet,
    H,
    ModeId,
    ModeTransform,
    Register,
    RegisterError,
    UNITARITY_TOL,
    V,
    apply_mode_transform,
    drop_vacuum_ports,
    measure_and_postselect,
    single_photon,
    tensor,
)
from pgw.optical_elements import pockels_z

HALF = 2.0 ** -0.5


def test_mode_id_parse_and_str():
    mode = ModeId.parse("IN'.V")
    assert mode.spatial_label == "IN'"
    assert mode.polarization == V
    assert str(mode) == "IN'.V"


@pytest.mark.parametrize("text", ["IN", "IN.X", ".H", "H", "IN.h"])
def test_mode_id_parse_rejects_garbage(text):
    with pytest.raises(ValueError):
        ModeId.parse(text)


def test_register_orders_modes_lexicographically():
    reg = Register(("D0", "A", "IN"))
    assert [str(m) for m in reg.modes] == [
        "A.H", "A.V", "D0.H", "D0.V", "IN.H", "IN.V"]
    assert reg.spatial_labels == ("A", "D0", "IN")


def test_register_rejects_duplicates_and_bad_cutoff():
    with pytest.raises(RegisterError):
        Register(("A", "A"))
    with pytest.raises(ValueError):
        Register(("A",), cutoff=0)


@pytest.mark.parametrize("cutoff", [2.5, 4.0, True, False, "4", None, -1],
                         ids=["float", "integral-float", "true", "false", "str", "none", "negative"])
def test_register_cutoff_must_be_an_int_of_at_least_one(cutoff):
    with pytest.raises(ValueError, match="cutoff must be an int"):
        Register(("A",), cutoff=cutoff)


def test_register_cutoff_takes_any_integer_type():
    reg = Register(("A",), cutoff=np.int64(3))
    assert reg.cutoff == 3 and type(reg.cutoff) is int


_LABELS = st.lists(st.text(alphabet="AB'0éΩ", min_size=1, max_size=3), min_size=1,
                   max_size=6, unique=True)


@given(labels=_LABELS, data=st.data())
@example(labels=["AB", "A'", "A"], data=None)
@settings(max_examples=100, deadline=None)
def test_register_orders_modes_and_indexes_ports(labels, data):
    """The labels path sorts like the modes path, a dropped register equals
    the validated one on the same modes, index_of gives each mode's position
    and rejects a dropped one, and the port index names each port's (H, V)
    flat indices while it has both."""
    reg = Register(labels)
    assert reg.modes == tuple(sorted(ModeId(lab, pol) for lab in labels for pol in (H, V)))
    assert reg.modes == Register(modes=reversed(reg.modes)).modes
    for lab in labels:
        assert reg.port_index(lab) == (reg.index_of(ModeId(lab, H)), reg.index_of(ModeId(lab, V)))
    removed = set(reg.modes[::3]) if data is None else data.draw(
        st.sets(st.sampled_from(reg.modes), max_size=len(reg.modes)))
    dropped = reg.drop_modes(removed)
    validated = Register(modes=[m for m in reg.modes if m not in removed], cutoff=reg.cutoff)
    assert dropped == validated
    assert dropped.spatial_labels == validated.spatial_labels
    for r in (reg, dropped):
        assert [r.index_of(m) for m in r.modes] == list(range(r.n_modes))
    for m in removed:
        with pytest.raises(RegisterError, match=re.escape(f"mode {m} not in register")):
            dropped.index_of(m)
    for lab in labels:
        kept = tuple(m for m in reg.modes if m.spatial_label == lab and m not in removed)
        if not kept:
            with pytest.raises(RegisterError, match=f"spatial port {lab!r} not in register"):
                dropped.port_index(lab)
            with pytest.raises(RegisterError, match=f"spatial port {lab!r} not in register"):
                dropped.port_modes(lab)
            continue
        assert dropped.port_modes(lab) == validated.port_modes(lab) == kept
        if len(kept) == 2:
            assert dropped.port_index(lab) == tuple(dropped.index_of(m) for m in kept)
        else:
            with pytest.raises(RegisterError, match=f"spatial port {lab!r} only half in register"):
                dropped.port_index(lab)


def test_register_index_of_unknown_mode():
    reg = Register(("A",))
    with pytest.raises(RegisterError):
        reg.index_of(ModeId("B", H))


def test_polarization_other_than_h_or_v_is_a_register_error():
    with pytest.raises(RegisterError, match=r"mode A\.X "):
        Register(modes=[ModeId("A", "X")])
    with pytest.raises(RegisterError, match=r"mode A\.X not in register"):
        Register(("A",)).index_of(ModeId("A", "X"))
    with pytest.raises(RegisterError, match=r"mode A\.1 is neither H nor V"):
        Register(modes=[ModeId("A", 1), ModeId("A", H)])
    with pytest.raises(ValueError, match=r"^spatial_labels must be a sequence of strings, "
                                         r"got \('A', 3\)$"):
        Register(("A", 3))
    with pytest.raises(RegisterError, match="spatial port label 3 is not a string"):
        Register(modes=[(3, H)])


def test_mode_id_is_a_tuple_that_sorts_by_label_then_h_before_v():
    assert ModeId("A", H) == ("A", "H") and hash(ModeId("A", H)) == hash(("A", "H"))
    assert sorted([ModeId("B", H), ModeId("A", V), ModeId("A", H)]) == [
        ModeId("A", H), ModeId("A", V), ModeId("B", H)]
    assert repr(ModeId("A", V)) == "ModeId(spatial_label='A', polarization='V')"


def test_single_photon_and_vacuum():
    reg = Register(("A", "B"))
    ket = single_photon(ModeId("B", V), reg)
    assert ket.amplitude((0, 0, 0, 1)) == 1.0
    assert ket.norm_squared() == pytest.approx(1.0)


def test_fock_ket_rejects_norm_above_one():
    reg = Register(("A",))
    with pytest.raises(ValueError):
        FockKet(reg, {(1, 0): 1.0, (0, 1): 1.0})


def test_fock_ket_prunes_tiny_amplitudes():
    """Amplitudes of magnitude below 1e-14 are pruned; 1e-14 itself stays."""
    reg = Register(("A",))
    ket = FockKet(reg, {(1, 0): 1.0, (0, 1): 1e-15})
    assert (0, 1) not in ket.terms
    ket = FockKet(reg, {(1, 0): 1.0, (0, 1): 1e-14, (2, 0): 0.99e-14})
    assert set(ket.terms) == {(1, 0), (0, 1)}


def test_fock_ket_rejects_counts_over_cutoff():
    reg = Register(("A",), cutoff=2)
    with pytest.raises(ValueError):
        FockKet(reg, {(3, 0): 0.5})


@pytest.mark.parametrize("occ, message", [
    ((0, -1), "occupation counts must be ints >= 0"),
    ((0.5, 1), "occupation counts must be ints >= 0"),
    ((True, False), "occupation counts must be ints >= 0"),
    ((1, 0, 0), "occupation length 3 != register size 2"),
], ids=["negative", "float", "bool", "wrong-length"])
def test_fock_ket_rejects_bad_occupations(occ, message):
    with pytest.raises(ValueError, match=message):
        FockKet(Register(("A",)), {occ: 1.0})


def test_fock_ket_stores_any_integer_count_as_an_int():
    ket = FockKet(Register(("A",)), {(np.int64(1), np.int8(0)): 1.0})
    (occ,) = ket.terms
    assert occ == (1, 0) and all(type(n) is int for n in occ)


def test_fock_ket_amplitude_takes_any_sequence():
    ket = FockKet(Register(("A",)), {(1, 0): 0.6, (0, 1): 0.8})
    assert ket.amplitude([1, 0]) == ket.amplitude((1, 0)) == 0.6
    assert ket.amplitude(range(2)) == 0.8


def test_tensor_merges_and_maps_occupations():
    left = single_photon(ModeId("IN", V), Register(("IN",)))
    right = single_photon(ModeId("A", H), Register(("A",)))
    joint = tensor(left, right)
    assert joint.register.spatial_labels == ("A", "IN")
    assert joint.amplitude((1, 0, 0, 1)) == 1.0


def test_tensor_rejects_overlapping_ports():
    a = single_photon(ModeId("A", H), Register(("A",)))
    with pytest.raises(RegisterError):
        tensor(a, a)


def test_apply_transform_single_photon_follows_matrix_columns():
    rng = np.random.default_rng(11)
    reg = Register(("A", "B"))
    u = reference.haar_unitary(rng, 4)
    transform = ModeTransform(reg, u)
    for k in range(4):
        ket = FockKet(reg, {tuple(int(i == k) for i in range(4)): 1.0})
        out = apply_mode_transform(ket, transform)
        for j in range(4):
            occ = tuple(int(i == j) for i in range(4))
            assert out.amplitude(occ) == pytest.approx(u[j, k], abs=1e-13)


def test_apply_transform_matches_permanent_oracle_on_two_photons():
    rng = np.random.default_rng(7)
    reg = Register(("A", "B"))
    u = reference.haar_unitary(rng, 4)
    transform = ModeTransform(reg, u)
    basis = [occ for occ in reference.fock_basis(4, 2) if sum(occ) == 2]
    matrix = np.array([[reference.fock_matrix_element(u, out, inp)
                        for inp in basis] for out in basis])
    for col, inp in enumerate(basis):
        out = apply_mode_transform(FockKet(reg, {inp: 1.0}), transform)
        for row, occ in enumerate(basis):
            assert abs(out.amplitude(occ) - matrix[row, col]) < 1e-12


def test_two_photon_bunching_at_balanced_splitter():
    # one photon in each mode of a balanced two-mode mixer leaves bunched
    reg = Register(("A",))
    u = HALF * np.array([[1.0, 1.0], [1.0, -1.0]])
    out = apply_mode_transform(FockKet(reg, {(1, 1): 1.0}), ModeTransform(reg, u))
    assert abs(out.amplitude((1, 1))) < 1e-14
    assert out.amplitude((2, 0)) == pytest.approx(HALF, abs=1e-14)
    assert out.amplitude((0, 2)) == pytest.approx(-HALF, abs=1e-14)


def _spectators(k):
    return st.lists(st.integers(0, 2), min_size=k, max_size=k)


@given(seed=st.integers(0, 2 ** 32 - 1),
       split=st.integers(0, 4).flatmap(lambda n: st.integers(0, n).map(lambda a: (a, n - a))),
       pair=st.sampled_from([(0, 2), (0, 5), (1, 3), (1, 4), (2, 5), (3, 5)]),
       spectators=_spectators(4))
@settings(max_examples=150, deadline=None)
def test_two_mode_block_matches_the_permanent_oracle(seed, split, pair, spectators):
    """A 2 x 2 block on two non-adjacent modes of a 6-mode register, with
    spectator photons on the other four, maps |a, b> on its modes to the
    permanent oracle's column and leaves the spectators alone."""
    a, b = split
    i, j = pair
    u = reference.haar_unitary(np.random.default_rng(seed), 2)
    reg = Register(("A", "B", "C"), cutoff=12)
    rest = iter(spectators)
    occ = tuple(a if k == i else b if k == j else next(rest) for k in range(6))
    out = apply_mode_transform(FockKet(reg, {occ: 1.0}), ModeTransform(reg, u, (i, j)))

    n = a + b
    expected = {}
    for a2 in range(n + 1):
        key = list(occ)
        key[i], key[j] = a2, n - a2
        expected[tuple(key)] = reference.fock_matrix_element(u, (a2, n - a2), (a, b))
    assert set(out.terms) <= set(expected)
    for key, want in expected.items():
        assert abs(out.amplitude(key) - want) <= 1e-14
    for key in out.terms:
        assert type(key) is tuple
        assert sum(key) == sum(occ)


@given(seed=st.integers(0, 2 ** 32 - 1),
       modes=st.sampled_from([(0,), (3,), (5,), (0, 2), (1, 4), (3, 5),
                              (0, 2, 4), (1, 3, 5), (0, 2, 5), (0, 3, 5)]),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_block_of_any_size_matches_the_permanent_oracle(seed, modes, data):
    """A k x k block, k = 1..3, on sorted non-adjacent modes of a 6-mode
    register, with up to 4 photons on its modes and spectator photons on the
    others, maps its counts to the permanent oracle's column and leaves the
    spectators alone."""
    k = len(modes)
    counts = []
    for _ in range(k):
        counts.append(data.draw(st.integers(0, 4 - sum(counts))))
    rest = iter(data.draw(_spectators(6 - k)))
    block = dict(zip(modes, counts))
    occ = tuple(block[m] if m in block else next(rest) for m in range(6))
    u = reference.haar_unitary(np.random.default_rng(seed), k)
    reg = Register(("A", "B", "C"), cutoff=14)
    out = apply_mode_transform(FockKet(reg, {occ: 1.0}), ModeTransform(reg, u, modes))

    expected = {}
    for image in reference.occupations(k, sum(counts)):
        key = list(occ)
        for m, c in zip(modes, image):
            key[m] = c
        expected[tuple(key)] = reference.fock_matrix_element(u, image, counts)
    assert set(out.terms) <= set(expected)
    for key, want in expected.items():
        assert abs(out.amplitude(key) - want) <= 1e-14
    for key in out.terms:
        assert type(key) is tuple
        assert sum(key) == sum(occ)


@given(n=st.integers(0, 4), spectators=_spectators(5),
       amp=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1.0))
@settings(max_examples=100, deadline=None)
def test_phase_block_multiplies_by_exactly_minus_one_to_the_n(n, spectators, amp):
    """pc's 1 x 1 block on A.V (mode 1) scales a term by (-1)**n exactly."""
    reg = Register(("A", "B", "C"), cutoff=14)
    occ = (spectators[0], n, *spectators[1:])
    out = apply_mode_transform(FockKet(reg, {occ: amp}), pockels_z(reg, "A"))
    assert out.terms == {occ: (-1) ** n * amp}
    key = next(iter(out.terms))
    assert type(key) is tuple
    assert sum(key) == sum(occ)


def test_mode_transform_rejects_non_unitary():
    reg = Register(("A",))
    with pytest.raises(ValueError):
        ModeTransform(reg, np.array([[1.0, 0.0], [0.0, 0.5]]))


def test_mode_transform_rejects_nan_entries():
    reg = Register(("A",))
    with pytest.raises(ValueError):
        ModeTransform(reg, np.array([[1.0, 0.0], [0.0, np.nan]]))


def test_mode_transform_rejects_wrong_shape():
    reg = Register(("A", "B"))
    with pytest.raises(ValueError):
        ModeTransform(reg, np.eye(2))


_EXCHANGE = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("block, modes", [
    (np.array([[1.0, 0.0], [0.0, 0.5]]), (0, 3)),
    (np.array([[1.0, 0.0], [0.0, np.nan]]), (0, 3)),
    (np.array([[np.nan, 1.0], [1.0, 0.0]]), (0, 3)),
    (np.eye(2), (0, 1, 2)),
    (np.eye(3), (0, 1)),
    (np.array([-1.0]), (1,)),
    (np.array([[-1.0]]), (4,)),
    (np.array([[-1.0]]), (-1,)),
    (_EXCHANGE, (2, 2)),
    (_EXCHANGE, (3, 1)),
], ids=["not-unitary", "nan-on-identity-diagonal", "nan-off-diagonal", "too-few-modes",
        "too-many-modes", "not-square", "past-the-end", "negative", "repeated",
        "descending"])
def test_mode_transform_rejects_a_bad_block(block, modes):
    with pytest.raises(ValueError):
        ModeTransform(Register(("A", "B")), block, modes)


def test_block_and_full_matrix_forms_store_the_same_transform():
    reg = Register(("A", "B"))
    u = reference.haar_unitary(np.random.default_rng(5), 2)
    full = np.eye(4, dtype=complex)
    full[np.ix_((1, 3), (1, 3))] = u
    from_block = ModeTransform(reg, u, (1, 3))
    from_full = ModeTransform(reg, full)
    for t in (from_block, from_full):
        assert t.touched == (1, 3)
        assert np.array_equal(t.rows, u)
        assert np.array_equal(t.matrix, full)
        assert type(t.matrix) is tuple
        assert all(type(row) is tuple and all(type(x) is complex for x in row)
                   for row in t.matrix)


def test_mode_transform_trims_identity_modes_from_its_block():
    reg = Register(("A", "B"))
    u = np.diag([1.0, -1.0, 1.0])
    t = ModeTransform(reg, u, (0, 1, 3))
    assert t.touched == (1,)
    assert t.rows == ((-1.0,),)
    identity = ModeTransform(reg, np.eye(4))
    assert identity.touched == () and identity.rows == ()
    assert np.array_equal(identity.matrix, np.eye(4))
    ket = FockKet(reg, {(1, 0, 1, 0): 1.0})
    assert apply_mode_transform(ket, identity) is ket


@given(seed=st.integers(0, 2 ** 32 - 1),
       modes=st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True).map(sorted),
       case=st.sampled_from(["exact", "just-below", "just-above", "nan"]),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_block_check_agrees_with_the_numpy_reference(seed, modes, case, data):
    """A Haar block scattered onto ascending modes of a 4-port register, exact,
    perturbed to a reference deviation of 0.9 or 1.1 times UNITARITY_TOL, or
    with a NaN anywhere in the register matrix: ModeTransform accepts it
    exactly when the numpy reference does, with the reference's touched modes
    and block."""
    rng = np.random.default_rng(seed)
    k = len(modes)
    u = reference.haar_unitary(rng, k)
    if case.startswith("just"):
        # The deviation grows linearly in a perturbation this small, so one
        # probe sets the step that lands it on the wanted multiple.
        d = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        probe = 1e-9
        per_step = reference.unitary_deviation(u + probe * d) / probe
        u = u + (0.9 if case == "just-below" else 1.1) * UNITARITY_TOL / per_step * d
    full = np.eye(8, dtype=complex)
    full[np.ix_(modes, modes)] = u
    if case == "nan":
        full[data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))] = np.nan
    reg = Register(("A", "B", "C", "D"))
    for matrix, on in ((full, range(8)), (full[np.ix_(modes, modes)], modes)):
        kept, block = reference.trim_identity(matrix)
        accepted = bool(reference.unitary_deviation(block) <= UNITARITY_TOL)
        assert accepted == (case != "just-above" and not np.isnan(matrix).any())
        if not accepted:
            with pytest.raises(ValueError, match="not unitary"):
                ModeTransform(reg, matrix, on)
            continue
        t = ModeTransform(reg, matrix, on)
        assert t.touched == tuple(on[i] for i in kept)
        assert np.array_equal(np.reshape(t.rows, block.shape), block)
        assert all(type(x) is complex for row in t.rows for x in row)


def test_measure_and_postselect_probability_and_survivors():
    reg = Register(("A", "IN"))
    state = FockKet(reg, {(1, 0, 1, 0): 0.6, (0, 1, 0, 1): 0.8})
    pattern = DetectionPattern({ModeId("A", H): 1, ModeId("A", V): 0}, label="hit", j=0)
    branch = measure_and_postselect(state, pattern)
    assert branch.probability == pytest.approx(0.36)
    assert branch.outcome_label == "hit"
    assert branch.conditional_state.register.spatial_labels == ("IN",)
    assert branch.conditional_state.amplitude((1, 0)) == pytest.approx(0.6)


def test_detection_pattern_default_label_names_its_counts():
    reg = Register(("A", "IN"))
    state = FockKet(reg, {(1, 0, 1, 0): 0.6, (0, 1, 0, 1): 0.8})
    pattern = DetectionPattern({ModeId("A", V): 0, ModeId("A", H): 1})
    assert (pattern.label, pattern.j) == ("A.H=1,A.V=0", 0)
    branch = measure_and_postselect(state, pattern)
    assert (branch.outcome_label, branch.j) == ("A.H=1,A.V=0", 0)
    branch = measure_and_postselect(state, DetectionPattern({ModeId("A", H): 1}, label="hit", j=1))
    assert (branch.outcome_label, branch.j) == ("hit", 1)


@pytest.mark.parametrize("count", [1.5, 1.0, True, False, "1", None, -1],
                         ids=["float", "integral-float", "true", "false", "str", "none", "negative"])
def test_detection_pattern_counts_must_be_ints_of_at_least_zero(count):
    with pytest.raises(ValueError, match="required photon counts must be ints >= 0"):
        DetectionPattern({ModeId("A", H): count})


def test_detection_pattern_takes_any_integer_count():
    pattern = DetectionPattern({ModeId("A", H): np.int64(1), ModeId("A", V): 0})
    assert pattern.label == "A.H=1,A.V=0"
    assert all(type(n) is int for _, n in pattern.required)


def test_measurement_outcomes_sum_to_norm():
    reg = Register(("A", "IN"))
    state = FockKet(reg, {(1, 0, 1, 0): 0.5, (0, 1, 0, 1): 0.5,
                          (1, 0, 0, 1): 0.5, (0, 1, 1, 0): 0.5})
    total = 0.0
    for counts in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)):
        pattern = DetectionPattern({ModeId("A", H): counts[0],
                                    ModeId("A", V): counts[1]})
        total += measure_and_postselect(state, pattern).probability
    assert total == pytest.approx(state.norm_squared(), abs=1e-13)


def test_drop_vacuum_ports():
    reg = Register(("A", "IN"))
    state = FockKet(reg, {(0, 0, 1, 0): 1.0})
    smaller = drop_vacuum_ports(state, ("A",))
    assert smaller.register.spatial_labels == ("IN",)
    assert smaller.amplitude((1, 0)) == 1.0
    occupied = FockKet(reg, {(1, 0, 1, 0): 1.0})
    with pytest.raises(ValueError):
        drop_vacuum_ports(occupied, ("A",))


def test_permanent_oracle_known_values():
    assert reference.permanent(np.array([[3.0]])) == pytest.approx(3.0)
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert reference.permanent(m) == pytest.approx(10.0)
    assert reference.permanent(np.ones((3, 3))) == pytest.approx(6.0)


def test_haar_unitary_is_unitary():
    u = reference.haar_unitary(np.random.default_rng(3), 5)
    assert np.abs(u.conj().T @ u - np.eye(5)).max() < 1e-12


_FIXED_REG = Register(("A",))
_FIXED_U = ModeTransform(_FIXED_REG,
                         reference.haar_unitary(np.random.default_rng(2), 2))

_coeff = st.floats(min_value=-0.5, max_value=0.5, allow_nan=False)


@given(_coeff, _coeff, _coeff, _coeff)
@settings(max_examples=60, deadline=None)
def test_transform_is_linear(ar, ai, br, bi):
    a = complex(ar, ai)
    b = complex(br, bi)
    x = FockKet(_FIXED_REG, {(1, 0): 1.0})
    y = FockKet(_FIXED_REG, {(0, 1): 1.0})
    combined = apply_mode_transform(
        FockKet(_FIXED_REG, reference.superpose([(a, x.terms), (b, y.terms)])), _FIXED_U)
    split = reference.superpose([(a, apply_mode_transform(x, _FIXED_U).terms),
                                 (b, apply_mode_transform(y, _FIXED_U).terms)])
    keys = set(combined.terms) | set(split)
    assert all(abs(combined.amplitude(k) - split.get(k, 0j)) < 1e-12 for k in keys)


@given(st.lists(_coeff, min_size=8, max_size=8))
@settings(max_examples=60, deadline=None)
def test_transform_preserves_norm(raw):
    amps = np.array(raw[0::2]) + 1j * np.array(raw[1::2])
    scale = max(1.0, np.linalg.norm(amps))
    occs = [(2, 0), (1, 1), (0, 2), (1, 0)]
    ket = FockKet(_FIXED_REG, {occ: amp / scale for occ, amp in zip(occs, amps)})
    out = apply_mode_transform(ket, _FIXED_U)
    assert out.norm_squared() == pytest.approx(ket.norm_squared(), abs=1e-12)


def test_equal_registers_and_equal_transforms_on_them_hash_equal():
    """A ModeTransform is a frozen value whose hash hashes its register."""
    by_labels = Register(("B", "A"))
    by_modes = Register(modes=[("A", V), ModeId("B", H), ModeId("B", V), ("A", H)])
    assert by_labels == by_modes and by_labels is not by_modes
    assert hash(by_labels) == hash(by_modes)
    assert Register(("A", "B"), cutoff=5) != by_labels
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    one, other = (ModeTransform(reg, swap, (1, 3)) for reg in (by_labels, by_modes))
    assert one == other and hash(one) == hash(other)
    assert len({one, other, ModeTransform(by_labels, swap, (0, 2))}) == 2


@pytest.mark.parametrize("call, error, message", [
    (lambda: tensor(single_photon(ModeId("A", H), Register(("A",), cutoff=3)),
                    single_photon(ModeId("B", H), Register(("B",)))),
     RegisterError, "cannot merge registers with different cutoffs"),
    (lambda: FockKet(Register(("A",)), {(1, 0): float("nan")}), ValueError,
     "non-finite amplitude"),
    (lambda: FockKet(Register(("A",)), {(0, 1): complex(0.5, float("inf"))}), ValueError,
     "non-finite amplitude"),
    (lambda: FockKet(Register(("A",)), {}).normalized(), ValueError,
     "cannot normalize the zero ket"),
    (lambda: apply_mode_transform(single_photon(ModeId("A", H), Register(("A",))),
                                  pockels_z(Register(("A", "B")), "A")),
     RegisterError, "transform register differs from state register"),
], ids=["merge-different-cutoffs", "nan-amplitude", "infinite-amplitude",
        "normalize-zero", "transform-on-another-register"])
def test_a_malformed_state_operation_names_what_is_wrong(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
