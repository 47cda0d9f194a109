"""Unit tests for the passive element constructors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgw.fock_core import (
    FockKet,
    H,
    ModeId,
    ModeTransform,
    Register,
    RegisterError,
    V,
    apply_mode_transform,
    single_photon,
)
from pgw.optical_elements import (
    ELEMENTS,
    ElementKind,
    ElementSpec,
    hwp,
    mode_swap,
    pbs,
    pockels_z,
)

HALF = 2.0 ** -0.5


def test_hwp_matrix_at_22_5_degrees():
    # frozen reference block, including the fixed -i prefactor
    reg = Register(("A",))
    want = -1j * HALF * np.array([[1.0, 1.0], [1.0, -1.0]])
    assert np.abs(hwp(reg, "A", 22.5).matrix - want).max() < 1e-14


def test_hwp_reduces_a_huge_angle_by_its_180_degree_period():
    # 2 * 1e308 overflows a float, so the angle is reduced before doubling.
    reg = Register(("A",))
    want = hwp(reg, "A", math.fmod(1e308, 180.0)).matrix
    assert np.array_equal(hwp(reg, "A", 1e308).matrix, want)


def test_hwp_zero_angle_phases():
    reg = Register(("A",))
    out_h = apply_mode_transform(single_photon(ModeId("A", H), reg), hwp(reg, "A", 0.0))
    out_v = apply_mode_transform(single_photon(ModeId("A", V), reg), hwp(reg, "A", 0.0))
    assert out_h.amplitude((1, 0)) == pytest.approx(-1.0j, abs=1e-14)
    assert out_v.amplitude((0, 1)) == pytest.approx(1.0j, abs=1e-14)


def test_hwp_45_degrees_exchanges_polarizations():
    reg = Register(("A",))
    out = apply_mode_transform(single_photon(ModeId("A", H), reg), hwp(reg, "A", 45.0))
    assert out.amplitude((0, 1)) == pytest.approx(-1.0j, abs=1e-14)
    assert abs(out.amplitude((1, 0))) < 1e-14


@pytest.mark.parametrize("theta", [0.0, 10.0, 22.5, 30.0, 45.0, 67.5, 90.0])
def test_hwp_double_pass_is_minus_identity(theta):
    reg = Register(("A",))
    m = hwp(reg, "A", theta).matrix
    assert np.abs(m @ m + np.eye(2)).max() < 1e-13


def test_pbs_transmits_h_and_crosses_v():
    reg = Register(("A", "B"))
    element = pbs(reg, "A", "B")
    stays = apply_mode_transform(single_photon(ModeId("A", H), reg), element)
    crosses = apply_mode_transform(single_photon(ModeId("A", V), reg), element)
    back = apply_mode_transform(single_photon(ModeId("B", V), reg), element)
    assert stays.amplitude((1, 0, 0, 0)) == pytest.approx(1.0, abs=1e-14)
    assert crosses.amplitude((0, 0, 0, 1)) == pytest.approx(1.0, abs=1e-14)
    assert back.amplitude((0, 1, 0, 0)) == pytest.approx(1.0, abs=1e-14)


def test_pbs_rejects_bad_ports():
    reg = Register(("A", "B"))
    with pytest.raises(ValueError):
        pbs(reg, "A", "A")
    with pytest.raises(RegisterError):
        pbs(reg, "A", "C")


def test_pockels_z_flips_v_only():
    reg = Register(("A",))
    m = pockels_z(reg, "A").matrix
    assert np.abs(m - np.diag([1.0, -1.0])).max() == 0.0


def test_mode_swap_exchanges_two_modes():
    reg = Register(("A", "B"))
    element = mode_swap(reg, ModeId("A", V), ModeId("B", V))
    out = apply_mode_transform(single_photon(ModeId("A", V), reg), element)
    assert out.amplitude((0, 0, 0, 1)) == 1.0
    with pytest.raises(ValueError):
        mode_swap(reg, ModeId("A", V), ModeId("A", V))


def test_all_elements_are_unitary():
    reg = Register(("A", "B", "C"))
    eye = np.eye(reg.n_modes)
    for transform in (pbs(reg, "A", "B"), hwp(reg, "B", 33.0), pockels_z(reg, "C"),
                      mode_swap(reg, ModeId("A", H), ModeId("C", V))):
        assert np.abs(transform.matrix.conj().T @ transform.matrix - eye).max() < 1e-12


def test_disjoint_elements_commute():
    reg = Register(("A", "B", "C"))
    p = pbs(reg, "A", "B").matrix
    q = hwp(reg, "C", 17.0).matrix
    assert np.abs(p @ q - q @ p).max() == 0.0


def test_element_spec_validates_arity():
    with pytest.raises(ValueError):
        ElementSpec(ElementKind.PBS, ("A",))
    with pytest.raises(ValueError):
        ElementSpec(ElementKind.HWP, ("A", "B"))
    with pytest.raises(ValueError):
        ElementSpec(ElementKind.SWAP, (), (ModeId("A", H),))


@pytest.mark.parametrize("kind", [k for k, (_, _, _, angle) in ELEMENTS.items() if not angle],
                         ids=lambda k: k.value)
def test_element_spec_rejects_an_angle_on_a_kind_without_one(kind):
    _, arity, modes, _ = ELEMENTS[kind]
    args = (ModeId("A", H), ModeId("B", H))[:arity] if modes else ("A", "B")[:arity]
    fields = ((), args) if modes else (args, ())
    ElementSpec(kind, *fields)
    with pytest.raises(ValueError, match="takes no angle"):
        ElementSpec(kind, *fields, 22.5)


def test_element_spec_build_matches_direct_constructors():
    reg = Register(("A", "B"))
    pairs = [
        (ElementSpec(ElementKind.PBS, ("A", "B")), pbs(reg, "A", "B")),
        (ElementSpec(ElementKind.HWP, ("A",), (), 22.5), hwp(reg, "A", 22.5)),
        (ElementSpec(ElementKind.PC, ("B",)), pockels_z(reg, "B")),
        (ElementSpec(ElementKind.SWAP, (), (ModeId("A", H), ModeId("B", H))),
         mode_swap(reg, ModeId("A", H), ModeId("B", H))),
    ]
    for spec, direct in pairs:
        assert np.array_equal(spec.build(reg).matrix, direct.matrix)


def test_balanced_plate_bunches_photon_pairs():
    reg = Register(("A",))
    out = apply_mode_transform(FockKet(reg, {(1, 1): 1.0}), hwp(reg, "A", 22.5))
    assert abs(out.amplitude((1, 1))) < 1e-14
    assert out.amplitude((2, 0)) == pytest.approx(-HALF, abs=1e-13)
    assert out.amplitude((0, 2)) == pytest.approx(HALF, abs=1e-13)


@pytest.mark.parametrize("angle", [float("nan"), float("inf")])
def test_hwp_rejects_non_finite_angles(angle):
    with pytest.raises(ValueError):
        hwp(Register(("A",)), "A", angle)


def test_elements_on_a_wide_register_store_only_their_small_block():
    reg = Register([f"p{k:03d}" for k in range(256)])

    def idx(port, pol):
        return reg.index_of(ModeId(port, pol))

    cases = [
        (pbs(reg, "p200", "p007"), (idx("p007", V), idx("p200", V))),
        (hwp(reg, "p100", 33.0), (idx("p100", H), idx("p100", V))),
        (pockels_z(reg, "p255"), (idx("p255", V),)),
        (mode_swap(reg, ModeId("p250", H), ModeId("p003", V)),
         (idx("p003", V), idx("p250", H))),
    ]
    for transform, touched in cases:
        assert transform.touched == touched
        assert transform.block.shape == (len(touched), len(touched))


def _full_register_matrix(reg, spec):
    """Each element as it was built before blocks: the register identity
    with the element's entries written in."""
    m = np.eye(reg.n_modes, dtype=complex)
    if spec.kind is ElementKind.PBS:
        av, bv = (reg.index_of(ModeId(p, V)) for p in spec.spatial_ports)
        m[av, av] = m[bv, bv] = 0.0
        m[av, bv] = m[bv, av] = 1.0
    elif spec.kind is ElementKind.HWP:
        ih = reg.index_of(ModeId(spec.spatial_ports[0], H))
        iv = reg.index_of(ModeId(spec.spatial_ports[0], V))
        two_theta = math.radians(2.0 * math.fmod(spec.angle_degrees, 180.0))
        c, s = math.cos(two_theta), math.sin(two_theta)
        m[ih, ih] = -1j * c
        m[ih, iv] = -1j * s
        m[iv, ih] = -1j * s
        m[iv, iv] = 1j * c
    elif spec.kind is ElementKind.PC:
        iv = reg.index_of(ModeId(spec.spatial_ports[0], V))
        m[iv, iv] = -1.0
    else:
        i1, i2 = (reg.index_of(mode) for mode in spec.modes)
        m[i1, i1] = m[i2, i2] = 0.0
        m[i1, i2] = m[i2, i1] = 1.0
    return m


@st.composite
def _element_on_a_state(draw):
    labels = [f"P{k}" for k in range(draw(st.integers(2, 6)))]
    reg = Register(labels)
    kind = draw(st.sampled_from(list(ElementKind)))
    if kind is ElementKind.SWAP:
        modes = draw(st.lists(st.sampled_from(reg.modes), min_size=2, max_size=2, unique=True))
        spec = ElementSpec(kind, (), tuple(modes))
    else:
        arity = 2 if kind is ElementKind.PBS else 1
        ports = draw(st.lists(st.sampled_from(labels), min_size=arity, max_size=arity,
                              unique=True))
        angle = draw(st.floats(-720.0, 720.0)) if kind is ElementKind.HWP else 0.0
        spec = ElementSpec(kind, tuple(ports), (), angle)
    # up to four terms of up to three photons each, placed mode by mode
    placements = draw(st.lists(
        st.lists(st.integers(0, reg.n_modes - 1), min_size=1, max_size=3),
        min_size=1, max_size=4))
    terms = {}
    for photons in placements:
        occ = [0] * reg.n_modes
        for i in photons:
            occ[i] += 1
        terms[tuple(occ)] = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    norm = math.sqrt(sum(abs(a) ** 2 for a in terms.values())) or 1.0
    ket = FockKet(reg, {occ: a / (2.0 * norm) for occ, a in terms.items()})
    return reg, spec, ket


@given(_element_on_a_state())
@settings(max_examples=150, deadline=None)
def test_element_blocks_equal_the_full_register_construction(case):
    reg, spec, ket = case
    t = spec.build(reg)
    full = _full_register_matrix(reg, spec)
    assert np.array_equal(t.matrix, full)
    differs = np.abs(full - np.eye(reg.n_modes)) > 1e-15
    assert t.touched == tuple(i for i in range(reg.n_modes)
                              if differs[i, :].any() or differs[:, i].any())
    from_full = ModeTransform(reg, t.matrix)
    assert apply_mode_transform(ket, t).terms == apply_mode_transform(ket, from_full).terms
