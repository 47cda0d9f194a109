"""Unit tests for the passive element constructors."""

import math

import numpy as np
import pytest

from pgw.fock_core import (
    FockKet,
    H,
    ModeId,
    Register,
    RegisterError,
    V,
    apply_mode_transform,
    single_photon,
)
from pgw.optical_elements import ElementKind, ElementSpec, hwp, mode_swap, pbs, pockels_z

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
