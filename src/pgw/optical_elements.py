"""Passive and active optical elements as mode transforms.

Conventions:
  * pbs transmits H and reflects V between its two spatial ports, with
    reflection coefficient +1 (real permutation on the V modes);
  * hwp at angle theta applies -i [[cos 2t, sin 2t], [sin 2t, -cos 2t]]
    on the (H, V) pair of its port, so 22.5 degrees is the balanced
    rotation including the -i factor;
  * pockels_z is the polarization phase flip |V> -> -|V>, applied by the
    gate layer as classical feed-forward, not as a quantum control.

ELEMENTS is the one table of element signatures; ElementSpec checks and
builds through it, and the circuit-file parser reads `element` lines by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .fock_core import H, V, ModeId, ModeTransform, Register


class ElementKind(str, Enum):
    PBS = "pbs"
    HWP = "hwp"
    PC = "pc"
    SWAP = "swap"


@dataclass(frozen=True)
class ElementSpec:
    """Declarative element description; the unit of the CLI circuit format."""

    kind: ElementKind
    spatial_ports: tuple[str, ...] = ()
    modes: tuple[ModeId, ...] = ()
    angle_degrees: float = 0.0

    def __post_init__(self):
        kind = ElementKind(self.kind)
        object.__setattr__(self, "kind", kind)
        _, arity, modes, angle = ELEMENTS[kind]
        if (len(self.spatial_ports), len(self.modes)) != ((0, arity) if modes else (arity, 0)):
            noun = "mode" if modes else "spatial port"
            raise ValueError(f"{kind.value} takes exactly {arity} {noun}(s)")
        if not angle and self.angle_degrees != 0.0:
            raise ValueError(f"{kind.value} takes no angle, got {self.angle_degrees!r}")

    def build(self, register: Register) -> ModeTransform:
        constructor, _, _, angle = ELEMENTS[self.kind]
        extra = (self.angle_degrees,) if angle else ()
        return constructor(register, *(self.modes or self.spatial_ports), *extra)


_EXCHANGE = ((0.0, 1.0), (1.0, 0.0))


def pbs(register: Register, port_a: str, port_b: str) -> ModeTransform:
    """Polarizing beam splitter: H transmits, V is exchanged between ports."""
    if port_a == port_b:
        raise ValueError("pbs needs two distinct spatial ports")
    av = register.index_of(ModeId(port_a, V))
    bv = register.index_of(ModeId(port_b, V))
    register.index_of(ModeId(port_a, H))
    register.index_of(ModeId(port_b, H))
    return ModeTransform(register, _EXCHANGE, sorted((av, bv)))


def hwp(register: Register, port: str, theta_degrees: float) -> ModeTransform:
    """Half-wave plate at theta_degrees on the (H, V) pair of one port."""
    if not math.isfinite(theta_degrees):
        raise ValueError(f"wave plate angle must be finite, got {theta_degrees!r}")
    ih = register.index_of(ModeId(port, H))
    iv = register.index_of(ModeId(port, V))
    # The plate has period 180 degrees; reducing first keeps 2 theta finite.
    two_theta = math.radians(2.0 * math.fmod(theta_degrees, 180.0))
    c, s = math.cos(two_theta), math.sin(two_theta)
    # H sorts before V, so (ih, iv) is ascending.
    return ModeTransform(register, ((-1j * c, -1j * s), (-1j * s, 1j * c)), (ih, iv))


def pockels_z(register: Register, port: str) -> ModeTransform:
    """Conditional phase flip element: |H> -> |H>, |V> -> -|V> on the port."""
    register.index_of(ModeId(port, H))
    iv = register.index_of(ModeId(port, V))
    return ModeTransform(register, ((-1.0,),), (iv,))


def mode_swap(register: Register, m1: ModeId, m2: ModeId) -> ModeTransform:
    """Permutation exchanging two modes (used to route photons to detectors)."""
    if m1 == m2:
        raise ValueError("mode_swap needs two distinct modes")
    i1, i2 = register.index_of(m1), register.index_of(m2)
    return ModeTransform(register, _EXCHANGE, sorted((i1, i2)))


# The one table of element signatures. Kind -> (constructor, number of
# arguments, whether they are modes (else spatial ports), whether an angle in
# degrees follows them); the constructor is called as (register, *arguments).
ELEMENTS = {
    ElementKind.PBS: (pbs, 2, False, False),
    ElementKind.HWP: (hwp, 1, False, True),
    ElementKind.PC: (pockels_z, 1, False, False),
    ElementKind.SWAP: (mode_swap, 2, True, False),
}
