"""Passive and active optical elements as mode transforms.

Conventions:
  * pbs transmits H and reflects V between its two spatial ports, with
    reflection coefficient +1 (real permutation on the V modes);
  * hwp at angle theta applies -i [[cos 2t, sin 2t], [sin 2t, -cos 2t]]
    on the (H, V) pair of its port, so 22.5 degrees is the balanced
    rotation including the -i factor;
  * pockels_z is the polarization phase flip |V> -> -|V>, applied by the
    gate layer as classical feed-forward, not as a quantum control.

An element is its ELEMENTS row, keyed by its circuit-file word.
ElementSpec(kind, args, angle_degrees) checks its arguments against that
row, and the circuit-file parser reads `element` lines by it. Each kind's
block builder finds its modes through the register's port index and writes
its plain-Python block on them. ElementSpec.block returns that block,
which Pipeline.run composes; ElementSpec.build and pbs, hwp, pockels_z and
mode_swap return it as a checked ModeTransform, whose matrix gives the full
register matrix as plain rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fock_core import ModeId, ModeTransform, Register, RegisterError, _mode

# (modes, rows): an element's flat modes, ascending, and its block on them.
Block = tuple[tuple[int, ...], tuple[tuple[complex, ...], ...]]


@dataclass(frozen=True)
class ElementSpec:
    """Declarative element description; the unit of the CLI circuit format.
    kind is an ELEMENTS key, whose row says whether args are ports or modes."""

    kind: str
    args: tuple
    angle_degrees: float = 0.0

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in ELEMENTS:
            raise ValueError(f"unknown element kind {self.kind!r}")
        if not isinstance(self.args, tuple):
            raise ValueError(f"{self.kind} arguments must be a tuple, got {self.args!r}")
        _, arity, modes, angle = ELEMENTS[self.kind]
        noun = "mode" if modes else "spatial port"
        if len(self.args) != arity or not all(isinstance(a, ModeId if modes else str)
                                              for a in self.args):
            raise ValueError(f"{self.kind} takes exactly {arity} {noun}(s), got {self.args!r}")
        try:  # a mode's label is a string and its polarization H or V, as in a Register
            for a in self.args if modes else ():
                _mode(a, "args")
        except RegisterError as e:
            raise ValueError(f"{self.kind} args {self.args!r}: {e}") from None
        degrees = self.angle_degrees  # a bool is not an angle; a numpy float is a float
        if isinstance(degrees, bool) or not isinstance(degrees, (int, float)):
            raise ValueError(f"{self.kind} angle must be a number of degrees, got {degrees!r}")
        if not angle and degrees != 0.0:
            raise ValueError(f"{self.kind} takes no angle, got {degrees!r}")

    def block(self, register: Register) -> Block:
        """The element's flat modes on register, ascending, and its block on them."""
        builder, _, _, angle = ELEMENTS[self.kind]
        extra = (self.angle_degrees,) if angle else ()
        return builder(register, *self.args, *extra)

    def build(self, register: Register) -> ModeTransform:
        modes, rows = self.block(register)
        return ModeTransform(register, rows, modes)


_EXCHANGE = ((0j, 1 + 0j), (1 + 0j, 0j))


def _pbs_block(register: Register, port_a: str, port_b: str) -> Block:
    if port_a == port_b:
        raise ValueError("pbs needs two distinct spatial ports")
    _, av = register.port_index(port_a)
    _, bv = register.port_index(port_b)
    return (av, bv) if av < bv else (bv, av), _EXCHANGE


def _hwp_block(register: Register, port: str, theta_degrees: float) -> Block:
    if not math.isfinite(theta_degrees):
        raise ValueError(f"wave plate angle must be finite, got {theta_degrees!r}")
    ih, iv = register.port_index(port)
    # The plate has period 180 degrees; reducing first keeps 2 theta finite.
    two_theta = math.radians(2.0 * math.fmod(theta_degrees, 180.0))
    c, s = math.cos(two_theta), math.sin(two_theta)
    # H sorts before V, so (ih, iv) is ascending.
    return (ih, iv), ((-1j * c, -1j * s), (-1j * s, 1j * c))


def _pc_block(register: Register, port: str) -> Block:
    _, iv = register.port_index(port)
    return (iv,), ((-1 + 0j,),)


def _swap_block(register: Register, m1: ModeId, m2: ModeId) -> Block:
    if m1 == m2:
        raise ValueError("mode_swap needs two distinct modes")
    i1, i2 = register.index_of(m1), register.index_of(m2)
    return (i1, i2) if i1 < i2 else (i2, i1), _EXCHANGE


def pbs(register: Register, port_a: str, port_b: str) -> ModeTransform:
    """Polarizing beam splitter: H transmits, V is exchanged between ports."""
    return ElementSpec("pbs", (port_a, port_b)).build(register)


def hwp(register: Register, port: str, theta_degrees: float) -> ModeTransform:
    """Half-wave plate at theta_degrees on the (H, V) pair of one port."""
    return ElementSpec("hwp", (port,), theta_degrees).build(register)


def pockels_z(register: Register, port: str) -> ModeTransform:
    """Conditional phase flip element: |H> -> |H>, |V> -> -|V> on the port."""
    return ElementSpec("pc", (port,)).build(register)


def mode_swap(register: Register, m1: ModeId, m2: ModeId) -> ModeTransform:
    """Permutation exchanging two modes (used to route photons to detectors)."""
    return ElementSpec("swap", (m1, m2)).build(register)


# The one table of elements. Circuit-file word -> (block builder, number of
# arguments, whether they are modes (else spatial ports), whether an angle in
# degrees follows them); the builder is called as (register, *arguments).
ELEMENTS = {
    "pbs": (_pbs_block, 2, False, False),
    "hwp": (_hwp_block, 1, False, True),
    "pc": (_pc_block, 1, False, False),
    "swap": (_swap_block, 2, True, False),
}
