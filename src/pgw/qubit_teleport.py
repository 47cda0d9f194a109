"""Teleportation-based gates on abstract qubits.

A telegate teleports one qubit through a two-qubit auxiliary resource: the
input qubit and the second auxiliary qubit are measured in a partial Bell
analysis that accepts only the odd-parity Bell states Psi+ (j = 0) and
Psi- (j = 1); the photon-free qubit that survives carries the input, up to
a Z correction indexed by j. With auxiliary Psi+ the corrected output is
the input itself; with Psi- it is Z times the input. Success probability
is 1/2 regardless of the input. The analysis, pbm, returns a GateResult of
its two accepted branches; the rejected Phi+- outcomes carry the rest.

Two telegates whose auxiliary pairs are prepared in the four-qubit
superposition built from Psi+- combinations with a single minus sign
implement a controlled-Z on the two surviving qubits (success 1/4), which
a Hadamard sandwich on the target turns into a CNOT. The parity_filter
variant realizes the same telegate by projecting (input, first aux qubit)
onto the even-parity subspace before the Bell analysis; on auxiliary
states restricted to span{Psi+, Psi-} both variants produce identical
branches. The swap variant relabels the input and first aux qubit ahead of
that same analysis on the auxiliary pair.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Callable

from .fock_core import NORM_SLACK, Branch, GateResult

MAX_QUBITS = 6

_SQRT_HALF = 1.0 / math.sqrt(2.0)  # one ulp below fock_core.HALF, which rounds 2 ** -0.5
_NORM_BOUND = math.sqrt(1.0 + NORM_SLACK)  # the largest norm a state may have

Matrix = tuple[tuple[complex, ...], ...]


def _matrix(rows) -> Matrix:
    """rows, a matrix of numbers or a numpy array, as a tuple of complex rows."""
    return tuple(tuple(map(complex, row)) for row in rows)


def _diag(*entries) -> Matrix:
    return _matrix([[x if i == j else 0 for j in range(len(entries))]
                    for i, x in enumerate(entries)])


IDENTITY_2 = _diag(1, 1)
PAULI_X = _matrix([[0, 1], [1, 0]])
PAULI_Z = _diag(1, -1)
HADAMARD = _matrix([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]])
CZ_MATRIX = _diag(1, 1, 1, -1)
CNOT_MATRIX = _matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
PARITY_FILTER_MATRIX = _diag(1, 0, 0, 1)


def _names(value, what: str) -> tuple[str, ...]:
    """value as a tuple of strings, else ValueError naming the argument what.
    A bare string is refused, not read as one name per character."""
    names = None if isinstance(value, str) or not isinstance(value, Iterable) else tuple(value)
    if names is None or not all(map(isinstance, names, itertools.repeat(str))):
        raise ValueError(f"{what} must be a sequence of strings, got {value!r}")
    return names


def _amplitudes(value) -> tuple[complex, ...]:
    """value, a flat sequence of numbers (a numpy array too), as a tuple of
    complex, else ValueError. complex() also parses strings; they are refused."""
    if hasattr(value, "tolist"):  # a numpy array: its entries as Python numbers
        value = value.tolist()
    flat = isinstance(value, Sequence) and not isinstance(value, (str, bytes, bytearray))
    kinds = set(map(type, value)) if flat else {str}
    if kinds == {complex}:
        return tuple(value)
    if not any(issubclass(kind, str) for kind in kinds):
        try:
            return tuple(map(complex, value))
        except (TypeError, ValueError):
            pass
    raise ValueError(f"amplitudes must be a flat sequence of numbers, got {value!r}")


@dataclass(frozen=True)
class QubitState:
    """Dense n-qubit amplitudes with named qubits; leftmost label is the
    most significant bit of the basis index. amplitudes is a tuple of
    complex, built from any flat sequence of numbers."""

    labels: tuple[str, ...]
    amplitudes: tuple[complex, ...]

    def __post_init__(self):
        labels = _names(self.labels, "labels")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate qubit labels {labels}")
        if len(labels) > MAX_QUBITS:
            raise ValueError(f"at most {MAX_QUBITS} qubits supported")
        amps = _amplitudes(self.amplitudes)
        if len(amps) != 2 ** len(labels):
            raise ValueError(f"expected {2 ** len(labels)} amplitudes, got {len(amps)}")
        # The norm is finite only if every entry is, and fails <= if one is NaN.
        if not math.hypot(*map(abs, amps)) <= _NORM_BOUND:
            finite = all(math.isfinite(a.real) and math.isfinite(a.imag) for a in amps)
            raise ValueError("squared norm exceeds 1" if finite else "non-finite amplitude")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    def norm_squared(self) -> float:
        """Sum of re^2 + im^2, the real part of each conj(a) a, in order."""
        return sum(map(operator.mul, map(complex.conjugate, self.amplitudes),
                       self.amplitudes)).real

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def normalized(self) -> "QubitState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return QubitState(self.labels, [a * (1.0 / n) for a in self.amplitudes])

    def axis_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"qubit {label!r} not in {self.labels}") from None


# Bell state name -> (its two basis indices, the sign of the second):
# Psi+- = (|01> +- |10>)/sqrt(2), Phi+- = (|00> +- |11>)/sqrt(2).
PSI_PLUS, PSI_MINUS, PHI_PLUS, PHI_MINUS = "Psi+", "Psi-", "Phi+", "Phi-"
_BELL_TERMS = {PSI_PLUS: ((0b01, 0b10), 1), PSI_MINUS: ((0b01, 0b10), -1),
               PHI_PLUS: ((0b00, 0b11), 1), PHI_MINUS: ((0b00, 0b11), -1)}


def bell_state(name: str, labels: tuple[str, str] = ("Q1", "Q2")) -> QubitState:
    """The Bell state called name (PSI_PLUS, ..., PHI_MINUS) on labels."""
    if not isinstance(name, str) or name not in _BELL_TERMS:
        raise ValueError(f"not a Bell state: {name!r}")
    (first, second), sign = _BELL_TERMS[name]
    amps = [0j] * 4
    amps[first], amps[second] = _SQRT_HALF, sign * _SQRT_HALF
    return QubitState(labels, amps)


def tensor_qubits(a: QubitState, b: QubitState) -> QubitState:
    if set(a.labels) & set(b.labels):
        raise ValueError("qubit registers overlap")
    return QubitState(a.labels + b.labels, [x * y for x in a.amplitudes for y in b.amplitudes])


def _offsets(state: QubitState, targets: Sequence[str]) -> list[list[int]]:
    """The basis-index offset of every bit pattern on the targets, in pattern
    order with the first target the leading bit, then of every pattern on the
    other qubits: each basis index is one of each, added."""
    axes = [state.axis_of(t) for t in targets]
    if len(set(axes)) != len(axes):
        raise ValueError(f"targets {tuple(targets)} name a qubit twice")
    n, split = state.n_qubits, []
    for group in (axes, [a for a in range(n) if a not in axes]):
        split.append([0])
        for axis in group:
            split[-1] = [o + b for o in split[-1] for b in (0, 1 << (n - 1 - axis))]
    return split


def apply_matrix(state: QubitState, matrix, targets: Sequence[str]) -> QubitState:
    """Apply a 2^k x 2^k matrix (rows of numbers) to the named target qubits."""
    offsets, bases = _offsets(state, targets)
    rows = _matrix(matrix)
    if len(rows) != len(offsets) or any(len(row) != len(offsets) for row in rows):
        raise ValueError(f"matrix is not {len(offsets)} x {len(offsets)}, one per target pattern")
    terms = [[(o, x) for o, x in zip(offsets, row) if x] for row in rows]
    amps, out = state.amplitudes, [0j] * len(state.amplitudes)
    for base in bases:
        for o, row in zip(offsets, terms):
            out[base + o] = sum([x * amps[base + c] for c, x in row])
    return QubitState(state.labels, tuple(out))


def reorder(state: QubitState, new_labels: Sequence[str]) -> QubitState:
    """Permute the qubit order without changing the physical state."""
    new_labels = tuple(new_labels)
    if sorted(new_labels) != sorted(state.labels):
        raise ValueError(f"cannot reorder {state.labels} as {new_labels}")
    return QubitState(new_labels, [state.amplitudes[i] for i in _offsets(state, new_labels)[0]])


def random_amplitudes(rng: random.Random, dim: int) -> tuple[complex, ...]:
    """Normalized complex vector drawn from a rotation-invariant law: dim
    real parts, then dim imaginary parts, from standard normals."""
    re, im = ([rng.gauss(0.0, 1.0) for _ in range(dim)] for _ in range(2))
    norm = math.hypot(*re, *im)
    return tuple([complex(x / norm, y / norm) for x, y in zip(re, im)])


def overlap_q(a: QubitState, b: QubitState) -> complex:
    """Inner product <a|b>, matching qubits by label, with each part summed
    exactly (math.fsum): terms that cancel give exactly 0."""
    terms = [x.conjugate() * y for x, y in zip(a.amplitudes, reorder(b, a.labels).amplitudes)]
    return complex(math.fsum([t.real for t in terms]), math.fsum([t.imag for t in terms]))


def qubit_fidelity(a: QubitState, b: QubitState) -> float:
    """|<a|b>| / (|a| |b|), insensitive to global phase."""
    na, nb = a.norm(), b.norm()
    if na == 0.0 or nb == 0.0:
        raise ValueError("fidelity is undefined for the zero state")
    return abs(overlap_q(a, b)) / (na * nb)


def z_correction(state: QubitState, qubit: str, j: int) -> QubitState:
    """Apply Z^j to the named qubit (j in {0, 1})."""
    if j not in (0, 1):
        raise ValueError("j must be 0 or 1")
    if j == 0:
        return state
    return apply_matrix(state, PAULI_Z, (qubit,))


def pbm(state: QubitState, pair: tuple[str, str]) -> GateResult:
    """Measure a qubit pair, accepting only Psi+ (j = 0) and Psi- (j = 1).

    Accepted branches carry the unnormalized conditional state on the
    remaining qubits; the rejected Phi+- outcomes carry the rest of the norm,
    state.norm_squared() - success_probability."""
    offsets, bases = _offsets(state, pair)
    remaining = tuple(lab for lab in state.labels if lab not in pair)
    amps, branches = state.amplitudes, []
    for j, label in ((0, PSI_PLUS), (1, PSI_MINUS)):
        # Project the pair onto <label| and remove those qubits.
        bra = [(o, x.conjugate()) for o, x in zip(offsets, bell_state(label).amplitudes) if x]
        conditional = QubitState(remaining, [sum([x * amps[base + o] for o, x in bra])
                                             for base in bases])
        branches.append(Branch(label, j, conditional, conditional.norm_squared()))
    return GateResult(tuple(branches))


def parity_filter(state: QubitState, pair: tuple[str, str]) -> QubitState:
    """Project the pair onto the even-parity subspace |00><00| + |11><11|.

    Returns the unnormalized filtered state; both qubits are kept.
    """
    return apply_matrix(state, PARITY_FILTER_MATRIX, pair)


def _teleport_one(joint: QubitState, qubit: str, a1: str, a2: str,
                  variant: str, out_order: Sequence[str]) -> tuple[Branch, Branch]:
    """One teleportation stage inside a larger joint state: stage the state,
    Bell-measure (a1, a2) and apply Z^j to `qubit`, where the input emerges.
    The swap variant stages by a pure relabelling, `qubit` and a1 trading
    names; the parity_filter variant filters (qubit, a1) to even parity."""
    if variant == "swap":
        staged = QubitState(tuple({qubit: a1, a1: qubit}.get(lab, lab) for lab in joint.labels),
                            joint.amplitudes)
    elif variant == "parity_filter":
        staged = parity_filter(joint, (qubit, a1))
    else:
        raise ValueError(f"unknown telegate variant {variant!r}")
    return tuple(
        Branch(b.outcome_label, b.j,
               z_correction(reorder(b.conditional_state, out_order), qubit, b.j), b.probability)
        for b in pbm(staged, (a1, a2)).accepted_branches)


def qubit_gate(gate: Callable[..., GateResult], labels: Sequence[str], *args, **kwargs
               ) -> Callable[[Sequence[complex]], GateResult]:
    """gate on QubitState(labels, amps) and the further arguments, as a
    function of the amplitudes amps."""
    return lambda amps: gate(QubitState(labels, amps), *args, **kwargs)


def telegate_t(input_state: QubitState, qubit: str, aux: QubitState,
               variant: str = "swap") -> GateResult:
    """Teleport one qubit of input_state through a two-qubit auxiliary.

    With auxiliary Psi+ the corrected output equals the input; with Psi-
    it equals Z applied to the teleported qubit. Success probability 1/2.
    The input emerges on `qubit`, so branch states are directly comparable
    with the input.
    """
    if aux.n_qubits != 2:
        raise ValueError("auxiliary must be a two-qubit state")
    a1, a2 = aux.labels
    joint = tensor_qubits(input_state, aux)
    return GateResult(_teleport_one(joint, qubit, a1, a2, variant, input_state.labels))


def cz_aux_state(labels: Sequence[str] = ("A1", "A2", "A1'", "A2'")) -> QubitState:
    """Four-qubit auxiliary resource for the two-telegate controlled-Z:
    (|0101> + |0110> + |1001> - |1010>)/2 on (first pair, second pair)."""
    amps = [0j] * 16
    amps[0b0101] = amps[0b0110] = amps[0b1001] = 0.5
    amps[0b1010] = -0.5
    return QubitState(tuple(labels), amps)


def cz_via_two_telegates(input_state: QubitState, aux: QubitState | None = None
                         ) -> GateResult:
    """Controlled-Z on a two-qubit input via one telegate per qubit.

    aux defaults to cz_aux_state(); its four qubits are consumed pairwise,
    (first, second) teleporting the first input qubit and (third, fourth)
    the second. Four accepted branch combinations, 1/16 each, all equal to
    CZ(input) up to global phase after the Z^j corrections.
    """
    if input_state.n_qubits != 2:
        raise ValueError("input must be a two-qubit state")
    if aux is None:
        aux = cz_aux_state()
    if aux.n_qubits != 4:
        raise ValueError("auxiliary must be a four-qubit state")
    q1, q2 = input_state.labels
    a1, a2, b1, b2 = aux.labels
    joint = tensor_qubits(input_state, aux)
    return GateResult(tuple(
        Branch(f"{s1.outcome_label},{s2.outcome_label}", s2.j, s2.conditional_state,
               s2.probability)
        for s1 in _teleport_one(joint, q1, a1, a2, "swap", (q1, q2, b1, b2))
        for s2 in _teleport_one(s1.conditional_state, q2, b1, b2, "swap", (q1, q2))))


def cnot_via_cz(input_state: QubitState) -> GateResult:
    """CNOT (first qubit controls the second) as H on the target, the
    two-telegate controlled-Z, then H on the target again. Success 1/4."""
    if input_state.n_qubits != 2:
        raise ValueError("input must be a two-qubit state")
    target = input_state.labels[1]
    state = apply_matrix(input_state, HADAMARD, (target,))
    cz = cz_via_two_telegates(state)
    return GateResult(tuple(
        Branch(b.outcome_label, b.j,
               apply_matrix(b.conditional_state, HADAMARD, (target,)), b.probability)
        for b in cz.accepted_branches))
