"""Teleportation-based gates on abstract qubits.

A telegate teleports one qubit through a two-qubit auxiliary resource: the
input qubit and the second auxiliary qubit are measured in a partial Bell
analysis that accepts only the odd-parity Bell states Psi+ (j = 0) and
Psi- (j = 1); the photon-free qubit that survives carries the input, up to
a Z correction indexed by j. With auxiliary Psi+ the corrected output is
the input itself; with Psi- it is Z times the input. Success probability
is 1/2 regardless of the input.

Two telegates whose auxiliary pairs are prepared in the four-qubit
superposition built from Psi+- combinations with a single minus sign
implement a controlled-Z on the two surviving qubits (success 1/4), which
a Hadamard sandwich on the target turns into a CNOT. The parity_filter
variant realizes the same telegate by projecting (input, first aux qubit)
onto the even-parity subspace before the Bell analysis; on auxiliary
states restricted to span{Psi+, Psi-} both variants produce identical
branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fock_core import NORM_SLACK, Branch, GateResult

MAX_QUBITS = 6

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
CZ_MATRIX = np.diag([1, 1, 1, -1]).astype(complex)
CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
PARITY_FILTER_MATRIX = np.diag([1, 0, 0, 1]).astype(complex)


@dataclass(frozen=True)
class QubitState:
    """Dense n-qubit amplitudes with named qubits; leftmost label is the
    most significant bit of the basis index."""

    labels: tuple[str, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate qubit labels {labels}")
        if len(labels) > MAX_QUBITS:
            raise ValueError(f"at most {MAX_QUBITS} qubits supported")
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != 2 ** len(labels):
            raise ValueError(f"expected {2 ** len(labels)} amplitudes, got {amps.size}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("non-finite amplitude")
        if float(np.vdot(amps, amps).real) > 1.0 + NORM_SLACK:
            raise ValueError("squared norm exceeds 1")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "QubitState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return QubitState(self.labels, self.amplitudes / n)

    def axis_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"qubit {label!r} not in {self.labels}") from None


@dataclass(frozen=True)
class BellLabel:
    """One of the four Bell states: family Psi (odd parity) or Phi (even),
    sign +1 or -1."""

    family: str
    sign: int

    def __post_init__(self):
        if self.family not in ("Psi", "Phi") or self.sign not in (1, -1):
            raise ValueError(f"not a Bell label: {self.family}, {self.sign}")

    def __str__(self):
        return f"{self.family}{'+' if self.sign == 1 else '-'}"


PSI_PLUS = BellLabel("Psi", 1)
PSI_MINUS = BellLabel("Psi", -1)
PHI_PLUS = BellLabel("Phi", 1)
PHI_MINUS = BellLabel("Phi", -1)


def bell_state(label: BellLabel, labels: tuple[str, str] = ("Q1", "Q2")) -> QubitState:
    """Psi+- = (|01> +- |10>)/sqrt(2), Phi+- = (|00> +- |11>)/sqrt(2)."""
    amps = np.zeros(4, dtype=complex)
    if label.family == "Psi":
        amps[0b01] = 1.0
        amps[0b10] = label.sign
    else:
        amps[0b00] = 1.0
        amps[0b11] = label.sign
    return QubitState(labels, amps / np.sqrt(2.0))


def tensor_qubits(a: QubitState, b: QubitState) -> QubitState:
    if set(a.labels) & set(b.labels):
        raise ValueError("qubit registers overlap")
    return QubitState(a.labels + b.labels, np.kron(a.amplitudes, b.amplitudes))


def apply_matrix(state: QubitState, matrix: np.ndarray, targets: Sequence[str]) -> QubitState:
    """Apply a 2^k x 2^k matrix to the named target qubits."""
    k = len(targets)
    axes = [state.axis_of(t) for t in targets]
    n = state.n_qubits
    tensor_form = state.amplitudes.reshape((2,) * n)
    op = np.asarray(matrix, dtype=complex).reshape((2,) * (2 * k))
    moved = np.tensordot(op, tensor_form, axes=(list(range(k, 2 * k)), axes))
    moved = np.moveaxis(moved, list(range(k)), axes)
    return QubitState(state.labels, moved.reshape(-1))


def reorder(state: QubitState, new_labels: Sequence[str]) -> QubitState:
    """Permute the qubit order without changing the physical state."""
    new_labels = tuple(new_labels)
    if sorted(new_labels) != sorted(state.labels):
        raise ValueError(f"cannot reorder {state.labels} as {new_labels}")
    perm = [state.axis_of(lab) for lab in new_labels]
    tensor_form = state.amplitudes.reshape((2,) * state.n_qubits)
    return QubitState(new_labels, np.transpose(tensor_form, perm).reshape(-1))


def random_amplitudes(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Normalized complex vector drawn from a rotation-invariant law: dim
    real parts, then dim imaginary parts, from standard normals."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_qubit_state(rng: np.random.Generator, labels: Sequence[str]) -> QubitState:
    """Normalized state with rotation-invariant random amplitudes."""
    return QubitState(tuple(labels), random_amplitudes(rng, 2 ** len(labels)))


def overlap_q(a: QubitState, b: QubitState) -> complex:
    """Inner product <a|b>, matching qubits by label."""
    return complex(np.vdot(a.amplitudes, reorder(b, a.labels).amplitudes))


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


def _contract_pair(state: QubitState, pair: tuple[str, str], bra: np.ndarray) -> QubitState:
    """Project the named pair onto <bra| and remove those qubits."""
    i, k = state.axis_of(pair[0]), state.axis_of(pair[1])
    tensor_form = state.amplitudes.reshape((2,) * state.n_qubits)
    contracted = np.tensordot(bra.conj().reshape(2, 2), tensor_form, axes=([0, 1], [i, k]))
    remaining = tuple(lab for lab in state.labels if lab not in pair)
    return QubitState(remaining, contracted.reshape(-1))


@dataclass(frozen=True)
class PBMResult:
    """Partial Bell measurement outcome: two accepted branches plus the
    aggregate probability of the rejected even-parity (Phi+-) subspace."""

    branches: tuple[Branch, Branch]
    rejected_probability: float


def pbm(state: QubitState, pair: tuple[str, str]) -> PBMResult:
    """Measure a qubit pair, accepting only Psi+ (j = 0) and Psi- (j = 1).

    Accepted branches carry the unnormalized conditional state on the
    remaining qubits; Phi+- outcomes are consumed and reported only as an
    aggregate rejection probability.
    """
    branches = []
    for j, label in ((0, PSI_PLUS), (1, PSI_MINUS)):
        conditional = _contract_pair(state, pair, bell_state(label).amplitudes)
        branches.append(Branch(str(label), j, conditional, conditional.norm_squared()))
    rejected = state.norm_squared() - sum(b.probability for b in branches)
    return PBMResult(tuple(branches), max(rejected, 0.0))


def parity_filter(state: QubitState, pair: tuple[str, str]) -> QubitState:
    """Project the pair onto the even-parity subspace |00><00| + |11><11|.

    Returns the unnormalized filtered state; both qubits are kept.
    """
    return apply_matrix(state, PARITY_FILTER_MATRIX, pair)


def _teleport_one(joint: QubitState, qubit: str, a1: str, a2: str,
                  variant: str, out_order: Sequence[str]) -> tuple[Branch, Branch]:
    """One teleportation stage inside a larger joint state.

    swap variant: regroup by exchanging the roles of `qubit` and the first
    auxiliary qubit (a pure relabeling), then Bell-measure (qubit, a2); the
    input re-emerges on a1, which is renamed back to `qubit`.
    parity_filter variant: filter (qubit, a1) to even parity, then
    Bell-measure (a1, a2); the input stays on `qubit`.
    Both apply the Z^j correction on the surviving qubit.
    """
    if variant == "swap":
        measured_pair = (qubit, a2)
        survivor = a1
        staged = joint
    elif variant == "parity_filter":
        measured_pair = (a1, a2)
        survivor = qubit
        staged = parity_filter(joint, (qubit, a1))
    else:
        raise ValueError(f"unknown telegate variant {variant!r}")
    result = pbm(staged, measured_pair)
    out = []
    for b in result.branches:
        s = b.conditional_state
        if survivor != qubit:
            s = QubitState(tuple(qubit if lab == survivor else lab for lab in s.labels),
                           s.amplitudes)
        s = z_correction(reorder(s, out_order), qubit, b.j)
        out.append(Branch(b.outcome_label, b.j, s, b.probability))
    return tuple(out)


def qubit_gate(gate: Callable[..., GateResult], labels: Sequence[str], *args, **kwargs
               ) -> Callable[[np.ndarray], GateResult]:
    """gate on QubitState(labels, amps) and the further arguments, as a
    function of the amplitudes amps."""
    return lambda amps: gate(QubitState(labels, amps), *args, **kwargs)


def telegate_t(input_state: QubitState, qubit: str, aux: QubitState,
               variant: str = "swap") -> GateResult:
    """Teleport one qubit of input_state through a two-qubit auxiliary.

    With auxiliary Psi+ the corrected output equals the input; with Psi-
    it equals Z applied to the teleported qubit. Success probability 1/2.
    The surviving qubit is relabeled back to `qubit`, so branch states are
    directly comparable with the input.
    """
    if aux.n_qubits != 2:
        raise ValueError("auxiliary must be a two-qubit state")
    a1, a2 = aux.labels
    joint = tensor_qubits(input_state, aux)
    return GateResult.from_branches(
        _teleport_one(joint, qubit, a1, a2, variant, input_state.labels), qubit_fidelity)


def cz_aux_state(labels: Sequence[str] = ("A1", "A2", "A1'", "A2'")) -> QubitState:
    """Four-qubit auxiliary resource for the two-telegate controlled-Z:
    (|0101> + |0110> + |1001> - |1010>)/2 on (first pair, second pair)."""
    amps = np.zeros(16, dtype=complex)
    amps[0b0101] = 0.5
    amps[0b0110] = 0.5
    amps[0b1001] = 0.5
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
    order_mid = (q1, q2, b1, b2)
    branches = []
    for s1 in _teleport_one(joint, q1, a1, a2, "swap", order_mid):
        for s2 in _teleport_one(s1.conditional_state, q2, b1, b2, "swap", (q1, q2)):
            branches.append(Branch(f"{s1.outcome_label},{s2.outcome_label}", s2.j,
                                   s2.conditional_state, s2.probability))
    return GateResult.from_branches(branches, qubit_fidelity)


def cnot_via_cz(input_state: QubitState) -> GateResult:
    """CNOT (first qubit controls the second) as H on the target, the
    two-telegate controlled-Z, then H on the target again. Success 1/4."""
    if input_state.n_qubits != 2:
        raise ValueError("input must be a two-qubit state")
    target = input_state.labels[1]
    state = apply_matrix(input_state, HADAMARD, (target,))
    cz = cz_via_two_telegates(state)
    return GateResult.from_branches(
        (Branch(b.outcome_label, b.j,
                apply_matrix(b.conditional_state, HADAMARD, (target,)), b.probability)
         for b in cz.accepted_branches), qubit_fidelity)
