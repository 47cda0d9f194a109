"""Sparse multimode Fock-space states and the machinery that moves them.

A Register fixes an ordered set of optical modes, each a ModeId, the named
tuple (spatial label, polarization letter H or V), and keeps one index,
each spatial port's (H, V) flat indices, for both index_of and port_index.
States (FockKet) are sparse maps from occupations, plain tuples of photon
counts one per mode, to complex amplitudes. Passive elements act through
ModeTransform, which stores only the modes a unitary touches and the small
block U on them, as plain-Python rows of complex built and checked
(require_unitary) without numpy; its block and matrix are numpy views built
on access. apply_mode_transform maps the photons of each term on those
modes through phi(U), the block's n-photon representation (Aaronson &
Arkhipov, arXiv:1011.3245; entries are permanents over square roots of
factorials, Scheel, quant-ph/0406127), building each row, image counts on
the block and their coefficients, once per call. phi(U2 U1) =
phi(U2) phi(U1), so optical_gates applies each element list, a pipeline
or an outcome's corrections, as one block. A DetectionPattern is one
heralded outcome (required counts, label, feed-forward index j); it
consumes exactly the modes it counts. Number-resolving detection with
post-selection turns it into a Branch with the same label and j, whose
squared norm is the branch probability. Branch states stay unnormalized so
probabilities can be read off directly, matching the 1/sqrt(2) prefactor
style of the gate algebra. measure_outcomes runs many detection patterns
with one pass over the state per set of measured modes. Every trace over
modes goes through it: drop_vacuum_ports is a vacuum detection that must
keep every term.

Conventions pinned here and relied on everywhere else:
  * mode order is lexicographic by (spatial label, H before V);
  * amplitudes with magnitude below 1e-14 are pruned;
  * total photon number is capped by the register cutoff (default 4);
  * a mode transform is the identity off its touched modes, so building
    and checking one costs as much as its block, whatever the register size;
  * detectors are ideal and number resolving.

All values are immutable after construction and every operation is a pure
function, so everything in this module is safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

PRUNE_THRESHOLD = 1e-14
NORM_SLACK = 1e-12
UNITARITY_TOL = 1e-12
DEFAULT_CUTOFF = 4
HALF = 2.0 ** -0.5  # 1/sqrt(2), the balanced beam-splitter amplitude


class RegisterError(ValueError):
    """A mode or spatial port was used with a register it does not belong to."""


H, V = "H", "V"  # a mode's polarization is its letter; a Register holds no other


class ModeId(NamedTuple):
    """One optical mode, the named tuple (spatial port label, polarization)."""

    spatial_label: str
    polarization: str

    def __str__(self):
        return f"{self.spatial_label}.{self.polarization}"

    @classmethod
    def parse(cls, text: str) -> "ModeId":
        label, _, pol = text.rpartition(".")
        if not label or pol not in (H, V):
            raise ValueError(f"not a mode id: {text!r} (expected LABEL.H or LABEL.V)")
        return cls(label, pol)


def _count(n: Any, least: int) -> int | None:
    """n as a plain int if it is an integer of at least `least`, else None.
    Integers are read by __index__, so numpy integers count; bools do not."""
    if type(n) is not int:  # a bool's type is bool, not int
        if isinstance(n, bool) or not hasattr(n, "__index__"):
            return None
        n = operator.index(n)
    return n if n >= least else None


class Register:
    """Ordered mode register shared by states and transforms.

    Built either from spatial labels (each contributing an H and a V mode)
    or from an explicit mode collection (sub-registers left over after
    detection). Mode order is always lexicographic by (label, H before V).
    Its one index is by port: each spatial label's (H, V) flat indices, None
    for a mode it does not hold, read by both index_of and port_index.
    """

    __slots__ = ("modes", "cutoff", "_ports")

    def __init__(self, spatial_labels: Sequence[str] = (), cutoff: int = DEFAULT_CUTOFF,
                 modes: Iterable[ModeId] | None = None):
        if modes is None:
            labels = tuple(spatial_labels)
            modes = tuple(ModeId(lab, pol) for lab in labels for pol in (H, V))
            duplicate = f"duplicate spatial labels in {labels}"
        else:
            modes = tuple(modes)
            duplicate = "duplicate modes in register"
        # Checked before sorting, which would raise TypeError on a mixed label.
        for m in modes:
            if not isinstance(m.spatial_label, str):
                raise RegisterError(f"spatial port label {m.spatial_label!r} is not a string")
            if m.polarization not in (H, V):
                raise RegisterError(f"mode {m} is neither H nor V polarized")
        if len(set(modes)) != len(modes):
            raise RegisterError(duplicate)
        if (count := _count(cutoff, 1)) is None:
            raise ValueError(f"cutoff must be an int of at least 1, got {cutoff!r}")
        self._fill(tuple(sorted(modes)), count)

    def _fill(self, modes: tuple[ModeId, ...], cutoff: int) -> None:
        self.modes, self.cutoff = modes, cutoff
        self._ports = ports = {}
        for i, m in enumerate(modes):
            ports.setdefault(m.spatial_label, [None, None])[m.polarization == V] = i

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def spatial_labels(self) -> tuple[str, ...]:
        return tuple(self._ports)

    def index_of(self, mode: ModeId) -> int:
        h, v = self._ports.get(mode.spatial_label, (None, None))
        i = h if mode.polarization == H else v if mode.polarization == V else None
        if i is None:
            raise RegisterError(f"mode {mode} not in register {self.spatial_labels}")
        return i

    def port_index(self, label: str) -> tuple[int, int]:
        """The (H, V) flat indices of a spatial port that has both its modes."""
        h, v = self._ports.get(label, (None, None))
        if h is None or v is None:
            where = "only half in" if label in self._ports else "not in"
            raise RegisterError(f"spatial port {label!r} {where} register {self.spatial_labels}")
        return h, v

    def port_modes(self, label: str) -> tuple[ModeId, ...]:
        found = tuple(self.modes[i] for i in self._ports.get(label, ()) if i is not None)
        if not found:
            raise RegisterError(f"spatial port {label!r} not in register {self.spatial_labels}")
        return found

    def drop_modes(self, removed: Iterable[ModeId]) -> "Register":
        removed = set(removed)
        for m in removed:
            self.index_of(m)
        kept = Register.__new__(Register)  # still sorted and distinct, so not checked again
        kept._fill(tuple(m for m in self.modes if m not in removed), self.cutoff)
        return kept

    def merged(self, other: "Register") -> "Register":
        if self.cutoff != other.cutoff:
            raise RegisterError("cannot merge registers with different cutoffs")
        if set(self.modes) & set(other.modes):
            raise RegisterError("registers overlap")
        return Register(cutoff=self.cutoff, modes=self.modes + other.modes)

    def __eq__(self, other):
        return (isinstance(other, Register)
                and self.modes == other.modes and self.cutoff == other.cutoff)

    def __hash__(self):
        return hash((self.modes, self.cutoff))

    def __repr__(self):
        return f"Register({[str(m) for m in self.modes]}, cutoff={self.cutoff})"


class FockKet:
    """Sparse state: occupation (a tuple of photon counts) -> complex amplitude.

    Unnormalized kets are allowed (norm <= 1), which is how conditional
    branch states carry their probability. Construction prunes dust below
    PRUNE_THRESHOLD and validates the register invariants.

    Keys are plain tuples of int photon counts, one per register mode; with
    validate=True any other sequence of integers (not bools) is turned into
    one. validate=False is for callers that built the keys themselves as
    such tuples (the kernels in this module): only the pruning runs.
    """

    __slots__ = ("register", "terms")

    def __init__(self, register: Register, terms: Mapping[Any, complex], *,
                 validate: bool = True):
        pruned: dict[tuple[int, ...], complex] = {}
        for occ, amp in terms.items():
            c = complex(amp)
            if abs(c) < PRUNE_THRESHOLD:
                continue
            if validate:
                counts = tuple(_count(n, 0) for n in occ)
                if None in counts:
                    raise ValueError(f"occupation counts must be ints >= 0, got {tuple(occ)}")
                occ = counts
                if len(occ) != register.n_modes:
                    raise ValueError(
                        f"occupation length {len(occ)} != register size {register.n_modes}")
                if sum(occ) > register.cutoff:
                    raise ValueError(f"{sum(occ)} photons exceeds cutoff {register.cutoff}")
                if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                    raise ValueError("non-finite amplitude")
            pruned[occ] = c
        if validate:
            sq = sum(abs(c) ** 2 for c in pruned.values())
            if sq > 1.0 + NORM_SLACK:
                raise ValueError(f"squared norm {sq} exceeds 1 (unnormalized kets may not exceed norm 1)")
        self.register = register
        self.terms = pruned

    def norm_squared(self) -> float:
        return sum(abs(c) ** 2 for c in self.terms.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def normalized(self) -> "FockKet":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero ket")
        return FockKet(self.register,
                       {occ: amp / n for occ, amp in self.terms.items()}, validate=False)

    def amplitude(self, occ: Sequence[int]) -> complex:
        return self.terms.get(tuple(occ), 0.0 + 0.0j)

    def __repr__(self):
        parts = []
        for occ in sorted(self.terms):
            labels = " ".join(f"{m}={c}" for m, c in zip(self.register.modes, occ) if c)
            parts.append(f"({self.terms[occ]:.6g})|{labels or 'vac'}>")
        return " + ".join(parts) if parts else "0"


def require_unitary(rows: Sequence[Sequence[complex]]) -> None:
    """Raise ValueError unless the square complex block rows is unitary."""
    # B^dag B is Hermitian, entry for entry in floating point too, so its upper
    # triangle holds every deviation from I. A NaN deviation, once seen, stays.
    cols, dev = tuple(zip(*rows)), 0.0
    for i, col in enumerate(cols):
        conj = tuple(map(complex.conjugate, col))
        for j in range(i, len(cols)):
            d = abs(sum(map(operator.mul, conj, cols[j])) - (i == j))
            if d > dev or d != d:
                dev = d
    if not dev <= UNITARITY_TOL:  # a NaN entry fails too
        raise ValueError(f"matrix is not unitary (deviation {dev:.3g})")


@dataclass(frozen=True)
class ModeTransform:
    """Unitary over mode creation operators, stored as the block it acts on.

    touched holds the flat mode indices, ascending, on which the transform
    differs from the identity, and rows the k x k block on those indices, a
    tuple of rows of complex. Off the block the transform is the identity,
    so checking the block's unitarity checks the whole map, and
    apply_mode_transform only ever reads and writes the touched modes.

    With modes (flat indices, strictly ascending) the matrix is the block
    on those modes; without, it is the full register matrix. Either is
    trimmed to its touched block, with no numpy call. block and matrix
    rebuild the block and the full register matrix as read-only arrays.
    """

    register: Register
    touched: tuple[int, ...]
    rows: tuple[tuple[complex, ...], ...]

    def __init__(self, register: Register, matrix, modes: Iterable[int] | None = None):
        n = register.n_modes
        modes = tuple(range(n)) if modes is None else tuple(map(operator.index, modes))
        k = len(modes)
        if hasattr(matrix, "tolist"):  # a numpy array: read its entries as Python numbers
            matrix = matrix.tolist()
        try:
            rows = tuple(tuple(map(complex, row)) for row in matrix)
        except TypeError:  # an entry where a row should be, or a row where an entry should be
            rows = ()
        if len(rows) != k or any(len(row) != k for row in rows):
            raise ValueError(f"matrix is not {k} x {k}, one row and column per mode")
        if any(not 0 <= i < n for i in modes):
            raise ValueError(f"modes {modes} out of range for a {n}-mode register")
        if any(map(operator.ge, modes, modes[1:])):
            raise ValueError(f"modes {modes} are not strictly ascending")
        # A mode is trimmed when its diagonal entry is 1 and the rest of its row
        # and column 0, each to within 1e-15; no NaN is within anything.
        moved = [p for p in range(k) if not abs(rows[p][p] - 1) <= 1e-15
                 or any(not abs(rows[p][q]) <= 1e-15 or not abs(rows[q][p]) <= 1e-15
                        for q in range(k) if q != p)]
        touched = modes
        if len(moved) < k:
            rows = tuple(tuple(rows[p][q] for q in moved) for p in moved)
            touched = tuple(modes[p] for p in moved)
        require_unitary(rows)
        object.__setattr__(self, "register", register)
        object.__setattr__(self, "touched", touched)
        object.__setattr__(self, "rows", rows)

    @property
    def block(self):
        """The k x k block on touched, as a read-only numpy array."""
        import numpy as np
        k = len(self.rows)
        b = np.array(self.rows, dtype=complex).reshape(k, k)
        b.setflags(write=False)
        return b

    @property
    def matrix(self):
        """The full register matrix: the identity with block on touched."""
        import numpy as np
        m = np.eye(self.register.n_modes, dtype=complex)
        for i, row in zip(self.touched, self.rows):
            m[i, self.touched] = row
        m.setflags(write=False)
        return m


@dataclass(frozen=True)
class DetectionPattern:
    """One heralded outcome: exact photon counts required on the modes it
    detects, with the outcome's label and feed-forward index j.

    required lists (mode, count) constraints, sorted by mode; measured is the
    frozenset of those modes, which the detection consumes (traces out of the
    surviving state). An empty label becomes the required counts written
    MODE=COUNT and joined by commas.
    """

    required: tuple[tuple[ModeId, int], ...]
    measured: frozenset[ModeId]
    label: str
    j: int

    def __init__(self, required: Mapping[ModeId, int], label: str = "", j: int = 0):
        req = []
        for mode, count in sorted(required.items()):
            if (n := _count(count, 0)) is None:
                raise ValueError(f"required photon counts must be ints >= 0, got {mode}={count!r}")
            req.append((mode, n))
        object.__setattr__(self, "required", tuple(req))
        object.__setattr__(self, "measured", frozenset(required))
        object.__setattr__(self, "label", label or ",".join(f"{m}={c}" for m, c in req))
        object.__setattr__(self, "j", j)


@dataclass(frozen=True)
class Branch:
    """One post-selected measurement outcome.

    conditional_state is unnormalized: probability == its squared norm.
    outcome_label and j come from the DetectionPattern that produced it;
    for composite gates with several detection stages, the label records
    the full detector pattern and j is the final stage's index.
    """

    outcome_label: str
    j: int
    conditional_state: Any
    probability: float


@dataclass(frozen=True)
class GateResult:
    """Accepted branches of a post-selected gate, corrections applied.

    success_probability is the sum of the accepted branch probabilities.
    """

    accepted_branches: tuple[Branch, ...]

    @property
    def success_probability(self) -> float:
        return sum(b.probability for b in self.accepted_branches)


def single_photon(mode: ModeId, register: Register) -> FockKet:
    """Normalized ket with one photon in `mode` and vacuum elsewhere."""
    idx = register.index_of(mode)
    occ = tuple(1 if i == idx else 0 for i in range(register.n_modes))
    return FockKet(register, {occ: 1.0 + 0.0j})


def polarization_ket(register: Register, ports: Sequence[str], amps) -> FockKet:
    """One photon in each port, vacuum elsewhere, with one amplitude per
    polarization string in lexicographic order: (H, V) for one port and
    (HH, HV, VH, VV) for two, the first port being the leftmost letter."""
    terms = {}
    for amp, pols in zip(amps, itertools.product((H, V), repeat=len(ports)), strict=True):
        occ = [0] * register.n_modes
        for port, pol in zip(ports, pols):
            occ[register.index_of(ModeId(port, pol))] = 1
        terms[tuple(occ)] = complex(amp)
    return FockKet(register, terms)


def superpose(terms: Sequence[tuple[complex, FockKet]]) -> FockKet:
    """Linear combination sum_i c_i |ket_i>. Pruned, not auto-normalized."""
    if not terms:
        raise ValueError("superpose needs at least one term")
    register = terms[0][1].register
    out: dict[tuple[int, ...], complex] = {}
    for coeff, ket in terms:
        if ket.register != register:
            raise RegisterError("superpose requires kets on the same register")
        for occ, amp in ket.terms.items():
            out[occ] = out.get(occ, 0.0 + 0.0j) + complex(coeff) * amp
    return FockKet(register, out)


def tensor(a: FockKet, b: FockKet) -> FockKet:
    """Product state on the union register (registers must be disjoint)."""
    merged = a.register.merged(b.register)
    pos = [merged.index_of(m) for m in a.register.modes + b.register.modes]
    out: dict[tuple[int, ...], complex] = {}
    for occ_a, amp_a in a.terms.items():
        for occ_b, amp_b in b.terms.items():
            occ = [0] * merged.n_modes
            for p, c in zip(pos, occ_a + occ_b):
                occ[p] = c
            out[tuple(occ)] = amp_a * amp_b
    return FockKet(merged, out)


def apply_mode_transform(state: FockKet, u: ModeTransform) -> FockKet:
    """Apply a mode unitary to every term of a state through phi(U), the
    block's n-photon representation, building each row of phi(U) once per
    call. Norm is preserved to floating precision; the result is pruned.
    """
    if u.register != state.register:
        raise RegisterError("transform register differs from state register")
    touched = u.touched
    if not touched:
        return state
    steps = [[(p, x) for p, x in enumerate(column) if x] for column in zip(*u.rows)]
    pick = _picker(touched)
    # A block on every register mode has the whole key as its image.
    whole = len(touched) == state.register.n_modes
    # phi_0(U) = 1: a term with no photons on the block keeps its key.
    rows: dict[tuple[int, ...], list] = {(0,) * len(touched): [(None, 1.0 + 0.0j)]}
    out: dict[tuple[int, ...], complex] = {}
    get = out.get
    for occ, amp in state.terms.items():
        counts = pick(occ)
        row = rows.get(counts)
        if row is None:
            row = rows[counts] = _transfer_row(steps, counts)
        written = None
        for image, coeff in row:
            key = occ if image is None else image
            if image is not None and not whole:
                written = written or list(occ)
                for mode, count in zip(touched, image):
                    written[mode] = count
                key = tuple(written)
            out[key] = get(key, 0.0 + 0.0j) + amp * coeff
    return FockKet(state.register, out, validate=False)


def _transfer_row(steps: list[list[tuple[int, complex]]], counts: tuple[int, ...]
                  ) -> list[tuple[tuple[int, ...] | None, complex]]:
    """Row counts of phi(U): (image, coefficient) per nonzero coefficient,
    images ascending. image holds the counts on the block's modes, or is
    None when it is counts itself.

    a_q^dag -> sum_p U_pq a_p^dag, so <c'| phi(U) |c> is the x^c' coefficient
    of prod_q (sum_p U_pq x_p)^c_q, times sqrt(prod c'! / prod c!). The
    product is multiplied out one factor at a time, keyed by c'; summing its
    closed-form multinomial terms loses far more to cancellation. Through a
    plate at 10 degrees |60, 60> keeps its norm^2 to 8.4e-10 (2e-5 in closed
    form); at 22.5 degrees the error is 1.1e-10 at |40, 40>, 5.7e-6 at
    |50, 50> and 70.6 at |60, 60>. steps[q] holds (p, U_pq) per nonzero U_pq.
    """
    poly = {(0,) * len(counts): 1.0 + 0.0j}
    for column, c in zip(steps, counts):
        for _ in range(c):
            grown: dict[tuple[int, ...], complex] = {}
            get = grown.get
            for image, v in poly.items():
                for p, x in column:
                    key = image[:p] + (image[p] + 1,) + image[p + 1:]
                    grown[key] = get(key, 0.0 + 0.0j) + v * x
            poly = grown
    norm = math.prod(map(math.factorial, counts))
    return [(None if image == counts else image,
             v * math.sqrt(math.prod(map(math.factorial, image)) / norm))
            for image, v in sorted(poly.items()) if v]


def measure_and_postselect(state: FockKet, pattern: DetectionPattern) -> Branch:
    """Project onto exact counts on measured modes and trace those modes out.

    Returns an unnormalized conditional state on the surviving modes; the
    branch probability is its squared norm. Zero-probability outcomes give
    a zero branch rather than an error.
    """
    return measure_outcomes(state, [pattern])[0]


def _picker(indices: Sequence[int]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """occ -> tuple(occ[i] for i in indices)."""
    if len(indices) == 1:
        i = indices[0]
        return lambda occ: (occ[i],)
    return operator.itemgetter(*indices) if indices else lambda occ: ()


def measure_outcomes(state: FockKet, patterns: Sequence[DetectionPattern]
                     ) -> tuple[Branch, ...]:
    """measure_and_postselect for each pattern, in order.

    Patterns that measure the same set of modes share one pass over the
    state, which sorts its terms into buckets by their counts on those
    modes, and one sub-register. A pattern then reads its bucket: every
    term with its required counts, traced down to the surviving modes.
    """
    register = state.register
    groups: dict[frozenset[ModeId], tuple] = {}
    branches = []
    for pattern in patterns:
        group = groups.get(pattern.measured)
        if group is None:
            # In the order of required, which every pattern on these modes shares.
            measured_idx = [register.index_of(m) for m, _ in pattern.required]
            measured = set(measured_idx)
            pick_kept = _picker([i for i in range(register.n_modes) if i not in measured])
            pick_measured = _picker(measured_idx)
            buckets: dict[tuple[int, ...], dict[tuple[int, ...], complex]] = {}
            for occ, amp in state.terms.items():
                counts = pick_measured(occ)
                bucket = buckets.get(counts)
                if bucket is None:
                    bucket = buckets[counts] = {}
                bucket[pick_kept(occ)] = amp
            group = groups[pattern.measured] = (register.drop_modes(pattern.measured), buckets)
        sub_register, buckets = group
        terms = buckets.get(tuple(c for _, c in pattern.required), {})
        conditional = FockKet(sub_register, terms, validate=False)
        branches.append(Branch(pattern.label, pattern.j, conditional, conditional.norm_squared()))
    return tuple(branches)


def overlap(a: FockKet, b: FockKet) -> complex:
    """Inner product <a|b> over the shared register."""
    if a.register != b.register:
        raise RegisterError("overlap requires the same register")
    return sum((amp.conjugate() * b.terms.get(occ, 0.0) for occ, amp in a.terms.items()),
               0.0 + 0.0j)


def fidelity_up_to_global_phase(a: FockKet, b: FockKet) -> float:
    """|<a|b>| / (|a| |b|), insensitive to global phase. Errors on zero kets."""
    na, nb = a.norm(), b.norm()
    if na == 0.0 or nb == 0.0:
        raise ValueError("fidelity is undefined for the zero ket")
    return abs(overlap(a, b)) / (na * nb)


def drop_vacuum_ports(state: FockKet, labels: Iterable[str]) -> FockKet:
    """Remove spatial ports that must be vacuum in every term, by a vacuum detection."""
    labels = tuple(labels)
    modes = [m for label in labels for m in state.register.port_modes(label)]
    (kept,) = measure_outcomes(state, [DetectionPattern(dict.fromkeys(modes, 0))])
    if len(kept.conditional_state.terms) != len(state.terms):
        raise ValueError(f"ports {', '.join(labels)} are not all vacuum")
    return kept.conditional_state
