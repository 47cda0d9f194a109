"""Reference implementations used as test oracles.

Everything here is deliberately brute force and written independently of
the package internals, so that agreement between the two is meaningful.
"""

import itertools
import math

import numpy as np


def permanent(a):
    """Permanent by explicit sum over permutations. O(n! n), fine for n <= 4."""
    a = np.asarray(a)
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for sigma in itertools.permutations(range(n)):
        prod = 1.0 + 0.0j
        for i, si in enumerate(sigma):
            prod *= a[i, si]
        total += prod
    return total


def occupations(n_modes, total):
    """All occupation tuples of length n_modes summing to exactly total."""
    if n_modes == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in occupations(n_modes - 1, total - first):
            out.append((first,) + rest)
    return out


def fock_basis(n_modes, max_total):
    """All occupation tuples with 0 <= total photons <= max_total, ordered."""
    states = []
    for total in range(max_total + 1):
        states.extend(occupations(n_modes, total))
    return states


def fock_matrix_element(u, out_occ, in_occ):
    """<out| U |in> via the permanent of the row/column repeated submatrix."""
    if sum(out_occ) != sum(in_occ):
        return 0.0 + 0.0j
    rows = [i for i, c in enumerate(out_occ) for _ in range(c)]
    cols = [j for j, c in enumerate(in_occ) for _ in range(c)]
    sub = np.asarray(u)[np.ix_(rows, cols)] if rows else np.zeros((0, 0))
    norm = math.sqrt(
        math.prod(math.factorial(c) for c in out_occ)
        * math.prod(math.factorial(c) for c in in_occ)
    )
    return permanent(sub) / norm


def fock_matrix(u, basis):
    """Full Fock-basis matrix of the mode unitary u over the given basis."""
    dim = len(basis)
    m = np.zeros((dim, dim), dtype=complex)
    for col, in_occ in enumerate(basis):
        for row, out_occ in enumerate(basis):
            m[row, col] = fock_matrix_element(u, out_occ, in_occ)
    return m


def unitary_deviation(u):
    """max |U^dag U - I| entrywise; NaN when an entry of u is NaN, 0 when u is 0 x 0."""
    u = np.asarray(u, dtype=complex)
    return np.abs(u.conj().T @ u - np.eye(len(u))).max(initial=0.0)


def trim_identity(m):
    """(kept indices, block) of a square matrix without the modes whose row
    and column are the identity's to within 1e-15; a NaN entry keeps its modes."""
    m = np.asarray(m, dtype=complex)
    close = np.abs(m - np.eye(len(m))) <= 1e-15
    keep = np.flatnonzero(~(close.all(axis=0) & close.all(axis=1)))
    return tuple(int(i) for i in keep), m[np.ix_(keep, keep)]


def pair_weight(amplitudes, axes, bra):
    """Squared norm of the projection of an n-qubit state (amplitudes with the
    leftmost qubit most significant) onto the two-qubit state bra on the
    qubits at axes, the first of them the more significant bit of bra."""
    n = len(amplitudes).bit_length() - 1
    pair_first = np.moveaxis(np.reshape(amplitudes, (2,) * n), list(axes), [0, 1])
    return float(np.sum(np.abs(np.conj(bra) @ pair_first.reshape(4, -1)) ** 2))


def haar_unitary(rng, n):
    """Haar-distributed unitary from the QR decomposition of a Ginibre matrix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_amplitudes(rng, dim):
    """Normalized complex amplitude vector, rotation invariant."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def mixed_basis_index(counts, input_ports, aux_ports):
    """Qubit index of one photon term under the mixed-basis dictionary, or
    None when the term lies outside the encodable subspace.

    counts maps (port, "H" or "V") to a photon count. Every photon must sit
    in a declared port and each declared port must hold exactly one. Qubits
    are read in declaration order, most significant first: an input port
    gives one qubit, 0 for H and 1 for V; an aux port gives two, its V count
    and then its H count.
    """
    declared = set(input_ports) | set(aux_ports)
    if any(n and port not in declared for (port, _), n in counts.items()):
        return None
    bits = []
    for port in input_ports + aux_ports:
        h, v = counts.get((port, "H"), 0), counts.get((port, "V"), 0)
        if h + v != 1:
            return None
        bits += [v] if port in input_ports else [v, h]
    index = 0
    for bit in bits:
        index = 2 * index + bit
    return index


def element_matrix(modes, kind, args, angle=0.0):
    """Mode matrix of one element over modes, a list of (port, "H" or "V"),
    written from the conventions in the optical_elements docstring: pbs
    exchanges the V modes of its two ports (coefficient +1) and leaves H;
    hwp at theta applies -i [[cos 2t, sin 2t], [sin 2t, -cos 2t]] on its
    port's (H, V); pc flips the sign of its port's V; swap exchanges two
    modes, each given as (port, pol)."""
    index = {mode: i for i, mode in enumerate(modes)}
    u = np.eye(len(modes), dtype=complex)
    if kind == "hwp":
        h, v = index[(args[0], "H")], index[(args[0], "V")]
        c, s = math.cos(math.radians(2.0 * angle)), math.sin(math.radians(2.0 * angle))
        u[np.ix_([h, v], [h, v])] = -1j * np.array([[c, s], [s, -c]])
    elif kind == "pc":
        u[index[(args[0], "V")], index[(args[0], "V")]] = -1.0
    else:
        pair = [(port, "V") for port in args] if kind == "pbs" else list(args)
        a, b = index[pair[0]], index[pair[1]]
        u[[a, b]] = u[[b, a]]
    return u


def apply_dense(u, state):
    """phi(u) on state, {occupation: amplitude}: each input occupation's
    column of the dense Fock matrix over its photon-number sector. Only the
    rows that put each input photon in a mode its column of u reaches are
    summed: in every other row each term of the permanent holds a zero
    entry of u, so the row is exactly 0."""
    u = np.asarray(u)
    out = {}
    for occ_in, amp in state.items():
        photons = [j for j, c in enumerate(occ_in) for _ in range(c)]
        images = set()
        for picks in itertools.product(*[np.flatnonzero(u[:, j]) for j in photons]):
            occ_out = [0] * len(occ_in)
            for i in picks:
                occ_out[i] += 1
            images.add(tuple(occ_out))
        for occ_out in sorted(images):
            out[occ_out] = out.get(occ_out, 0j) + fock_matrix_element(u, occ_out, occ_in) * amp
    return out


def run_circuit_dense(ports, terms, elements, detections, corrections):
    """A circuit file run by dense linear algebra, written apart from pgw.

    ports are spatial labels; modes are (port, pol) sorted by port, H before
    V. terms is [(amplitude, {mode: count})]; elements and each
    corrections[label] list (kind, args, angle); detections list (label, j,
    {mode: count}). The elements multiply into one register unitary. Each
    detection masks the terms with its counts and drops its modes; each of
    that outcome's corrections then acts on the survivors on their own.
    Returns ([(label, j, probability, kept modes, {occupation: amplitude})],
    rejected probability).
    """
    modes = [(port, pol) for port in sorted(ports) for pol in "HV"]
    state = {}
    for amp, counts in terms:
        occ = tuple(counts.get(mode, 0) for mode in modes)
        state[occ] = state.get(occ, 0j) + amp
    initial = sum(abs(a) ** 2 for a in state.values())
    u = np.eye(len(modes), dtype=complex)
    for kind, args, angle in elements:
        u = element_matrix(modes, kind, args, angle) @ u
    state = apply_dense(u, state)
    branches = []
    for label, j, required in detections:
        kept = [i for i, mode in enumerate(modes) if mode not in required]
        mask = [(i, required[mode]) for i, mode in enumerate(modes) if mode in required]
        survivors = {}
        for occ, amp in state.items():
            if all(occ[i] == n for i, n in mask):
                key = tuple(occ[i] for i in kept)
                survivors[key] = survivors.get(key, 0j) + amp
        probability = sum(abs(a) ** 2 for a in survivors.values())
        kept_modes = [modes[i] for i in kept]
        for kind, args, angle in corrections.get(label, ()):
            survivors = apply_dense(element_matrix(kept_modes, kind, args, angle), survivors)
        branches.append((label, j, probability, kept_modes, survivors))
    return branches, initial - sum(b[2] for b in branches)


def superpose(terms):
    """sum_i c_i state_i over states given as {basis key: amplitude}."""
    out = {}
    for coeff, state in terms:
        for key, amp in state.items():
            out[key] = out.get(key, 0j) + coeff * amp
    return out


def fidelity(a, b):
    """|<a|b>| / (|a| |b|) of two states given as {basis key: amplitude}."""
    keys = sorted(set(a) | set(b))
    va = np.array([a.get(k, 0) for k in keys], dtype=complex)
    vb = np.array([b.get(k, 0) for k in keys], dtype=complex)
    return abs(np.vdot(va, vb)) / (np.linalg.norm(va) * np.linalg.norm(vb))


def filter_gate_expansion(name, ports):
    """The circuit line `gate NAME PORTS` for f_gate, parity_check or d_cnot,
    written from the optical_gates docstrings rather than from pgw's
    expanders, as (elements, outcomes) in the form run_circuit_dense reads;
    outcomes list (label, j, {mode: count}, corrections).

    The filter on (inp, aux, d0, d1): a pbs on (inp, aux), a plate at 22.5
    degrees on aux, then aux.H exchanged with d0.H and aux.V with d1.V.
    Outcome d0 (j = 0) is one photon in d0.H, outcome d1 (j = 1) one in d1.V,
    the other detector modes empty in each; d1 flips the phase of inp. d_cnot
    on (target, control, d0, d1) puts plates on the target and the control
    before the filter on (target, control), and one more on the target after
    it, before detection, so that d1's flip becomes an exchange of the
    target's H and V.
    """
    inp, aux, d0, d1 = ports
    if name in ("f_gate", "parity_check"):
        before, after, fix = [], [], ("pc", (inp,), 0.0)
    else:
        before = [("hwp", (inp,), 22.5), ("hwp", (aux,), 22.5)]
        after, fix = [("hwp", (inp,), 22.5)], ("swap", ((inp, "H"), (inp, "V")), 0.0)
    elements = before + [("pbs", (inp, aux), 0.0), ("hwp", (aux,), 22.5),
                         ("swap", ((aux, "H"), (d0, "H")), 0.0),
                         ("swap", ((aux, "V"), (d1, "V")), 0.0)] + after
    detector_modes = [(d0, "H"), (d0, "V"), (d1, "H"), (d1, "V")]
    outcomes = [(d0, 0, dict(zip(detector_modes, (1, 0, 0, 0))), []),
                (d1, 1, dict(zip(detector_modes, (0, 0, 0, 1))), [fix])]
    return elements, outcomes


def e_cnot_expansion(ports):
    """The circuit line `gate e_cnot PORTS`, ports (control, target, aux,
    aux', d0, d1, d0', d1'), in filter_gate_expansion's form, written from
    the optical_gates docstrings: a parity check (the filter) on (control,
    aux, d0, d1), then a destructive CNOT on (target, aux', d0', d1'). Each
    outcome joins one outcome of each stage, labelled FIRST,SECOND, with the
    second's j, both stages' counts, and the first's corrections before the
    second's."""
    control, target, aux, aux2, d0, d1, d0b, d1b = ports
    first, first_outcomes = filter_gate_expansion("f_gate", (control, aux, d0, d1))
    second, second_outcomes = filter_gate_expansion("d_cnot", (target, aux2, d0b, d1b))
    outcomes = [(f"{l1},{l2}", j2, {**c1, **c2}, f1 + f2)
                for l1, _, c1, f1 in first_outcomes for l2, j2, c2, f2 in second_outcomes]
    return first + second, outcomes
