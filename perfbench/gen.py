"""Seeded generators for the circuit workloads (pgw-circuit v1 texts).

Circuit i of a workload depends only on (workload, seed, i), so two runs
with one seed produce byte-identical texts. The size parameters that set a
circuit's cost (ports, photons, element count, gate kind) follow i on a
fixed schedule; the seed draws everything else (which ports, which
elements, angles, amplitudes). Every seed therefore gets the same cost mix,
and any prefix of the sequence is already well mixed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Known branch probabilities of the gate lines, per branch label.
GATE_BRANCHES = {
    "f_gate": {"D0": 0.25, "D1": 0.25},
    "d_cnot": {"D0": 0.25, "D1": 0.25},
    "e_cnot": {f"{a},{b}": 1.0 / 16.0 for a in ("D0", "D1") for b in ("D0'", "D1'")},
}
_GATE_SCHEDULE = ("f_gate", "d_cnot", "e_cnot")
# Wave plates are the elements that spread photons over more terms, so they
# are drawn most often: the dense workload is meant to load the expansion.
_KINDS = ("pbs", "hwp", "pc", "swap")
_KIND_WEIGHTS = (3, 4, 1.5, 1.5)
# Two irrational steps give low-discrepancy size schedules over i.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SILVER = math.sqrt(2.0) - 1.0


@dataclass(frozen=True)
class Circuit:
    """One generated input and what its run must show.

    gate: the gate line's name, or None for a random element circuit.
    rejected: the rejected probability the run must give.
    active_text: for circuits with spectator ports, the same circuit on the
        active ports only (None otherwise).
    """

    text: str
    gate: str | None
    rejected: float
    active_text: str | None = None


def _amplitudes(rnd: random.Random, n: int) -> list[complex]:
    amps = [complex(rnd.gauss(0.0, 1.0), rnd.gauss(0.0, 1.0)) for _ in range(n)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return [a / norm for a in amps]


def _amp_text(a: complex) -> str:
    return f"{a.real!r},{a.imag!r}"


def _random_terms(rnd: random.Random, ports: list[str], photons: int,
                  n_terms: int) -> list[str]:
    modes = [f"{p}.{pol}" for p in ports for pol in ("H", "V")]
    occupations: list[tuple[tuple[str, int], ...]] = []
    while len(occupations) < n_terms:
        counts: dict[str, int] = {}
        for _ in range(photons):
            m = rnd.choice(modes)
            counts[m] = counts.get(m, 0) + 1
        occ = tuple(sorted(counts.items()))
        if occ not in occupations:
            occupations.append(occ)
    lines = []
    for amp, occ in zip(_amplitudes(rnd, n_terms), occupations):
        body = " ".join(f"{m}={c}" for m, c in occ)
        lines.append(f"term {_amp_text(amp)} {body}")
    return lines


def _random_elements(rnd: random.Random, ports: list[str], n: int) -> list[str]:
    lines = []
    for _ in range(n):
        kind = rnd.choices(_KINDS, _KIND_WEIGHTS)[0]
        if kind == "pbs":
            a, b = rnd.sample(ports, 2)
            lines.append(f"element pbs {a} {b}")
        elif kind == "hwp":
            lines.append(f"element hwp {rnd.choice(ports)} {rnd.uniform(0.0, 180.0):.6f}")
        elif kind == "pc":
            lines.append(f"element pc {rnd.choice(ports)}")
        else:
            a, b = rnd.sample([f"{p}.{pol}" for p in ports for pol in ("H", "V")], 2)
            lines.append(f"element swap {a} {b}")
    return lines


def _detect_every_pattern(modes: list[str], photons: int, skip=()) -> list[str]:
    """One detect line per count pattern on `modes` with at most `photons`
    photons in total, so the branches cover every outcome."""
    patterns = [()]
    for _ in modes:
        patterns = [p + (c,) for p in patterns for c in range(photons + 1 - sum(p))]
    lines = []
    for k, pattern in enumerate(p for p in patterns if p not in skip):
        body = " ".join(f"{m}={c}" for m, c in zip(modes, pattern))
        lines.append(f"detect x{k} 0 {body}")
    return lines


def _header(ports: list[str]) -> list[str]:
    return ["pgw-circuit v1", "register " + " ".join(ports), "cutoff 4"]


def _gate_circuit(rnd: random.Random, gate: str) -> Circuit:
    """A gate line fed a random polarization input; branch probabilities
    are known in closed form whatever the input."""
    if gate == "e_cnot":
        ports = ["IN", "IN'", "A", "A'", "D0", "D1", "D0'", "D1'"]
        ctrl, tgt = _amplitudes(rnd, 2), _amplitudes(rnd, 2)
        lines = _header(ports)
        half = 2.0 ** -0.5
        for cp, ca in zip("HV", ctrl):
            for tp, ta in zip("HV", tgt):
                for ap in "HV":
                    lines.append(f"term {_amp_text(ca * ta * half)} "
                                 f"IN.{cp}=1 IN'.{tp}=1 A.{ap}=1 A'.{ap}=1")
        lines.append("gate e_cnot " + " ".join(ports))
        # Only the four heralded patterns are listed: the 491 others on the
        # eight detector modes would dominate the run. The rest is rejected.
        return Circuit("\n".join(lines) + "\n", gate, 0.75)
    ports = ["IN", "A", "D0", "D1"]
    inp = _amplitudes(rnd, 2)
    if gate == "d_cnot":
        # The control photon is consumed, so only a definite H or V control
        # gives branch probabilities that do not depend on the input.
        aux = rnd.choice(([1.0, 0.0], [0.0, 1.0]))
    else:
        aux = [2.0 ** -0.5] * 2
    lines = _header(ports)
    for ip, ia in zip("HV", inp):
        for ap, aa in zip("HV", aux):
            if aa:
                lines.append(f"term {_amp_text(ia * aa)} IN.{ip}=1 A.{ap}=1")
    lines.append(f"gate {gate} IN A D0 D1")
    # The gate's two heralded patterns, (1,0,0,0) and (0,0,0,1), come from the
    # gate line; list the remaining ones so every outcome is covered.
    lines += _detect_every_pattern(["D0.H", "D0.V", "D1.H", "D1.V"], 2,
                                   skip={(1, 0, 0, 0), (0, 0, 0, 1)})
    return Circuit("\n".join(lines) + "\n", gate, 0.0)


def dense_circuit(seed: int, i: int) -> Circuit:
    """circuits-dense input i: 4-5 ports, 3-4 photons, up to 4 terms, 15-30
    random elements and a detector port with every count pattern listed.
    Every eighth circuit is a gate line instead."""
    rnd = random.Random(f"circuits-dense:{seed}:{i}")
    if i % 8 == 7:
        return _gate_circuit(rnd, _GATE_SCHEDULE[(i // 8) % 3])
    n_ports = 4 + (i // 2) % 2
    photons = 3 + i % 2
    n_elements = 15 + int(16 * ((i * _GOLDEN) % 1.0))
    ports = [f"P{k}" for k in range(n_ports)]
    lines = _header(ports)
    lines += _random_terms(rnd, ports, photons, rnd.randint(1, 4))
    lines += _random_elements(rnd, ports, n_elements)
    det = rnd.choice(ports)
    lines += _detect_every_pattern([f"{det}.H", f"{det}.V"], photons)
    return Circuit("\n".join(lines) + "\n", None, 0.0)


def wide_circuit(seed: int, i: int) -> Circuit:
    """circuits-wide input i: 32-128 ports of which 6 are active and the rest
    spectators, 2 photons, 10-20 elements on the active ports, and every
    count pattern listed on one active port."""
    rnd = random.Random(f"circuits-wide:{seed}:{i}")
    n_ports = 32 + int(97 * ((i * _GOLDEN) % 1.0))
    n_elements = 10 + int(11 * ((i * _SILVER) % 1.0))
    ports = [f"p{k:03d}" for k in range(n_ports)]
    active = sorted(rnd.sample(ports, 6))
    body = _random_terms(rnd, active, 2, rnd.randint(1, 4))
    body += _random_elements(rnd, active, n_elements)
    det = rnd.choice(active)
    body += _detect_every_pattern([f"{det}.H", f"{det}.V"], 2)
    text = "\n".join(_header(ports) + body) + "\n"
    active_text = "\n".join(_header(active) + body) + "\n"
    return Circuit(text, None, 0.0, active_text)


GENERATORS = {"circuits-dense": dense_circuit, "circuits-wide": wide_circuit}


def verify_seed(seed: int, k: int) -> int:
    """The --seed of the k-th verify call of a run."""
    return random.Random(f"verify:{seed}:{k}").randrange(2 ** 31)
