"""In-memory span recorder that wraps the public functions of each pgw module.

A span is (name, start, end, parent). Spans are kept in memory for one
operation, folded into per-layer totals when the operation ends, and
cleared. A layer's self time is its span's duration minus the durations of
its direct child spans. A call into a layer from inside a span of the same
name (say ElementSpec.build calling hwp) is part of that span, not a new one.

Functions are patched in every pgw module that holds them, because
optical_gates, mb_bridge and workbench_cli import them by name.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

_MODULES = ("pgw", "pgw.fock_core", "pgw.optical_elements", "pgw.optical_gates",
            "pgw.qubit_teleport", "pgw.mb_bridge", "pgw.workbench_cli")


def _count_apply(c, args, kwargs, result):
    c["fock_core.apply_mode_transform.terms_in"] += len(args[0].terms)
    c["fock_core.apply_mode_transform.terms_out"] += len(result.terms)


def _count_measure(c, args, kwargs, result):
    c["fock_core.measure_and_postselect.accepted"] += result.probability > 0.0


def _count_transform(c, args, kwargs, result):
    c["fock_core.ModeTransform.matrix_bytes"] += args[0].register.n_modes ** 2 * 16


def _count_build(c, args, kwargs, result):
    c["optical_elements.build.touched"] += len(result.touched)
    c["optical_elements.build.modes"] += result.register.n_modes


def _count_gate(c, args, kwargs, result):
    c["optical_gates.branches"] += len(result.accepted_branches)


# (span name, module, attribute, counter hook). "Class.method" attributes are
# patched on the class; the rest are patched wherever the object appears.
TARGETS = (
    ("fock_core.apply_mode_transform", "pgw.fock_core", "apply_mode_transform", _count_apply),
    ("fock_core.measure_and_postselect", "pgw.fock_core", "measure_and_postselect",
     _count_measure),
    ("fock_core.ModeTransform", "pgw.fock_core", "ModeTransform.__init__", _count_transform),
    ("fock_core.FockKet", "pgw.fock_core", "FockKet.__init__", None),
    ("optical_elements.build", "pgw.optical_elements", "ElementSpec.build", _count_build),
    ("optical_elements.build", "pgw.optical_elements", "pbs", _count_build),
    ("optical_elements.build", "pgw.optical_elements", "hwp", _count_build),
    ("optical_elements.build", "pgw.optical_elements", "pockels_z", _count_build),
    ("optical_elements.build", "pgw.optical_elements", "mode_swap", _count_build),
    ("optical_gates", "pgw.optical_gates", "f_gate", _count_gate),
    ("optical_gates", "pgw.optical_gates", "destructive_cnot", _count_gate),
    ("optical_gates", "pgw.optical_gates", "e_cnot", _count_gate),
    ("optical_gates", "pgw.optical_gates", "quantum_parity_check", _count_gate),
    ("qubit_teleport", "pgw.qubit_teleport", "pbm", None),
    ("qubit_teleport", "pgw.qubit_teleport", "telegate_t", None),
    ("qubit_teleport", "pgw.qubit_teleport", "cz_via_two_telegates", None),
    ("qubit_teleport", "pgw.qubit_teleport", "cnot_via_cz", None),
    ("qubit_teleport.QubitState", "pgw.qubit_teleport", "QubitState.__init__", None),
    ("mb_bridge.mb_encode", "pgw.mb_bridge", "mb_encode", None),
    ("mb_bridge.verify", "pgw.mb_bridge", "verify_pbs_mb", None),
    ("mb_bridge.verify", "pgw.mb_bridge", "verify_hwp_mb", None),
    ("mb_bridge.verify", "pgw.mb_bridge", "verify_f_equals_tprime", None),
    ("mb_bridge.verify", "pgw.mb_bridge", "verify_aux_state_equivalence", None),
    ("mb_bridge.verify", "pgw.mb_bridge", "verify_ecnot_equals_tcnot", None),
    ("workbench_cli.parse_circuit", "pgw.workbench_cli", "parse_circuit", None),
    ("workbench_cli.run_circuit", "pgw.workbench_cli", "run_circuit", None),
)
SUITES = ("optical", "teleport", "mb")


class Recorder:
    """Spans of the current operation plus totals over finished operations."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.pending: dict[str, float] = defaultdict(float)  # counters of the current op
        self.ops = 0
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.stack and self.spans[self.stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.pending, args, kwargs, result)
            return result
        return traced

    def end_op(self) -> None:
        """Fold the finished operation's spans into the totals."""
        spans = self.spans
        for name, start, end, parent in spans:
            dur = end - start
            self.calls[name] += 1
            self.self_s[name] += dur
            self.total_s[name] += dur
            if parent >= 0:
                self.self_s[spans[parent][0]] -= dur
        for name, value in self.pending.items():
            self.counters[name] += value
        self.discard()
        self.ops += 1

    def discard(self) -> None:
        """Drop what was recorded since the last finished operation."""
        self.spans.clear()
        self.pending.clear()

    def install(self) -> None:
        """Patch every target in every loaded pgw module that refers to it."""
        modules = [sys.modules[m] for m in _MODULES]
        for name, module, attr, count in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, meth, self.wrap(name, cls.__dict__[meth], count))
                continue
            orig = getattr(owner, attr)
            traced = self.wrap(name, orig, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, traced)

    def _set(self, obj, key: str, value) -> None:
        self._undo.append((obj, key, vars(obj)[key]))
        setattr(obj, key, value)

    def uninstall(self) -> None:
        while self._undo:
            obj, key, value = self._undo.pop()
            setattr(obj, key, value)

    def totals(self) -> dict:
        return {"ops": self.ops, "calls": dict(self.calls), "self_s": dict(self.self_s),
                "total_s": dict(self.total_s), "counters": dict(self.counters)}


def merge(parts: list[dict]) -> dict:
    """Sum the totals of several recorders (one per traced process)."""
    out = {"ops": 0, "calls": defaultdict(int), "self_s": defaultdict(float),
           "total_s": defaultdict(float), "counters": defaultdict(float)}
    for part in parts:
        out["ops"] += part["ops"]
        for key in ("calls", "self_s", "total_s", "counters"):
            for name, value in part[key].items():
                out[key][name] += value
    return out


def layer_metrics(t: dict) -> dict[str, float]:
    """Per-layer metrics, per operation unless the name says otherwise."""
    ops = max(t["ops"], 1)
    calls, self_s, c = t["calls"], t["self_s"], t["counters"]

    def n(name):
        return calls.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for name, kind in (("fock_core.apply_mode_transform", "calls"),
                       ("fock_core.measure_and_postselect", "calls"),
                       ("fock_core.ModeTransform", "builds"),
                       ("fock_core.FockKet", "builds"),
                       ("optical_elements.build", "calls"),
                       ("optical_gates", "calls"),
                       ("qubit_teleport", "calls"),
                       ("qubit_teleport.QubitState", "builds"),
                       ("mb_bridge.mb_encode", "calls"),
                       ("mb_bridge.verify", "calls"),
                       ("workbench_cli.parse_circuit", "calls")):
        m[f"{name}.{kind}"] = n(name) / ops
        m[f"{name}.self_s"] = self_s.get(name, 0.0) / ops
    m["workbench_cli.run_circuit.self_s"] = self_s.get("workbench_cli.run_circuit", 0.0) / ops
    apply = "fock_core.apply_mode_transform"
    m[f"{apply}.terms_in"] = ratio(c.get(f"{apply}.terms_in", 0.0), n(apply))
    m[f"{apply}.terms_out"] = ratio(c.get(f"{apply}.terms_out", 0.0), n(apply))
    measure = "fock_core.measure_and_postselect"
    m[f"{measure}.accept_ratio"] = ratio(c.get(f"{measure}.accepted", 0.0), n(measure))
    m["fock_core.ModeTransform.matrix_bytes_computed"] = ratio(
        c.get("fock_core.ModeTransform.matrix_bytes", 0.0), n("fock_core.ModeTransform"))
    m["optical_elements.build.touched_ratio"] = ratio(
        c.get("optical_elements.build.touched", 0.0), c.get("optical_elements.build.modes", 0.0))
    m["optical_gates.branches"] = ratio(c.get("optical_gates.branches", 0.0), n("optical_gates"))
    for suite in SUITES:
        name = f"workbench_cli.suite.{suite}"
        m[f"{name}.s"] = t["total_s"].get(name, 0.0) / ops
    return m
