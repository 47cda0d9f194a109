#!/usr/bin/env python3
"""pgw benchmark: one closed-loop client, one operation in flight.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; pgw is imported from src/. Workloads:

  verify          one operation is a fresh interpreter running
                  `pgw verify --suite all --trials 100` with a seed derived
                  from --seed; it must exit 0 with every check passing.
  circuits-dense  one operation is parse_circuit + run_circuit on a small
                  generated circuit (see gen.py); the expansion kernel and
                  detection dominate.
  circuits-wide   the same on circuits with 32-128 ports of which 6 are
                  active; building full-register transforms dominates.

With --trace 0 the end-to-end metrics are measured with nothing patched.
With --trace 1 the run alternates untraced and traced passes over the same
inputs (tracer.py), and prints the per-layer metrics and the tracing
overhead. Stdout holds a header line, a summary line and, last, the result
object; failures are described on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import gen
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("verify", "circuits-dense", "circuits-wide")

SETUP_REPEATS = 9
POOL = {"verify": 64, "circuits-dense": 256, "circuits-wide": 256}
MIN_CIRCUITS = 100      # at least ten samples beyond p90
WARMUP_CIRCUITS = 20    # untimed, on inputs the timed loop never sees
WARMUP_FIRST = 10 ** 6
TRACE_BLOCK = 25        # circuits per untraced/traced block in a traced run
HARD_STOP_S = 120.0     # no loop keeps going past this, whatever its minimum
CHILD_TIMEOUT_S = 100.0
MIN_VERIFY_CHECKS = 62  # the seed's check count; checks may be added, not lost
REJECTED_TOL = 1e-11    # README conservation tolerance
PROB_TOL = 1e-10        # README gate-probability tolerance

END_TO_END_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_bytes_computed"):
        return "bytes"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], work: Path) -> tuple[float, int, int, str, str]:
    """Run one child to exit; returns (wall s, exit code, peak RSS KiB, stdout, stderr)."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, proc.returncode, usage.ru_maxrss, out_path.read_text(),
            err_path.read_text())


def run_header() -> dict:
    import numpy as np

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    blas_env = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    except (TypeError, KeyError, AttributeError):
        blas = None
    sources = sorted((SRC / "pgw").glob("*.py"))
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in blas_env},
        "src_pgw_py_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "src_pgw_sha256": hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest(),
    }


def measure_setup(workload: str, seed: int, work: Path) -> tuple[float, float]:
    """Median over fresh interpreters of import pgw + building the inputs;
    also checks that every interpreter built byte-identical inputs."""
    totals, imports, digests = [], [], set()
    for _ in range(SETUP_REPEATS):
        _, code, _, out, err = run_child(
            [sys.executable, str(HERE / "child.py"), "setup", workload, str(seed),
             str(POOL[workload])], work)
        if code != 0:
            raise SystemExit(f"setup failed (exit {code}):\n{err}")
        rec = json.loads(out)
        totals.append(rec["import_s"] + rec["build_s"])
        imports.append(rec["import_s"])
        digests.add(rec["digest"])
    if len(digests) != 1:
        raise SystemExit("the input generator is not deterministic for this seed")
    return statistics.median(totals), statistics.median(imports)


# ---- verify -------------------------------------------------------------

def check_report(path: Path, seed: int) -> str | None:
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        return f"no JSON report: {e}"
    if set(report) != {"suite", "seed", "checks", "pass"}:
        return f"report keys {sorted(report)}"
    if report["suite"] != "all" or report["seed"] != seed or report["pass"] is not True:
        return f"report suite={report['suite']} seed={report['seed']} pass={report['pass']}"
    checks = report["checks"]
    if len(checks) < MIN_VERIFY_CHECKS or any(c["status"] != "pass" for c in checks):
        return f"{len(checks)} checks, not all passing"
    return None


def verify_once(k: int, seed: int, work: Path, fails: list[str]) -> tuple[float, int]:
    vseed = gen.verify_seed(seed, k)
    report = work / "report.json"
    report.unlink(missing_ok=True)
    cmd = [sys.executable, "-c",
           "import sys; from pgw.workbench_cli import main; sys.exit(main(sys.argv[1:]))",
           "verify", "--suite", "all", "--seed", str(vseed), "--json", str(report)]
    wall, code, rss, _, err = run_child(cmd, work)
    problem = f"exit {code}: {err[-500:]}" if code != 0 else check_report(report, vseed)
    if problem:
        fails.append(f"verify seed {vseed}: {problem}")
    return wall, rss


def verify_traced_once(k: int, seed: int, work: Path, fails: list[str]):
    vseed = gen.verify_seed(seed, k)
    wall, code, _, out, err = run_child(
        [sys.executable, str(HERE / "child.py"), "verify-traced", str(vseed)], work)
    if code != 0:
        fails.append(f"traced verify seed {vseed}: exit {code}: {err[-500:]}")
        return wall, None
    rec = json.loads(out)
    if not rec["pass"] or rec["n_checks"] < MIN_VERIFY_CHECKS:
        fails.append(f"traced verify seed {vseed}: {rec['n_checks']} checks, pass={rec['pass']}")
    return wall, rec


def run_verify(seed: int, seconds: float, trace: bool, work: Path):
    fails: list[str] = []
    start = perf_counter()
    if not trace:
        walls, rss = [], []
        while not walls or perf_counter() - start < seconds:
            wall, peak = verify_once(len(walls), seed, work, fails)
            walls.append(wall)
            rss.append(peak)
        return walls, 0, fails, {"peak_rss_mb": max(rss) / 1024.0}
    plain, traced, parts, op_s = [], [], [], []
    while not plain or perf_counter() - start < seconds:
        k = len(plain)
        plain.append(verify_once(k, seed, work, fails)[0])
        wall, rec = verify_traced_once(k, seed, work, fails)
        traced.append(wall)
        if rec is not None:
            parts.append(rec["totals"])
            op_s.append(rec["op_s"])
    layers = tracer.layer_metrics(tracer.merge(parts))
    layers.update(overhead_metrics(plain, traced, op_s))
    return plain + traced, 0, fails, layers


# ---- circuits -----------------------------------------------------------

def check_circuit(cli, c: gen.Circuit, result) -> str | None:
    if not abs(result.rejected_probability - c.rejected) <= REJECTED_TOL:
        return f"rejected probability {result.rejected_probability!r}, want {c.rejected!r}"
    probs = {b.outcome_label: b.probability for b in result.branches}
    if c.gate is not None:
        for label, want in gen.GATE_BRANCHES[c.gate].items():
            got = probs.get(label)
            if got is None or not abs(got - want) <= PROB_TOL:
                return f"{c.gate} branch {label}: p={got!r}, want {want!r}"
    if c.active_text is not None:
        ref = cli.run_circuit(cli.parse_circuit(c.active_text))
        ref_probs = {b.outcome_label: b.probability for b in ref.branches}
        if ref_probs.keys() != probs.keys() or any(
                not abs(probs[k] - ref_probs[k]) <= PROB_TOL for k in probs):
            return "branch probabilities change when the spectator ports are removed"
    return None


def circuit_pass(cli, circuit, fails: list[str], *, seconds: float | None = None,
                 count: int | None = None, first: int = 0,
                 rec: tracer.Recorder | None = None) -> list[float]:
    """Run circuits first, first + 1, ... one at a time, for `seconds` (and at
    least MIN_CIRCUITS) or for exactly `count`; returns each one's latency."""
    lat: list[float] = []
    start = perf_counter()
    while True:
        i = first + len(lat)
        elapsed = perf_counter() - start
        if count is not None and len(lat) >= count:
            break
        if count is None and elapsed >= seconds and len(lat) >= MIN_CIRCUITS:
            break
        if elapsed >= HARD_STOP_S and lat:
            break
        c = circuit(i)
        t0 = perf_counter()
        try:
            result = cli.run_circuit(cli.parse_circuit(c.text))
            problem = None
        except Exception as e:  # a failed operation is counted, the run goes on
            result, problem = None, f"{type(e).__name__}: {e}"
        lat.append(perf_counter() - t0)
        if rec is not None:
            rec.end_op()
        if problem is None:
            problem = check_circuit(cli, c, result)
        if rec is not None:
            rec.discard()  # the check's own calls are not part of the operation
        if problem:
            fails.append(f"circuit {i}: {problem}")
    return lat


def run_circuits(workload: str, seed: int, seconds: float, trace: bool):
    from pgw import workbench_cli as cli

    make = gen.GENERATORS[workload]
    pool = [make(seed, i) for i in range(POOL[workload])]

    def circuit(i: int) -> gen.Circuit:
        return pool[i] if i < len(pool) else make(seed, i)

    fails: list[str] = []
    warm = circuit_pass(cli, circuit, fails, count=WARMUP_CIRCUITS, first=WARMUP_FIRST)
    if not trace:
        lat = circuit_pass(cli, circuit, fails, seconds=seconds)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return lat, len(warm), fails, {"peak_rss_mb": peak}
    # Untraced and traced blocks of the same circuits alternate, so a change
    # in machine speed during the run does not show up as tracing overhead.
    plain: list[float] = []
    traced: list[float] = []
    rec = tracer.Recorder()
    start = perf_counter()
    while not plain or perf_counter() - start < min(seconds, HARD_STOP_S):
        first = len(plain)
        plain += circuit_pass(cli, circuit, fails, count=TRACE_BLOCK, first=first)
        rec.install()
        try:
            traced += circuit_pass(cli, circuit, fails, count=TRACE_BLOCK, first=first, rec=rec)
        finally:
            rec.uninstall()
    layers = tracer.layer_metrics(rec.totals())
    layers.update(overhead_metrics(plain, traced, traced))
    return plain + traced, len(warm), fails, layers


def overhead_metrics(plain: list[float], traced: list[float], op_s: list[float]) -> dict:
    """Tracing overhead over the same inputs, and the traced time per
    operation that the per-layer self times add up to."""
    plain_rate = len(plain) / sum(plain)
    traced_rate = len(traced) / sum(traced)
    return {"trace.ops": float(len(traced)),
            "trace.op_s": statistics.fmean(op_s) if op_s else 0.0,
            "trace.ops_per_s": traced_rate,
            "trace.untraced_ops_per_s": plain_rate,
            "trace.overhead_ratio": plain_rate / traced_rate}


# ---- main ---------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    if not (SRC / "pgw" / "__init__.py").is_file():
        print(f"error: no pgw sources under {SRC}; run from a pgw checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(json.dumps({"header": run_header()}), flush=True)

    work = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        setup_s, import_s = measure_setup(args.workload, args.seed, work)
        if args.workload == "verify":
            run = run_verify(args.seed, args.seconds, bool(args.trace), work)
        else:
            run = run_circuits(args.workload, args.seed, args.seconds, bool(args.trace))
        lat, untimed, fails, extra = run
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = dict(extra)
        values["workbench_cli.import_s"] = import_s
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        deciles = statistics.quantiles(lat, n=10) if len(lat) > 1 else lat * 9
        values = {"setup_s": setup_s,
                  "op_p50_ms": statistics.median(lat) * 1e3,
                  "op_p90_ms": deciles[8] * 1e3,
                  "ops_per_s": len(lat) / sum(lat),
                  "peak_rss_mb": extra["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for problem in fails[:5]:
        print(f"failure: {problem}", file=sys.stderr)
    print(json.dumps({"summary": {"workload": args.workload, "seed": args.seed,
                                  "trace": args.trace, "samples": len(lat),
                                  "samples_beyond_p90": len(lat) // 10,
                                  "untimed_warmup": untimed,
                                  "failed_frac": len(fails) / (len(lat) + untimed)}}))
    print(json.dumps({"correct": len(fails) == 0, "attempted": len(lat) + untimed,
                      "failed": len(fails), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
