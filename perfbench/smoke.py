#!/usr/bin/env python3
"""Quick check of the benchmark itself: run every workload for one second,
untraced and traced, and check the result schema against BENCHMARK.json
and that no operation failed. Timings are printed, never checked.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(spec: dict, workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
        return errors
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}\n{proc.stderr}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    if set(got) != set(units):
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(units) - set(got))}, "
                      f"extra {sorted(set(got) - set(units))}")
    for name, m in got.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} = {value!r}")
        elif not trace and value <= 0:
            errors.append(f"{where}: end-to-end metric {name} = {value!r} is not positive")
        if name in units and m.get("unit") != units[name]:
            errors.append(f"{where}: {name} unit {m.get('unit')!r}, want {units[name]!r}")
    print(f"{where}: attempted {result['attempted']}, failed {result['failed']}, "
          + ", ".join(f"{k}={v['value']:.4g}" for k, v in list(got.items())[:5]))
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors += check(spec, workload, trace)
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    print("smoke: " + ("FAIL" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
