"""Work that has to start in a fresh interpreter. Run by run.py, with src/ on
PYTHONPATH; prints one JSON object on stdout.

    child.py setup WORKLOAD SEED POOL   time `import pgw` and building inputs
    child.py verify-traced SEED         one traced verify: run_suite per suite
"""

from __future__ import annotations

import hashlib
import json
import sys
from time import perf_counter

import gen


def input_digest(workload: str, seed: int, pool: int) -> str:
    """Digest of the inputs a run builds: the circuit texts, or the verify seeds."""
    h = hashlib.sha256()
    if workload in gen.GENERATORS:
        for i in range(pool):
            c = gen.GENERATORS[workload](seed, i)
            h.update(c.text.encode())
            h.update((c.active_text or "").encode())
    else:
        for k in range(pool):
            h.update(str(gen.verify_seed(seed, k)).encode())
    return h.hexdigest()


def setup(workload: str, seed: int, pool: int) -> dict:
    t0 = perf_counter()
    import pgw  # noqa: F401  (the import is what is timed)
    t1 = perf_counter()
    digest = input_digest(workload, seed, pool)
    t2 = perf_counter()
    return {"import_s": t1 - t0, "build_s": t2 - t1, "digest": digest}


def verify_traced(seed: int) -> dict:
    from pgw import workbench_cli as cli
    from tracer import SUITES, Recorder

    rec = Recorder()
    rec.install()
    checks: list[dict] = []
    start = perf_counter()
    try:
        for suite in SUITES:
            with rec.span(f"workbench_cli.suite.{suite}"):
                checks.extend(cli.run_suite(suite, seed, 100).checks)
    finally:
        rec.uninstall()
    op_s = perf_counter() - start
    rec.end_op()
    return {"pass": all(c["status"] == "pass" for c in checks), "n_checks": len(checks),
            "op_s": op_s, "totals": rec.totals()}


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 4:
        out = setup(argv[1], int(argv[2]), int(argv[3]))
    elif argv[:1] == ["verify-traced"] and len(argv) == 2:
        out = verify_traced(int(argv[1]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
