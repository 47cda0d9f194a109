#!/usr/bin/env python3
"""Statement census: every statement in a function body under src/pgw runs
in Tier-1, or allowed.json beside this file says why it need not.

Tier-1 runs in this process (pytest.main, hypothesis seed 0, so that two runs
agree) under sys.settrace and threading.settrace, which record the line
events of frames whose code lies under src/pgw; subprocesses are not
followed. Each src/pgw/*.py is parsed with ast, and every statement inside a
function body is counted, a nested function's too. A docstring is not a
statement here. A statement ran when a line event fell on one of its own
lines: all of a simple statement's, a compound statement's header up to its
body.

Each unrun statement is printed as `file:line function: source`. An
allowed.json entry names one by file, function and source text (the
statement's own lines, stripped and joined by spaces) and gives a reason. The
script exits 1 when Tier-1 fails, when an unrun statement is not allowed, or
when an allowed statement ran or is gone, so the list only shrinks.

    python tests/census/run.py
"""

from __future__ import annotations

import ast
import json
import os
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PACKAGE = ROOT / "src" / "pgw"


def statements(path: Path) -> list[tuple[int, str, str, set[int]]]:
    """(line, function, source, own lines) of every function-body statement in path."""
    lines = path.read_text().splitlines()
    found = []

    def add(node: ast.stmt, function: str) -> None:
        body = getattr(node, "body", None)
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        own = (range(start, max(start + 1, body[0].lineno)) if body
               else range(node.lineno, node.end_lineno + 1))
        found.append((node.lineno, function, " ".join(lines[i - 1].strip() for i in own),
                      set(own)))

    def visit(nodes: list[ast.stmt], function: str | None, prefix: str) -> None:
        for node in nodes:
            if function is not None:
                add(node, function)
            if isinstance(node, ast.ClassDef):
                visit(node.body, function, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                docstring = ast.get_docstring(node, clean=False) is not None
                visit(node.body[docstring:], prefix + node.name, f"{prefix}{node.name}.")
            else:
                for field in ("body", "orelse", "finalbody"):
                    visit(getattr(node, field, []), function, prefix)
                for clause in getattr(node, "handlers", []) + getattr(node, "cases", []):
                    visit(clause.body, function, prefix)  # an except clause, a match case

    visit(ast.parse("\n".join(lines), str(path)).body, None, "")
    return sorted(found)


def run_tier1() -> tuple[int, dict[str, set[int]]]:
    """Tier-1's exit status and the lines that ran, per file under src/pgw."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}
    local = {}

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        tracer = local.get(path)
        if tracer is None:
            if not path.startswith(prefix):
                return None
            hits = ran.setdefault(path, set())

            def tracer(frame, event, arg):
                if event == "line":
                    hits.add(frame.f_lineno)
                return tracer
            local[path] = tracer
        return tracer

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              "--hypothesis-seed=0", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    loaded = sys.modules.get("pgw")
    if loaded is None or not str(loaded.__file__).startswith(prefix):
        raise SystemExit(f"census: Tier-1 did not import pgw from {PACKAGE}")
    return int(status), ran


def main() -> int:
    status, ran = run_tier1()
    allowed = json.loads((HERE / "allowed.json").read_text())
    keys = {(entry["file"], entry["function"], entry["statement"]) for entry in allowed}
    total, unrun, used, failed = 0, [], set(), status != 0
    for path in sorted(PACKAGE.glob("*.py")):
        name = str(path.relative_to(ROOT))
        hits = ran.get(str(path), set())
        for line, function, source, own in statements(path):
            total += 1
            if not own & hits:
                key = (name, function, source)
                unrun.append(f"{name}:{line} {function}: {source}"
                             + ("  (allowed)" if key in keys else ""))
                used.add(key)
    print(f"\ncensus: {total - len(unrun)} of {total} function-body statements in src/pgw ran")
    for text in unrun:
        print(f"  unrun: {text}")
        failed |= not text.endswith("  (allowed)")
    for key in sorted(keys - used):
        print(f"  allowed but ran or gone: {key[0]} {key[1]}: {key[2]}")
        failed = True
    if status != 0:
        print(f"census: Tier-1 exited {status}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
