#!/usr/bin/env python3
"""Mutation checks: every mutant listed in mutants.json beside this file must
be caught.

For each mutant, src/ is copied into a temporary directory and the one
occurrence of the mutant's snippet in its file is replaced. Its command then
runs as `python -m COMMAND` from the repository root, with the mutated copy
as PYTHONPATH. The mutant is caught when the command exits 1 and prints a
`[FAIL] ID ` line for each check id the mutant lists; a `pgw` command must
also print no `Traceback` on stderr, since a crash is not a detection. The
script exits 1 if a snippet does not occur exactly once or any mutant
survives.

    python tests/mutation/run.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def survives(mutant: dict, workdir: Path) -> list[str]:
    """Why the mutant was not caught; empty when it was."""
    src = workdir / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / mutant["file"]
    text = path.read_text()
    count = text.count(mutant["snippet"])
    if count != 1:
        return [f"{count} occurrences of {mutant['snippet']!r} in {mutant['file']}, want 1"]
    path.write_text(text.replace(mutant["snippet"], mutant["replacement"]))
    proc = subprocess.run([sys.executable, "-m", *mutant["command"]], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=600)
    problems = [] if proc.returncode == 1 else [f"exit status {proc.returncode}, want 1"]
    problems += [f"no [FAIL] {check} line" for check in mutant["fails"]
                 if f"[FAIL] {check} " not in proc.stdout]
    if mutant["command"][0] == "pgw" and "Traceback" in proc.stderr:
        problems.append("a traceback on stderr: the command crashed")
    return problems + [proc.stdout + proc.stderr] if problems else []


def main() -> int:
    mutants = json.loads((HERE / "mutants.json").read_text())
    survivors = 0
    for mutant in mutants:
        with tempfile.TemporaryDirectory(prefix="pgw-mutant-") as workdir:
            problems = survives(mutant, Path(workdir))
        print(f"{'SURVIVED' if problems else 'caught'}: {mutant['id']}: {mutant['what']}")
        for problem in problems:
            print(textwrap.indent(problem.rstrip(), "  "))
        survivors += bool(problems)
    print(f"mutants: {len(mutants) - survivors}/{len(mutants)} caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
