"""The test configuration reports every failure.

pyproject.toml turns warnings into errors. A failing hypothesis test must
still come out as one failed test with its falsifying example, and the
session must go on to the next test: exit code 1, not 3 (INTERNALERROR).
"""

import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_is_reported_with_its_example(tmp_path):
    shutil.copy(REPO / "pyproject.toml", tmp_path)  # the repository's filterwarnings
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
