"""The suite's own pytest settings, in pyproject.toml."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_GIVEN_THEN_PASSING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # Hypothesis reports a failing example through libcst, whose import
    # warns; under filterwarnings = error that warning ended the session
    # with INTERNALERROR (exit 3), losing every later test's result.
    (tmp_path / "test_pair.py").write_text(FAILING_GIVEN_THEN_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
