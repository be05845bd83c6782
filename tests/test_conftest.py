"""The suite's configuration reports a failing Hypothesis example as a
test failure, not as an INTERNALERROR that ends the session."""

import os
import subprocess
import sys
from pathlib import Path

import chaostego

TESTS = Path(__file__).resolve().parent

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(n):
    assert n < 10


def test_after_the_failure_still_runs():
    pass
'''


def test_failing_hypothesis_example_is_reported(tmp_path):
    (tmp_path / "conftest.py").write_text((TESTS / "conftest.py").read_text())
    (tmp_path / "test_failing.py").write_text(FAILING)
    env = dict(os.environ, PYTHONPATH=str(Path(chaostego.__file__).parents[1]))
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(TESTS.parent / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 1, child.stdout + child.stderr
    assert "1 failed, 1 passed" in child.stdout
    assert "INTERNALERROR" not in child.stdout + child.stderr
