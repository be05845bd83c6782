"""The suite's configuration reports a failing Hypothesis example as a
test failure, not as an INTERNALERROR that ends the session, and its path
fixtures switch implementations the same way on every loop."""

import os
import subprocess
import sys
from pathlib import Path

import chaostego
from chaostego import _native

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


def test_path_fixtures_switch_the_same_way_on_every_loop(kernel_paths, rename_paths):
    # The first implementation, where it works, is the one in place at
    # set-up; the last is the fallback, left in place after the loop.
    cases = ((kernel_paths, _native, "kernels", ["native", "reference"]),
             (rename_paths, _native, "exchange", ["exchange", "replace"]))
    for paths, module, name, labels in cases:
        original = getattr(module, name)
        loops = [[(label, getattr(module, name) is original) for label in paths] for _ in range(2)]
        assert loops[0] == loops[1] and getattr(module, name) is not original
        assert loops[0] in ([(labels[0], True), (labels[1], False)], [(labels[1], False)])
