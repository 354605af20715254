"""The repo's pytest settings report a failing property test as a failure
and go on to the next test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_failing_property_test_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    r = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = r.stdout + r.stderr
    assert "INTERNALERROR" not in out
    assert r.returncode == 1, out
    assert "Falsifying example" in out
    assert "1 failed, 1 passed" in out
