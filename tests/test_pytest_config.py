"""The pytest settings in pyproject.toml, checked on a run of their own."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_GIVEN_TEST = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_after():
    pass
'''


def test_failing_given_test_is_reported_and_the_run_goes_on(tmp_path):
    # warnings are errors, and a failing @given test must still end as one
    # FAILED test with the later tests run, not as an INTERNALERROR
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_given.py").write_text(FAILING_GIVEN_TEST)
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "FAILED tests/test_given.py::test_fails" in out.stdout
    assert "1 failed, 1 passed" in out.stdout
    assert "INTERNALERROR" not in out.stdout + out.stderr
