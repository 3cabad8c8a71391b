"""The repository's pytest settings report a failing property test as a
failure and go on to run the tests after it."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != 0


def test_runs_after():
    pass
'''


def test_failing_property_test_fails_alone(tmp_path):
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_props.py").write_text(FAILING_PROPERTY)
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "test_props.py"],
                            cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
