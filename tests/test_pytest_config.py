"""The project's pytest settings, checked in a child pytest on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st

@settings(database=None, derandomize=True)
@given(st.integers())
def test_small(x):
    assert x < 5
'''


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    # with warnings as errors, a deprecation raised inside hypothesis's report hook
    # turned a plain failure into a pytest INTERNALERROR that hid the example
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = child.stdout + child.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output and "1 failed" in output
    assert child.returncode == 1
