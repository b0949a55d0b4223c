"""The repository's pytest settings report a failing property test in full."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
"""


def test_failing_hypothesis_test_prints_its_example(tmp_path):
    """filterwarnings = ["error"] must not turn hypothesis's own teardown
    warning into an INTERNALERROR that hides the falsifying example."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    out = result.stdout + result.stderr
    assert result.returncode == 1
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
