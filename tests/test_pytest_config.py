"""The suite's own pytest configuration (``pyproject.toml``)."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = """
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path):
    # Reporting a hypothesis failure imports libcst, which warns on import;
    # under ``filterwarnings = error`` that used to abort the whole run.
    probe = tmp_path / "test_probe.py"
    probe.write_text(FAILING_THEN_PASSING)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(CONFIG),
         "--rootdir", str(tmp_path), str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "FAILED test_probe.py::test_fails" in out.stdout
    assert "1 failed, 1 passed" in out.stdout
