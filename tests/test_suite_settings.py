"""The suite's own pytest settings: a failing hypothesis property reports its example."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# a derandomized property with the phases of the kernel properties, failing from x = 10
# on, and a passing test after it, which the run must still reach
PROBE = """
from hypothesis import Phase, given, settings
from hypothesis import strategies as st


@settings(max_examples=50, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.generate])
@given(x=st.integers(0, 100))
def test_failing_property(x):
    assert x < 10


def test_after_it():
    pass
"""


def test_failing_property_reports_its_example(tmp_path):
    # reporting a failure imports libcst, whose import warning, made an error by
    # filterwarnings, once ended the run in INTERNALERROR (exit 3) with no example
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", "pyproject.toml", "-p", "no:cacheprovider",
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
