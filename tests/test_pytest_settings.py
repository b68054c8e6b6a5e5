"""The pytest settings in pyproject.toml report a failing hypothesis
property as a failure and go on with the other tests.

With `filterwarnings = ["error"]` alone, hypothesis's failure report
imports libcst, whose use of the deprecated mypy_extensions.TypedDict
became an exception and aborted the session with INTERNALERROR.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_property_is_reported_not_fatal(tmp_path):
    # The cwd is tmp_path, so the hypothesis database lands there.
    (tmp_path / "test_probe.py").write_text(PROBE)
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    command += ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True)
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
    assert done.returncode == 1
