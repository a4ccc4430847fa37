import os
import subprocess
import sys
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent

PROBE = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None, max_examples=5)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_property_test_is_reported(tmp_path):
    """Under this directory's conftest, a failing Hypothesis test reports
    its falsifying example and the session goes on to the next test. The
    report imports libcst, whose DeprecationWarning the warnings-as-errors
    marker used to turn into an INTERNALERROR that ended the session."""
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    (tmp_path / "conftest.py").write_text((TESTS_DIR / "conftest.py").read_text())
    (tmp_path / "test_probe.py").write_text(PROBE)
    path = os.pathsep.join(filter(None, [str(TESTS_DIR.parent / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           str(tmp_path)], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300, check=False)
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in proc.stdout, output
    assert "Falsifying example: test_fails(" in proc.stdout, output
