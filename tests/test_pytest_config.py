"""The repository's pytest settings report a failing property test normally."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_negative(x):
    assert x < 0
'''


def test_failing_hypothesis_test_shows_its_falsifying_example(tmp_path):
    # Warnings are errors under this config; one raised inside hypothesis's
    # report hook must not turn a test failure into an INTERNALERROR (exit 3).
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    argv = [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_property.py",
    ]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
