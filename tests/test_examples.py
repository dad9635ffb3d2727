"""Smoke tests: every example script runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

FAST = ["quickstart.py", "inspect_isa.py", "lint_kernel.py",
        "profile_kernel.py", "parallel_sweep.py", "serve_client.py",
        "lockstep_sweep.py", "nn_training.py"]
SLOW = ["polybench_speedup.py", "svm_gesture.py", "precision_tuning.py",
        "memory_latency.py"]


@pytest.mark.parametrize("script", FAST + SLOW)
def test_example_runs(script, capsys):
    path = EXAMPLES / script
    assert path.exists(), f"missing example {script}"
    result = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), f"{script} produced no output"


def test_quickstart_output_contents():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True, text=True, timeout=120,
    )
    out = result.stdout
    assert "binary16alt" in out
    assert "vfadd.h" in out
    assert "retired" in out


def test_precision_tuning_reports_paper_outcome():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "precision_tuning.py")],
        capture_output=True, text=True, timeout=300,
    )
    out = result.stdout
    assert "'accumulator': 'float'" in out
    assert "'accumulator': 'float16alt'" in out
