"""Smoke tests: every example script runs end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: script -> CLI arguments keeping the run fast.
SCRIPTS = {
    "quickstart.py": [],
    "gis_cartography.py": ["1500"],
    "cad_layout.py": ["800"],
    "testbed_comparison.py": ["400"],
    "physical_design_advisor.py": [],
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *SCRIPTS[script]],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_advisor_recommends_something():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "physical_design_advisor.py")],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert "recommended physical design:" in result.stdout


def test_cad_indexes_agree():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "cad_layout.py"), "600"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert "identical component sets" in result.stdout
