"""Smoke tests for every ``python -m`` entry point.

The contract: ``--help`` exits 0 and names the module invocation in its
usage line; argparse misuse exits 2; a missing input file exits 1 (for
the CLIs that read one).  These run the real interpreter so runpy
wiring (``if __name__ == "__main__"``, lazy imports, double-import
warnings) is exercised, not just the ``main()`` functions.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

MODULES = (
    "repro.obs.report",
    "repro.obs.profile",
    "repro.obs.explain",
    "repro.obs.telemetry",
    "repro.verify.fuzz",
    "repro.parallel.bench",
    "repro.storage.bench",
)

#: CLIs whose first positional is an input file they must fail cleanly on.
FILE_READERS = ("repro.obs.report", "repro.obs.profile", "repro.obs.explain")


def run_module(module: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        timeout=120,
    )


class TestEntryPoints:
    @pytest.mark.parametrize("module", MODULES)
    def test_help_exits_zero_and_names_module(self, module):
        proc = run_module(module, "--help")
        assert proc.returncode == 0, proc.stderr
        assert f"python -m {module}" in proc.stdout
        assert proc.stderr == ""

    @pytest.mark.parametrize("module", MODULES)
    def test_unknown_flag_exits_two(self, module):
        proc = run_module(module, "--definitely-not-a-flag")
        assert proc.returncode == 2
        assert "usage:" in proc.stderr

    @pytest.mark.parametrize("module", FILE_READERS)
    def test_missing_input_exits_one(self, module, tmp_path):
        proc = run_module(module, str(tmp_path / "absent.json"))
        assert proc.returncode == 1
        assert proc.stderr  # a diagnostic, not a traceback spray
        assert "Traceback" not in proc.stderr

    def test_telemetry_validate_missing_file_exits_one(self, tmp_path):
        proc = run_module(
            "repro.obs.telemetry", "validate", str(tmp_path / "absent.jsonl")
        )
        assert proc.returncode == 1
        assert "UNREADABLE" in proc.stdout
        assert "Traceback" not in proc.stderr
