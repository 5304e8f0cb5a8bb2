"""The command-line contract, through the real interpreter.

``--help`` exits 0 with empty stderr and names the invocation; argparse
misuse exits 2.  ``python -m repro.obs`` adds one input contract for
all its verbs: a valid file of any of the three schemas validates; an
unreadable, non-object, unknown- or wrong-schema input exits 1 with a
one-line diagnostic, never a traceback; a closed pipe is a clean exit.
Run through ``python -m`` so runpy wiring and exit-time flushes count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.structure import compute_snapshot, snapshot_to_json

from tests.conftest import make_points
from tests.test_obs_explain import traced_pam

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

COMMANDS = (
    "repro.bench",
    "repro.obs",
    "repro.obs report",
    "repro.obs explain",
    "repro.obs validate",
    "repro.verify.fuzz",
)
SCHEMAS = ("report", "explain", "snapshot")
BAD_INPUTS = ("missing", "directory", "empty", "list", "unknown")


def run_module(command: str, *args: str, stdout=subprocess.PIPE):
    return subprocess.run(
        [sys.executable, "-m", *command.split(), *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        timeout=120,
    )


@pytest.fixture(scope="module")
def artefacts(tmp_path_factory) -> dict[str, Path]:
    """One file per schema, plus the inputs every verb must reject."""
    root = tmp_path_factory.mktemp("artefacts")
    pam, _, trace = traced_pam(make_points(200, seed=3))
    (root / "explain.json").write_text(json.dumps(trace))
    (root / "snapshot.json").write_text(snapshot_to_json(compute_snapshot(pam)))
    (root / "directory").mkdir()
    (root / "empty").write_text("")
    (root / "list").write_text("[]\n")
    (root / "unknown").write_text('{"schema": "nope"}\n')
    files = {path.stem: path for path in root.iterdir()}
    return {
        **files,
        "report": ROOT / "results" / "RUN-PAM-uniform.json",
        "missing": root / "missing",
    }


class TestEntryPoints:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_exits_zero_and_names_module(self, command):
        proc = run_module(command, "--help")
        assert proc.returncode == 0, proc.stderr
        assert f"python -m {command}" in proc.stdout
        assert proc.stderr == ""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unknown_flag_exits_two(self, command):
        proc = run_module(command, "--definitely-not-a-flag")
        assert proc.returncode == 2
        assert "usage:" in proc.stderr


class TestObsInputContract:
    def test_validate_accepts_every_schema(self, artefacts):
        files = [str(artefacts[schema]) for schema in SCHEMAS]
        proc = run_module("repro.obs validate", *files)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("OK") == len(SCHEMAS) and proc.stderr == ""

    def test_validate_checks_every_file_given(self, artefacts):
        files = [str(artefacts[name]) for name in ("unknown", "report", "empty")]
        proc = run_module("repro.obs validate", *files)
        assert proc.returncode == 1
        assert proc.stdout.count("OK") == 1
        assert len(proc.stderr.splitlines()) == 2

    # The per-module CLIs this replaced died with AttributeError on a
    # file holding ``[]``, rendered an empty file as "0 samples" with
    # exit 0, and printed an IsADirectoryError traceback.
    @pytest.mark.parametrize(
        "verb, bad",
        [("validate", bad) for bad in BAD_INPUTS]
        + [("report", "missing"), ("explain", "directory")]
        + [("explain", "report")],
    )
    def test_bad_input_exits_one(self, artefacts, verb, bad):
        proc = run_module(f"repro.obs {verb}", str(artefacts[bad]))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "verb, schema",
        [("report", "report"), ("explain", "explain")],
    )
    def test_closed_pipe_is_a_clean_exit(self, artefacts, verb, schema):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write now fails with EPIPE
        try:
            proc = run_module(
                f"repro.obs {verb}", str(artefacts[schema]), stdout=write_end
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert proc.stderr == ""
