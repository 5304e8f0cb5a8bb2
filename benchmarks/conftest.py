"""Shared bench infrastructure for the ablation and extension benches.

Each bench prints its table and persists it under ``results/`` through
:func:`emit` / :func:`emit_json`.  ``REPRO_BENCH_SCALE`` sets the number
of records per data file (default 10 000; the paper uses 100 000).  The
paper's own tables and figures are not pytest benches: ``python -m
repro.bench`` writes them.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.config import RunConfig

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def bench_scale() -> int:
    """Records per data file for this bench session."""
    return RunConfig.from_env().bench_scale


def emit(experiment_id: str, text: str) -> None:
    """Print a table and persist it under ``results/``."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment_id}.txt").write_text(text + "\n", encoding="utf-8")


def emit_json(experiment_id: str, doc: dict) -> Path:
    """Persist a schema-validated JSON artefact under ``results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{experiment_id}.json"
    path.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


@pytest.fixture(scope="session")
def scale() -> int:
    return bench_scale()
