"""Shared bench infrastructure.

Builds are expensive, so every data file's (structure, build+query)
cells run once per session; the ``benchmark`` fixture then times a
representative re-run of one query file so ``pytest-benchmark`` reports
wall-clock numbers while the printed tables report the paper's metric
(page accesses).

**One artefact per data file** — each session writes the file's
:class:`~repro.obs.RunReport` to ``results/RUN-PAM-<file>.json`` /
``results/RUN-SAM-<file>.json``: build metrics, per-query access
histograms, timers and totals.  Every paper table and figure is a
render of those reports (:mod:`repro.bench.tables`), printed and
written to ``results/<table id>.txt``; the paper-claim assertions read
the same rows.  ``python -m repro.obs report RUN.json`` renders a
report's per-operation access distributions.  Set ``REPRO_BENCH_SCALE``
to change the number of records per file (default 10 000; the paper
uses 100 000).

**Parallel execution** — set ``REPRO_BENCH_WORKERS=N`` to fan each data
file's independent cells out over ``N`` worker processes via
:mod:`repro.parallel`.  The default of 1 runs the very same cells
inline in this process, so tables, totals and run-report access
histograms are identical at any worker count; only the wall-clock
timers differ.

**Explain traces** — set ``REPRO_EXPLAIN=1`` (or a directory path) to
record one EXPLAIN trace per (data file, structure) cell
(``explain/<file>/PAM-<name>.json`` under the results root, or the
given directory): every query's page
descent with candidates vs hits, prunes and duplicate elimination.
Recording is passive — tables and totals stay bit-identical — and the
per-query traces sum exactly to the measured access counts.  The
directory travels to worker processes as an argument.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.tables import render
from repro.config import RunConfig
from repro.core.comparison import build_pam
from repro.core.testbed import standard_pam_factories
from repro.obs.export import RunReport
from repro.parallel.runner import run_file
from repro.workloads.distributions import generate_point_file

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

_reports: dict[tuple[str, str], RunReport] = {}
_pam_built: dict[tuple[str, str], object] = {}


def bench_scale() -> int:
    """Records per data file for this bench session."""
    return RunConfig.from_env().bench_scale


def bench_workers() -> int:
    """Worker processes per data file, from ``REPRO_BENCH_WORKERS``."""
    return RunConfig.from_env().bench_workers


def run_report(kind: str, file_name: str) -> RunReport:
    """Every standard structure's cell on ``file_name``, once per session.

    The cells run as :mod:`repro.parallel` jobs at any worker count —
    inline at 1, pooled above — and follow ``REPRO_AUDIT`` and
    ``REPRO_EXPLAIN``.  The outcome's report is saved under
    ``results/`` and returned; PAM files add the derived BUDDY+ row.
    """
    key = (kind, file_name)
    if key in _reports:
        return _reports[key]
    outcome = run_file(kind, file_name, scale=bench_scale(), workers=bench_workers())
    report = outcome.to_report(
        f"{kind.upper()} {file_name}",
        meta={"file": file_name, "bench_scale": bench_scale()},
    )
    report.save(RESULTS_DIR / f"RUN-{kind.upper()}-{file_name}.json")
    if kind == "pam":
        _pam_built.update(((file_name, n), m) for n, m in outcome.built.items())
    _reports[key] = report
    return report


def built_pam(file_name: str, name: str):
    """The built structure behind a PAM report's row.

    Serial sessions hand back the object the cell built (BUDDY and
    BUDDY+ are the same, packed, file).  In parallel sessions the
    structures were built inside worker processes, so the copy that the
    ``pytest-benchmark`` timing fixture drives is rebuilt here on first
    demand.
    """
    run_report("pam", file_name)
    key = (file_name, name)
    if key not in _pam_built:
        base = "BUDDY" if name == "BUDDY+" else name
        factory = standard_pam_factories()[base]
        points = generate_point_file(file_name, bench_scale())
        pam = build_pam(factory, points)
        if base == "BUDDY":
            pam.pack()
        _pam_built[key] = pam
    return _pam_built[key]


def emit_table(table_id: str) -> None:
    """Render one paper table from this session's run reports and emit it."""
    emit(table_id, render(table_id, run_report))


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
