"""Shared bench infrastructure.

Builds are expensive, so every (data file, structure) pair is built and
queried once per session and cached; the ``benchmark`` fixture then
times a representative re-run of one query file so ``pytest-benchmark``
reports wall-clock numbers while the printed tables report the paper's
metric (page accesses).

Every bench prints its paper-style table and writes it to
``results/<experiment id>.txt``; set ``REPRO_BENCH_SCALE`` to change the
number of records per file (default 10 000; the paper uses 100 000).

**Run reports** — invoking the benches with ``--report`` (or with
``REPRO_RUN_REPORT=1`` in the environment) traces every build and query
run through :mod:`repro.obs` and writes one machine-readable
:class:`~repro.obs.RunReport` per data file to
``results/RUN-PAM-<file>.json`` / ``results/RUN-SAM-<file>.json``,
alongside the usual text tables.  Inspect or diff them with
``python -m repro.obs report``.  Tracing is passive, so the tables are
bit-identical with and without ``--report``.

**Parallel execution** — set ``REPRO_BENCH_WORKERS=N`` to fan each data
file's independent (structure, build+query) cells out over ``N`` worker
processes via :mod:`repro.parallel`, with a content-addressed build
cache (``REPRO_BUILD_CACHE``; ``off`` disables) so repeated sessions
skip finished cells.  The default of 1 runs the very same cells inline
in this process, so tables, totals and run-report access histograms are
identical at any worker count; only the wall-clock timers differ.

**Explain traces** — set ``REPRO_EXPLAIN=1`` (or a directory path) to
record one EXPLAIN trace per (data file, structure) cell
(``explain/<file>/PAM-<name>.json`` under the results root, or the
given directory): every query's page
descent with candidates vs hits, prunes and duplicate elimination.
Recording is passive — tables and totals stay bit-identical — and the
per-query traces sum exactly to the measured access counts.  The
directory travels to worker processes as an argument; warm-cache cells
skip execution and therefore write no traces.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.config import RunConfig
from repro.core.comparison import MethodResult, build_pam
from repro.core.testbed import standard_pam_factories
from repro.obs.export import RunReport
from repro.parallel.cache import resolve_cache
from repro.parallel.runner import run_file
from repro.workloads.distributions import generate_point_file

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

_results_cache: dict[tuple[str, str], dict[str, MethodResult]] = {}
_reports: dict[tuple[str, str], RunReport] = {}
_pam_built: dict[tuple[str, str], object] = {}


def pytest_addoption(parser):
    parser.addoption(
        "--report",
        action="store_true",
        default=False,
        help="trace the bench runs and write results/RUN-*.json run reports",
    )


def pytest_configure(config):
    # Propagated via the environment because pytest and the bench
    # modules may import this conftest as two distinct module objects.
    if config.getoption("--report", default=False):
        os.environ["REPRO_RUN_REPORT"] = "1"


def reports_enabled() -> bool:
    """Whether this bench session writes RunReport JSON files."""
    return os.environ.get("REPRO_RUN_REPORT", "") == "1"


def bench_scale() -> int:
    """Records per data file for this bench session."""
    return RunConfig.from_env().bench_scale


def bench_workers() -> int:
    """Worker processes per data file, from ``REPRO_BENCH_WORKERS``."""
    return RunConfig.from_env().bench_workers


def _results(kind: str, file_name: str) -> dict[str, MethodResult]:
    """Run every standard structure's cell on ``file_name``, once per session.

    The cells run as :mod:`repro.parallel` jobs at any worker count —
    inline at 1, pooled (and build-cached) above — so the tables and the
    RunReport come from the same outcome either way; the jobs follow
    ``REPRO_AUDIT`` and ``REPRO_EXPLAIN``.
    """
    key = (kind, file_name)
    if key in _results_cache:
        return _results_cache[key]
    workers = bench_workers()
    outcome = run_file(
        kind,
        file_name,
        scale=bench_scale(),
        workers=workers,
        cache=resolve_cache(RunConfig.from_env().build_cache) if workers > 1 else None,
    )
    if reports_enabled():
        report = outcome.to_report(
            f"{kind.upper()} {file_name}",
            meta={"file": file_name, "bench_scale": bench_scale()},
        )
        _reports[key] = report
        report.save(RESULTS_DIR / f"RUN-{kind.upper()}-{file_name}.json")
    if kind == "pam":
        _pam_built.update(((file_name, n), m) for n, m in outcome.built.items())
    _results_cache[key] = outcome.results
    return outcome.results


def pam_results(file_name: str) -> dict[str, MethodResult]:
    """Build every PAM (plus BUDDY+) on ``file_name`` and run the queries."""
    return _results("pam", file_name)


def sam_results(file_name: str) -> dict[str, MethodResult]:
    """Build every SAM on ``file_name`` and run the §7 query workload."""
    return _results("sam", file_name)


def pam_report(file_name: str) -> RunReport | None:
    """The RunReport of :func:`pam_results` (``None`` without --report)."""
    pam_results(file_name)
    return _reports.get(("pam", file_name))


def sam_report(file_name: str) -> RunReport | None:
    """The RunReport of :func:`sam_results` (``None`` without --report)."""
    sam_results(file_name)
    return _reports.get(("sam", file_name))


def built_pam(file_name: str, name: str):
    """The built structure behind a :func:`pam_results` row.

    Serial sessions hand back the object the cell built (BUDDY and
    BUDDY+ are the same, packed, file).  In parallel sessions the
    structures were built inside worker processes, so the copy that the
    ``pytest-benchmark`` timing fixture drives is rebuilt here on first
    demand.
    """
    pam_results(file_name)
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


def paper_vs_measured(
    title: str,
    paper: dict[str, tuple],
    measured: dict[str, tuple],
    columns: tuple[str, ...],
) -> str:
    """Two-row-per-structure table: the paper's value above ours."""
    # The list form keeps the floor at 10 even for an empty ``columns``
    # tuple, where star-unpacking into max() would raise a TypeError.
    width = max([10, *(len(c) + 2 for c in columns)])
    header = f"{'':14s}" + "".join(f"{c:>{width}s}" for c in columns)
    lines = [title, header]
    for name in measured:
        for label, row in (("paper", paper.get(name)), ("here", measured[name])):
            if row is None:
                continue
            cells = "".join(
                f"{v:{width}.1f}" if isinstance(v, (int, float)) else f"{'-':>{width}s}"
                for v in row
            )
            lines.append(f"{name:8s}{label:>6s}{cells}")
    return "\n".join(lines)


@pytest.fixture(scope="session")
def scale() -> int:
    return bench_scale()
