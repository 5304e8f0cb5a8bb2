"""``python -m repro.bench [--processes N]``: the paper's tables from one run.

Every ``(kind, data file)`` of the comparison is one serial session:
:func:`~repro.core.comparison.run_file`, then its run report saved as
``results/RUN-<KIND>-<file>.json``.  The twelve sessions share nothing,
so with ``--processes N`` above 1 they run in a ``spawn`` process pool,
the SAM files first (their sessions are the longest); at 1 they run in
this process.  Every ``TAB-*`` / ``FIG-*`` is then rendered from the
reports on disk (:mod:`repro.bench.tables`) and written beside them,
and the paper's claims (:data:`~repro.bench.tables.CLAIMS`) are checked
on the same reports: the exit status is 1 if any fails, each named on
stderr.

``REPRO_BENCH_SCALE``, ``REPRO_AUDIT`` and ``REPRO_EXPLAIN`` are read
once, here, and every session gets their values as arguments;
``REPRO_STORE_BACKEND`` and ``REPRO_TELEMETRY`` reach each store
through :func:`~repro.storage.factory.make_store` in the process that
builds it, from the environment that process inherited.
"""

from __future__ import annotations

import argparse
import functools
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro.bench.tables import CLAIMS, PAM_FILES, SAM_FILES, TABLES, Claim, render
from repro.config import RunConfig
from repro.core.comparison import default_results_root, run_file
from repro.obs.export import RunReport

#: Every session of the comparison, in submission order: SAM files first.
SESSIONS = [("sam", f) for f in SAM_FILES] + [("pam", f) for f in PAM_FILES]


def report_path(results: Path, kind: str, file_name: str) -> Path:
    return results / f"RUN-{kind.upper()}-{file_name}.json"


def run_session(kind: str, file_name: str, results: Path, config: RunConfig) -> None:
    """One data file's standard comparison, saved as its run report."""
    outcome = run_file(
        kind,
        file_name,
        scale=config.bench_scale,
        audit=config.audit,
        explain=config.explain,
    )
    report = outcome.to_report(
        f"{kind.upper()} {file_name}",
        meta={"file": file_name, "bench_scale": config.bench_scale},
    )
    report.save(report_path(results, kind, file_name))


def run_bench(results: Path, processes: int = 1, config: RunConfig | None = None) -> list[Claim]:
    """Run every session into ``results``, write every table; return the failed claims.

    ``config`` defaults to :meth:`RunConfig.from_env`.
    """
    config = RunConfig.from_env() if config is None else config
    results.mkdir(parents=True, exist_ok=True)
    jobs = [(kind, file_name, results, config) for kind, file_name in SESSIONS]
    if processes > 1:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(processes, mp_context=context) as pool:
            for future in [pool.submit(run_session, *job) for job in jobs]:
                future.result()
    else:
        for job in jobs:
            run_session(*job)

    @functools.cache
    def report(kind: str, file_name: str) -> RunReport:
        return RunReport.load(report_path(results, kind, file_name))

    for table_id in TABLES:
        text = render(table_id, report)
        print(f"\n{text}")
        (results / f"{table_id}.txt").write_text(text + "\n", encoding="utf-8")
    return [claim for claim in CLAIMS if not claim.holds(report)]


def _processes(raw: str) -> int:
    if not raw.isdigit() or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number >= 1, not {raw!r}")
    return int(raw)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the paper's comparison, one session per data file, "
        "write results/RUN-*.json and every table, and check the paper's claims.",
    )
    parser.add_argument(
        "--processes",
        type=_processes,
        default=1,
        help="sessions run at once in a spawn process pool (default 1: in this process)",
    )
    args = parser.parse_args(argv)
    failed = run_bench(default_results_root(), args.processes)
    for claim in failed:
        print(f"claim does not hold: {claim.table}: {claim.sentence}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    # Run the copy imported under the module's own name: a spawned
    # process finds ``run_session`` there, never in ``__main__``.
    from repro.bench.__main__ import main

    sys.exit(main())
