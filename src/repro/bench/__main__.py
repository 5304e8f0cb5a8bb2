"""``python -m repro.bench [--processes N]``: every committed result from one run.

Every ``(kind, data file)`` of the comparison is one serial session:
:func:`~repro.core.comparison.run_file`, then its run report saved as
``results/RUN-<KIND>-<file>.json``.  Every ablation and extension
(:data:`~repro.bench.ablations.EXPERIMENTS`) is one job too, its rows
saved as ``results/<ID>.json``.  The jobs share nothing, so with
``--processes N`` above 1 they run in a ``spawn`` process pool, longest
first (the SAM sessions, the PAM sessions, then the experiments); at 1
they run in this process.  Every table is then rendered from the
documents on disk (:mod:`repro.bench.tables`) and written beside them,
and the claims (:data:`~repro.bench.tables.CLAIMS`) are checked on the
same documents: the exit status is 1 if any fails, each named on
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
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro.bench.ablations import EXPERIMENTS
from repro.bench.tables import CLAIMS, PAM_FILES, SAM_FILES, TABLES, Claim, Load, render
from repro.config import RunConfig
from repro.core.comparison import default_results_root, run_file
from repro.obs.export import RunReport

#: Every session of the comparison, in submission order: SAM files first.
SESSIONS = [("sam", f) for f in SAM_FILES] + [("pam", f) for f in PAM_FILES]


def report_path(results: Path, kind: str, name: str) -> Path:
    """Where the document ``render`` reads as ``report(kind, name)`` lives."""
    if kind == "ablation":
        return results / f"{name}.json"
    return results / f"RUN-{kind.upper()}-{name}.json"


def loader(results: Path) -> Load:
    """``report(kind, name)`` over the documents in ``results``, each read once."""

    @functools.cache
    def report(kind: str, name: str):
        path = report_path(results, kind, name)
        if kind == "ablation":
            return json.loads(path.read_text(encoding="utf-8"))
        return RunReport.load(path)

    return report


def run_session(kind: str, file_name: str, results: Path, config: RunConfig) -> None:
    """One data file's standard comparison, saved as its run report.

    ``explain=True`` traces into ``results/explain``, beside the reports.
    """
    outcome = run_file(
        kind,
        file_name,
        scale=config.bench_scale,
        audit=config.audit,
        explain=results / "explain" if config.explain is True else config.explain,
    )
    report = outcome.to_report(
        f"{kind.upper()} {file_name}",
        meta={"file": file_name, "bench_scale": config.bench_scale},
    )
    report.save(report_path(results, kind, file_name))


def run_experiment(result_id: str, results: Path, config: RunConfig) -> None:
    """One ablation or extension, its rows saved as ``results/<result_id>.json``."""
    rows = EXPERIMENTS[result_id](config.bench_scale)
    doc = {"bench_scale": config.bench_scale, "rows": rows}
    path = report_path(results, "ablation", result_id)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def run_bench(results: Path, processes: int = 1, config: RunConfig | None = None) -> list[Claim]:
    """Run every job into ``results``, write every table; return the failed claims.

    ``config`` defaults to :meth:`RunConfig.from_env`.
    """
    config = RunConfig.from_env() if config is None else config
    results.mkdir(parents=True, exist_ok=True)
    jobs = [(run_session, kind, file_name) for kind, file_name in SESSIONS]
    jobs += [(run_experiment, result_id) for result_id in EXPERIMENTS]
    if processes > 1:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(processes, mp_context=context) as pool:
            futures = [pool.submit(*job, results, config) for job in jobs]
            for future in futures:
                future.result()
    else:
        for function, *args in jobs:
            function(*args, results, config)

    report = loader(results)
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
        description="Run the paper's comparison, one session per data file, and "
        "every ablation and extension; write their JSON and every table, and check "
        "the claims.",
    )
    parser.add_argument(
        "--processes",
        type=_processes,
        default=1,
        help="jobs run at once in a spawn process pool (default 1: in this process)",
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
