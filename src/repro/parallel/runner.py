"""The process-pool experiment runner and its deterministic merge.

The paper's comparison grid is embarrassingly parallel: every
``(data file, structure)`` cell builds on its own
:class:`~repro.storage.pagestore.PageStore` from fixed seeds, so cells
share no state whatsoever.  :func:`run_specs` fans the cells out over a
``spawn``-based :class:`~concurrent.futures.ProcessPoolExecutor`
(consulting the :class:`~repro.parallel.cache.BuildCache` first) and
:func:`merge_outcomes` folds the per-job results back **in spec order**,
so the merged tables, totals, timers and tracer spans are identical to
a serial run regardless of which worker finished first.

``workers=1`` executes the specs inline in the calling process — no
pool, no pickling; either way each spec runs the same
:func:`~repro.core.comparison.run_cell`.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Sequence

from repro.core.comparison import QUERY_SEEDS, ExperimentOutcome, merge_outcomes
from repro.parallel.cache import BuildCache
from repro.parallel.jobs import (
    JobResult,
    JobSpec,
    data_digest,
    execute_job,
    pam_file_specs,
    sam_file_specs,
)

__all__ = [
    "ExperimentOutcome",
    "run_specs",
    "merge_outcomes",
    "run_pam_file",
    "run_sam_file",
    "run_parallel_experiment",
]


def run_specs(
    specs: Sequence[JobSpec],
    *,
    workers: int = 1,
    cache: BuildCache | None = None,
    data: Sequence | None = None,
    explain_dir: Path | None = None,
) -> list[JobResult]:
    """Execute the specs — cached, pooled, or inline — in spec order.

    ``cache`` is a :class:`BuildCache` or ``None`` (no caching).  ``data``
    ships an inline record sequence to every spec whose ``file`` is
    ``None``; ``explain_dir`` ships the resolved explain-trace
    directory to every executed job (cache hits write no trace).  The
    returned list is ordered like ``specs`` no matter how execution
    interleaved.
    """
    outcomes: dict[int, JobResult] = {}
    pending: list[tuple[int, JobSpec]] = []
    for i, spec in enumerate(specs):
        cached = cache.load(spec) if cache is not None else None
        if cached is not None:
            outcomes[i] = cached
        else:
            pending.append((i, spec))

    if pending:
        job_data = [data if spec.file is None else None for _, spec in pending]
        if workers > 1 and len(pending) > 1:
            import multiprocessing

            context = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(
                max_workers=min(workers, len(pending)), mp_context=context
            ) as pool:
                futures = [
                    pool.submit(execute_job, spec, payload, explain_dir)
                    for (_, spec), payload in zip(pending, job_data)
                ]
                finished = [future.result() for future in futures]
        else:
            finished = [
                execute_job(spec, payload, explain_dir)
                for (_, spec), payload in zip(pending, job_data)
            ]
        for (i, spec), result in zip(pending, finished):
            outcomes[i] = result
            if cache is not None:
                cache.store(spec, result)

    return [outcomes[i] for i in range(len(specs))]


def run_pam_file(
    file_name: str,
    *,
    scale: int,
    workers: int = 1,
    page_size: int = 512,
    seed: int = QUERY_SEEDS["pam"],
    structures: Sequence[str] | None = None,
    cache: BuildCache | None = None,
    explain_dir: Path | None = None,
) -> ExperimentOutcome:
    """The full standard-PAM comparison on one data file (plus BUDDY+)."""
    specs = pam_file_specs(
        file_name, scale, structures=structures, page_size=page_size, seed=seed
    )
    return merge_outcomes(
        run_specs(specs, workers=workers, cache=cache, explain_dir=explain_dir)
    )


def run_sam_file(
    file_name: str,
    *,
    scale: int,
    workers: int = 1,
    page_size: int = 512,
    seed: int = QUERY_SEEDS["sam"],
    structures: Sequence[str] | None = None,
    cache: BuildCache | None = None,
    explain_dir: Path | None = None,
) -> ExperimentOutcome:
    """The full standard-SAM comparison on one rectangle file."""
    specs = sam_file_specs(
        file_name, scale, structures=structures, page_size=page_size, seed=seed
    )
    return merge_outcomes(
        run_specs(specs, workers=workers, cache=cache, explain_dir=explain_dir)
    )


def run_parallel_experiment(
    kind: str,
    structures: Sequence[str],
    data: Sequence,
    *,
    seed: int | None = None,
    page_size: int = 512,
    workers: int = 1,
    cache: BuildCache | None = None,
    explain_dir: Path | None = None,
) -> ExperimentOutcome:
    """Fan an in-memory experiment out by structure name.

    What :func:`repro.core.comparison.run_experiment` calls for
    ``workers > 1``: records are shipped to the workers and the cache
    key uses their content digest instead of a file name.
    """
    digest = data_digest(data)
    specs = [
        JobSpec(
            kind=kind,
            structure=name,
            scale=len(data),
            page_size=page_size,
            seed=seed,
            digest=digest,
        )
        for name in structures
    ]
    return merge_outcomes(
        run_specs(
            specs, workers=workers, cache=cache, data=data, explain_dir=explain_dir
        )
    )
