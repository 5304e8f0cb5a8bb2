"""The one experiment runner: job specs in, job results out, in order.

The paper's comparison grid is embarrassingly parallel: every
``(data file, structure)`` cell builds on its own
:class:`~repro.storage.pagestore.PageStore` from fixed seeds, so cells
share no state whatsoever.  Every experiment is therefore a list of
:class:`~repro.parallel.jobs.JobSpec` cells, and :func:`run_specs` is
the one place they execute: inline in the calling process at
``workers=1``, or over a ``spawn``-based
:class:`~concurrent.futures.ProcessPoolExecutor`.  Each cell is one
:func:`~repro.parallel.jobs.execute_job` under its own tracer, and
:func:`~repro.core.comparison.merge_outcomes` folds the results back
**in spec order**, so tables, totals, timers and spans are identical
whichever way a cell ran.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.config import RunConfig
from repro.core.comparison import ExperimentOutcome, _explain_dir, merge_outcomes
from repro.parallel.jobs import JobResult, JobSpec, execute_job, file_specs

__all__ = ["ExperimentOutcome", "run_specs", "merge_outcomes", "run_file"]


def run_specs(
    specs: Sequence[JobSpec],
    *,
    workers: int = 1,
    data: Sequence | None = None,
    factories: Mapping[str, Callable] | None = None,
    audit: bool | None = None,
    explain: bool | str | Path | None = None,
) -> list[JobResult]:
    """Execute the specs — pooled or inline — in spec order.

    ``data`` ships an inline record sequence to every spec whose ``file``
    is ``None``.  ``factories`` maps structure names to the factories the
    cells run instead of the registered ones; callables do not cross a
    process boundary, so they need ``workers=1``.

    ``audit`` and ``explain`` left at ``None`` follow
    :class:`repro.config.RunConfig`; an explicit value — ``False``
    included — wins.  Both travel to every job as arguments.  The
    returned list is ordered like ``specs`` no matter how execution
    interleaved.
    """
    if factories is not None and workers > 1:
        raise ValueError(
            "factories run in this process: pass registered structure names "
            "to use workers"
        )
    config = RunConfig.from_env()
    audit = config.audit if audit is None else audit
    explain_dir = _explain_dir(config.explain if explain is None else explain)

    jobs = [
        (spec, data if spec.file is None else None, explain_dir, audit)
        for spec in specs
    ]
    if workers > 1 and len(jobs) > 1:
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(
            max_workers=min(workers, len(jobs)), mp_context=context
        ) as pool:
            futures = [pool.submit(execute_job, *job) for job in jobs]
            return [future.result() for future in futures]
    factories = factories or {}
    return [execute_job(*job, factories.get(job[0].structure)) for job in jobs]


def run_file(
    kind: str,
    file_name: str,
    *,
    scale: int,
    structures: Sequence[str] | None = None,
    page_size: int = 512,
    seed: int | None = None,
    **options,
) -> ExperimentOutcome:
    """The full standard comparison of ``kind`` on one named data file.

    PAM files add the derived BUDDY+ row.  The keyword ``options``
    (``workers``, ``audit``, ``explain``) are those of
    :func:`run_specs`; each job regenerates the file from its generator.
    """
    specs = file_specs(
        kind, file_name, scale, structures=structures, page_size=page_size, seed=seed
    )
    return merge_outcomes(run_specs(specs, **options))
