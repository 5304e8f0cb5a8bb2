"""Parallel experiment execution.

The paper's Part I/II comparison is a grid of independent
``(data file, structure)`` cells — each builds its own
:class:`~repro.storage.pagestore.PageStore` from fixed seeds.  This
package exploits that independence two ways:

* :mod:`repro.parallel.jobs` — picklable :class:`JobSpec` descriptions
  of one cell (names and seeds, never callables, so they survive a
  ``spawn`` boundary) and :func:`execute_job`, which runs the spec's
  :func:`~repro.core.comparison.run_cell` under the cell's own tracer.
* :mod:`repro.parallel.runner` — :func:`run_specs`, the one experiment
  runner: every cell is a job, run inline or over a process pool, and
  :func:`merge_outcomes` folds job results back in deterministic spec
  order, yielding tables, totals, timers and tracer spans identical at
  any worker count.

The benches opt in via ``REPRO_BENCH_WORKERS=N`` (default 1 runs the
same cells inline).
"""

from repro.parallel.jobs import (
    JobResult,
    JobSpec,
    StructureOutcome,
    execute_job,
    file_specs,
)
from repro.parallel.runner import ExperimentOutcome, merge_outcomes, run_file, run_specs

__all__ = [
    "ExperimentOutcome",
    "JobResult",
    "JobSpec",
    "StructureOutcome",
    "execute_job",
    "file_specs",
    "merge_outcomes",
    "run_file",
    "run_specs",
]
