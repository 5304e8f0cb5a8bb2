"""Traced experiment runs: the §3/§7 driver plus observability.

:func:`traced_run` runs :func:`repro.core.comparison.run_experiment`
under a :class:`~repro.obs.tracer.Tracer` (or, with ``workers > 1``,
collects the spans the worker processes traced) and assembles the
outcome into a :class:`~repro.obs.export.RunReport`.  The tracer only
*observes* the page stores, so the returned
:class:`~repro.core.comparison.MethodResult` objects — and every
access count inside the report — are identical to an untraced run with
the same data and seed, at any worker count.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.config import RunConfig
from repro.core.comparison import QUERY_SEEDS, MethodResult, run_experiment
from repro.core.interfaces import PointAccessMethod, SpatialAccessMethod
from repro.geometry.rect import Rect
from repro.obs.export import RunReport
from repro.obs.tracer import Tracer

__all__ = ["traced_run", "traced_pam_run", "traced_sam_run"]


def traced_run(
    kind: str,
    factories,
    data: Sequence,
    *,
    seed: int | None = None,
    label: str | None = None,
    page_size: int = 512,
    meta: dict | None = None,
    explain: bool | str | None = None,
    workers: int = 1,
    cache=None,
) -> tuple[dict[str, MethodResult], RunReport]:
    """Run one comparison under a tracer and report it.

    Returns ``(results, report)`` where ``results`` is exactly what
    :func:`repro.core.comparison.run_pam_experiment` /
    ``run_sam_experiment`` would produce and ``report`` adds
    per-operation histograms, timings, totals and — on the durable
    backend — each structure's physical-IO ``storage`` block.

    ``factories``, ``workers`` and ``cache`` are those of
    :func:`~repro.core.comparison.run_experiment`: a mapping at
    ``workers=1`` runs in this process under one tracer; otherwise every
    job traces itself and the merged spans yield the same histograms.
    ``explain`` left at ``None`` — and whether builds are audited —
    follows :class:`repro.config.RunConfig`, as in
    :func:`repro.core.comparison.run_pam_experiment`.
    """
    config = RunConfig.from_env()
    tracer = None
    if workers == 1 and isinstance(factories, Mapping):
        tracer = Tracer()
    outcome = run_experiment(
        kind,
        factories,
        data,
        seed=seed,
        page_size=page_size,
        tracer=tracer,
        workers=workers,
        audit=config.audit,
        explain=config.explain if explain is None else explain,
        cache=cache,
    )
    if tracer is not None:
        outcome.spans = tracer.finish()
    report = outcome.to_report(
        label=label or f"{kind.upper()} run",
        kind=kind,
        page_size=page_size,
        seed=seed,
        meta=meta,
    )
    return outcome.results, report


def traced_pam_run(
    factories: dict[str, Callable[..., PointAccessMethod]],
    points: Sequence[tuple[float, ...]],
    *,
    seed: int = QUERY_SEEDS["pam"],
    **options,
) -> tuple[dict[str, MethodResult], RunReport]:
    """:func:`traced_run` of every PAM on ``points`` (§3 query files)."""
    return traced_run("pam", factories, points, seed=seed, **options)


def traced_sam_run(
    factories: dict[str, Callable[..., SpatialAccessMethod]],
    rects: Sequence[Rect],
    *,
    seed: int = QUERY_SEEDS["sam"],
    **options,
) -> tuple[dict[str, MethodResult], RunReport]:
    """:func:`traced_run` of every SAM on ``rects`` (§7 query workload)."""
    return traced_run("sam", factories, rects, seed=seed, **options)
