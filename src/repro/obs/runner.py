"""Traced experiment runs: the §3/§7 driver plus observability.

These helpers wrap :mod:`repro.core.comparison`'s build/query functions
with a :class:`~repro.obs.tracer.Tracer` and wall-clock timers, and
assemble the result into a :class:`~repro.obs.export.RunReport`.  The
tracer only *observes* the page stores, so the returned
:class:`~repro.core.comparison.MethodResult` objects — and every
access count inside the report — are identical to an untraced run with
the same data and seed.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.comparison import (
    MethodResult,
    _explain_dir,
    _trace_path,
    build_pam,
    build_sam,
    run_pam_queries,
    run_sam_queries,
)
from repro.core.interfaces import PointAccessMethod, SpatialAccessMethod
from repro.core.stats import AccessStats
from repro.geometry.rect import Rect
from repro.obs.export import RunReport, build_run_report
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

__all__ = ["record_to_ledger", "traced_pam_run", "traced_sam_run"]


def _traced_run(
    kind: str,
    factories: dict,
    data,
    build,
    run_queries,
    *,
    seed: int,
    label: str,
    page_size: int,
    record_events: bool,
    sink,
    meta: dict | None,
    ledger=None,
    explain: bool | str | None = None,
) -> tuple[dict[str, MethodResult], RunReport]:
    tracer = Tracer(record_events=record_events, sink=sink)
    registry = MetricsRegistry()
    explain_to = _explain_dir(explain)
    results: dict[str, MethodResult] = {}
    totals: dict[str, AccessStats] = {}
    storage: dict[str, dict] = {}
    for name, factory in factories.items():
        tracer.set_context(structure=name, op="insert")
        with registry.timer(f"{name}/build"):
            method = build(factory, data, page_size=page_size, tracer=tracer)
        recorder = None
        if explain_to is not None:
            from repro.obs.explain import ExplainRecorder

            recorder = ExplainRecorder(name)
        with registry.timer(f"{name}/queries"):
            result = run_queries(method, seed=seed, tracer=tracer, explain=recorder)
        if recorder is not None:
            recorder.save(_trace_path(explain_to, kind, name))
        result.name = name
        result.snapshot = method.snapshot()
        results[name] = result
        totals[name] = method.store.stats.snapshot()
        io_stats = getattr(method.store, "io_stats", None)
        if io_stats is not None:  # durable backend: physical-IO counters
            storage[name] = io_stats()
    report = build_run_report(
        label=label,
        kind=kind,
        scale=len(data),
        page_size=page_size,
        seed=seed,
        results=results,
        totals=totals,
        spans=tracer.finish(),
        timers={name: timer.seconds for name, timer in registry.timers().items()},
        meta=meta,
        storage=storage or None,
    )
    record_to_ledger(report, ledger=ledger)
    return results, report


def record_to_ledger(report: RunReport, *, ledger=None, workers: int = 1) -> None:
    """Append ``report`` to the performance ledger, if one is active.

    ``ledger`` follows :func:`repro.obs.ledger.resolve_ledger` semantics:
    ``None`` defers to ``REPRO_LEDGER`` (so recording stays off unless
    the environment opts in), ``True``/a path/a ``Ledger`` enable it,
    ``False`` disables it outright.
    """
    from repro.obs.ledger import entry_from_run_report, resolve_ledger

    target = resolve_ledger(ledger)
    if target is None:
        return
    target.record(entry_from_run_report(report, workers=workers))


def traced_pam_run(
    factories: dict[str, Callable[..., PointAccessMethod]],
    points: Sequence[tuple[float, ...]],
    *,
    seed: int = 101,
    label: str = "PAM run",
    page_size: int = 512,
    record_events: bool = False,
    sink=None,
    meta: dict | None = None,
    ledger=None,
    explain: bool | str | None = None,
) -> tuple[dict[str, MethodResult], RunReport]:
    """Build every PAM on ``points``, run the §3 query files, report.

    Returns ``(results, report)`` where ``results`` is exactly what
    :func:`repro.core.comparison.run_pam_experiment` would produce and
    ``report`` adds per-operation histograms, timings and totals.
    ``ledger`` optionally appends the run to the
    performance ledger (see :func:`record_to_ledger`).  ``explain``
    follows :func:`repro.core.comparison._explain_dir` semantics
    (``None`` defers to ``REPRO_EXPLAIN``): when active, one
    :mod:`repro.obs.explain` trace per structure lands in the trace
    directory, without changing any reported number.
    """
    return _traced_run(
        "pam",
        factories,
        points,
        build_pam,
        run_pam_queries,
        seed=seed,
        label=label,
        page_size=page_size,
        record_events=record_events,
        sink=sink,
        meta=meta,
        ledger=ledger,
        explain=explain,
    )


def traced_sam_run(
    factories: dict[str, Callable[..., SpatialAccessMethod]],
    rects: Sequence[Rect],
    *,
    seed: int = 107,
    label: str = "SAM run",
    page_size: int = 512,
    record_events: bool = False,
    sink=None,
    meta: dict | None = None,
    ledger=None,
    explain: bool | str | None = None,
) -> tuple[dict[str, MethodResult], RunReport]:
    """Build every SAM on ``rects``, run the §7 query workload, report."""
    return _traced_run(
        "sam",
        factories,
        rects,
        build_sam,
        run_sam_queries,
        seed=seed,
        label=label,
        page_size=page_size,
        record_events=record_events,
        sink=sink,
        meta=meta,
        ledger=ledger,
        explain=explain,
    )
