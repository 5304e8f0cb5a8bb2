"""The paper's experiment driver.

Builds each access method on a data file, runs the query files, and
reports average disk accesses per query — optionally normalised to a
measuring stick (GRID = 100 % in Part I, the R-tree in Part II), which
is exactly how the paper's tables are laid out.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.core.interfaces import PointAccessMethod, SpatialAccessMethod
from repro.core.stats import BuildMetrics
from repro.geometry.rect import Rect
from repro.query.driver import run_query_file
from repro.storage.factory import make_store
from repro.storage.pagestore import PageStore
from repro.workloads.queries import (
    RANGE_QUERY_VOLUMES,
    generate_partial_match_queries,
    generate_range_queries,
    generate_rect_query_workload,
)

__all__ = [
    "PAM_QUERY_TYPES",
    "SAM_QUERY_TYPES",
    "MethodResult",
    "measure",
    "build_pam",
    "build_sam",
    "run_pam_experiment",
    "run_sam_experiment",
    "normalise",
]

#: Query-type labels in the order of the paper's PAM tables.
PAM_QUERY_TYPES = ("range_0.1%", "range_1%", "range_10%", "pm_x", "pm_y")

#: Query-type labels in the order of the paper's SAM tables.
SAM_QUERY_TYPES = ("point", "intersection", "enclosure", "containment")


@dataclass
class MethodResult:
    """Build metrics and per-query-type average disk accesses."""

    name: str
    metrics: BuildMetrics
    query_costs: dict[str, float] = field(default_factory=dict)
    query_results: dict[str, int] = field(default_factory=dict)
    #: Structure snapshot (:mod:`repro.obs.structure`) taken after the
    #: build — occupancy, depth profile, redundancy metrics.  ``None``
    #: for results produced before snapshots existed.
    snapshot: dict | None = None

    @property
    def query_average(self) -> float:
        """Unweighted average over the query types (the paper's indicator)."""
        return sum(self.query_costs.values()) / len(self.query_costs)


def measure(store: PageStore, operation: Callable[[], object]) -> tuple[int, object]:
    """Run one operation and return ``(disk accesses, result)``."""
    before = store.stats.total
    result = operation()
    return store.stats.total - before, result


def _audit_requested(audit: bool | None) -> bool:
    """Resolve the ``audit`` parameter; ``None`` falls back to ``REPRO_AUDIT``."""
    if audit is not None:
        return audit
    return os.environ.get("REPRO_AUDIT", "").lower() not in ("", "0", "off", "no", "false")


def _explain_dir(explain: bool | str | None = None) -> Path | None:
    """Resolve the ``explain`` parameter into a trace directory.

    ``None`` falls back to ``REPRO_EXPLAIN``.  Off-values (empty,
    ``"0"``, ``"off"``, ``"no"``, ``"false"``, ``False``) disable
    tracing and return ``None``; ``True`` or ``"1"`` traces into the
    default ``results/explain``; any other string is taken as the
    output directory itself.
    """
    if explain is None:
        explain = os.environ.get("REPRO_EXPLAIN", "")
    if explain is False:
        return None
    if explain is True:
        explain = "1"
    value = str(explain).strip()
    if value.lower() in ("", "0", "off", "no", "false"):
        return None
    if value == "1":
        from repro.parallel.cache import default_results_root

        return default_results_root() / "explain"
    return Path(value)


def _trace_path(directory: Path, kind: str, name: str) -> Path:
    """Deterministic per-structure trace file name under ``directory``."""
    safe = name.replace("*", "-star").replace("+", "-plus").replace("/", "_")
    return directory / f"{kind.upper()}-{safe}.json"


def build_pam(
    factory: Callable[..., PointAccessMethod],
    points: Sequence[tuple[float, ...]],
    dims: int = 2,
    page_size: int = 512,
    tracer=None,
    audit: bool | None = None,
    vector: bool = True,
    store_factory: Callable[..., PageStore] | None = None,
) -> PointAccessMethod:
    """Build a fresh PAM over its own page store and insert all points.

    ``tracer`` (a :class:`repro.obs.Tracer`) is installed as the new
    store's observer and labels the build's spans ``op="insert"``;
    tracing is passive, so the build is identical with or without it.

    ``audit=True`` runs the structure's invariant auditor
    (:mod:`repro.verify`) on the finished build and raises
    :class:`repro.verify.AuditError` on any violation; ``None`` defers
    to the ``REPRO_AUDIT`` environment variable.

    ``vector=False`` builds the store without a columnar cache, which
    puts every query on the scalar reference descents.  Builds are
    identical either way — the cache only accelerates query-time
    filtering.

    ``store_factory`` overrides store construction (it is called as
    ``store_factory(page_size=..., vector=...)``); ``None`` defers to
    :func:`repro.storage.factory.make_store` and thus to the
    ``REPRO_STORE_BACKEND`` environment variable.
    """
    if store_factory is None:
        store_factory = make_store
    store = store_factory(page_size=page_size, vector=vector)
    if tracer is not None:
        tracer.set_context(op="setup").attach(store)
    pam = factory(store, dims=dims)
    if tracer is not None:
        tracer.set_context(op="insert")
    for rid, point in enumerate(points):
        pam.insert(point, rid)
    if _audit_requested(audit):
        pam.audit()
    return pam


def build_sam(
    factory: Callable[..., SpatialAccessMethod],
    rects: Sequence[Rect],
    dims: int = 2,
    page_size: int = 512,
    tracer=None,
    audit: bool | None = None,
    vector: bool = True,
    store_factory: Callable[..., PageStore] | None = None,
) -> SpatialAccessMethod:
    """Build a fresh SAM over its own page store and insert all rectangles.

    ``audit``, ``vector`` and ``store_factory`` behave as in
    :func:`build_pam`.
    """
    if store_factory is None:
        store_factory = make_store
    store = store_factory(page_size=page_size, vector=vector)
    if tracer is not None:
        tracer.set_context(op="setup").attach(store)
    sam = factory(store, dims=dims)
    if tracer is not None:
        tracer.set_context(op="insert")
    for rid, rect in enumerate(rects):
        sam.insert(rect, rid)
    if _audit_requested(audit):
        sam.audit()
    return sam


def run_pam_queries(
    pam: PointAccessMethod, seed: int = 101, tracer=None, explain=None
) -> MethodResult:
    """Run the five query files of §3 against a built PAM.

    With a ``tracer``, each query file's operations are recorded as
    spans labelled with the file's query type.  Each file runs through
    :func:`repro.query.driver.run_query_file`, so a store with a
    columnar cache evaluates the whole file as one batched workload.

    ``explain`` is an optional
    :class:`~repro.obs.explain.ExplainRecorder`; when given, every
    query file is traced page-by-page under the file's query-type
    label.  Tracing is passive — costs and results are unchanged.
    """
    result = MethodResult(type(pam).__name__, pam.metrics())
    for label, volume in zip(PAM_QUERY_TYPES[:3], RANGE_QUERY_VOLUMES):
        if tracer is not None:
            tracer.set_context(op=label)
        if explain is not None:
            explain.label = label
        queries = generate_range_queries(volume, seed=seed)
        outcomes = run_query_file(pam, "range", queries, pam.range_query, explain=explain)
        result.query_costs[label] = sum(c for c, _ in outcomes) / len(queries)
        result.query_results[label] = sum(len(hits) for _, hits in outcomes)
    for label, axis in (("pm_x", 0), ("pm_y", 1)):
        if tracer is not None:
            tracer.set_context(op=label)
        if explain is not None:
            explain.label = label
        queries = generate_partial_match_queries(axis, seed=seed + 2)
        outcomes = run_query_file(pam, "pm", queries, pam.partial_match, explain=explain)
        result.query_costs[label] = sum(c for c, _ in outcomes) / len(queries)
        result.query_results[label] = sum(len(hits) for _, hits in outcomes)
    return result


def run_sam_queries(
    sam: SpatialAccessMethod, seed: int = 107, tracer=None, explain=None
) -> MethodResult:
    """Run the four query types of §7 against a built SAM.

    Each query type runs as one batched workload via
    :func:`repro.query.driver.run_query_file`.  ``explain`` behaves as
    in :func:`run_pam_queries`.
    """
    workload = generate_rect_query_workload(seed=seed)
    result = MethodResult(type(sam).__name__, sam.metrics())
    if tracer is not None:
        tracer.set_context(op="point")
    if explain is not None:
        explain.label = "point"
    outcomes = run_query_file(
        sam, "point", workload["points"], sam.point_query, explain=explain
    )
    result.query_costs["point"] = sum(c for c, _ in outcomes) / len(
        workload["points"]
    )
    result.query_results["point"] = sum(len(hits) for _, hits in outcomes)
    operations = {
        "intersection": sam.intersection,
        "enclosure": sam.enclosure,
        "containment": sam.containment,
    }
    for label, operation in operations.items():
        if tracer is not None:
            tracer.set_context(op=label)
        if explain is not None:
            explain.label = label
        outcomes = run_query_file(
            sam, label, workload["rectangles"], operation, explain=explain
        )
        result.query_costs[label] = sum(c for c, _ in outcomes) / len(
            workload["rectangles"]
        )
        result.query_results[label] = sum(len(hits) for _, hits in outcomes)
    return result


def run_pam_experiment(
    factories: dict[str, Callable[..., PointAccessMethod]],
    points: Sequence[tuple[float, ...]],
    seed: int = 101,
    tracer=None,
    workers: int = 1,
    audit: bool | None = None,
    ledger=None,
    explain: bool | str | None = None,
) -> dict[str, MethodResult]:
    """Build every PAM on the same data file and run the query files.

    A shared ``tracer`` attributes each structure's spans to its
    factory name (see :func:`repro.obs.runner.traced_pam_run` for the
    variant that also assembles a :class:`repro.obs.RunReport`).

    ``workers > 1`` fans the structures out over a process pool via
    :mod:`repro.parallel`; the factory *names* must then be registered
    standard-testbed structures (job specs ship names, not closures),
    and a ``tracer`` cannot be threaded through — spans stay inside the
    workers and are only available via the parallel runner's own API.

    ``audit=True`` audits every structure post-build (and requires
    ``workers == 1``, like a tracer); ``None`` defers to ``REPRO_AUDIT``.

    ``ledger`` records the run (timings + access totals + per-structure
    redundancy metrics) to the performance ledger; ``None`` defers to
    ``REPRO_LEDGER``, ``False`` disables recording.

    ``explain`` writes one :mod:`repro.obs.explain` trace file per
    structure (``PAM-<name>.json``) into the resolved directory;
    ``None`` defers to ``REPRO_EXPLAIN`` (see :func:`_explain_dir`).
    Tracing chains the store observer, so costs are bit-identical with
    or without it.  With ``workers > 1``, workers resolve
    ``REPRO_EXPLAIN`` themselves; structures replayed from a warm build
    cache skip execution and therefore write no trace.
    """
    if workers > 1:
        if _audit_requested(audit):
            raise ValueError(
                "post-build audits run in-process; run with workers=1"
            )
        return _parallel_experiment(
            "pam", factories, points, seed, tracer, workers, ledger
        )
    explain_to = _explain_dir(explain)
    results = {}
    timers: dict[str, float] = {}
    totals: dict[str, object] = {}
    snapshots: dict[str, dict] = {}
    for name, factory in factories.items():
        if tracer is not None:
            tracer.set_context(structure=name)
        t0 = time.perf_counter()
        pam = build_pam(factory, points, tracer=tracer, audit=audit)
        t1 = time.perf_counter()
        recorder = None
        if explain_to is not None:
            from repro.obs.explain import ExplainRecorder

            recorder = ExplainRecorder(name)
        result = run_pam_queries(pam, seed=seed, tracer=tracer, explain=recorder)
        t2 = time.perf_counter()
        result.name = name
        result.snapshot = pam.snapshot()
        results[name] = result
        if recorder is not None:
            recorder.save(_trace_path(explain_to, "pam", name))
        timers[f"{name}/build"] = t1 - t0
        timers[f"{name}/queries"] = t2 - t1
        totals[name] = pam.store.stats.snapshot()
        snapshots[name] = result.snapshot
    _record_experiment(
        ledger,
        kind="pam",
        timers=timers,
        totals=totals,
        scale=len(points),
        seed=seed,
        snapshots=snapshots,
    )
    return results


def run_sam_experiment(
    factories: dict[str, Callable[..., SpatialAccessMethod]],
    rects: Sequence[Rect],
    seed: int = 107,
    tracer=None,
    workers: int = 1,
    audit: bool | None = None,
    ledger=None,
    explain: bool | str | None = None,
) -> dict[str, MethodResult]:
    """Build every SAM on the same rectangle file and run the queries.

    ``workers > 1`` parallelises by structure exactly like
    :func:`run_pam_experiment`; ``audit``, ``ledger`` and ``explain``
    behave as there (trace files are named ``SAM-<name>.json``).
    """
    if workers > 1:
        if _audit_requested(audit):
            raise ValueError(
                "post-build audits run in-process; run with workers=1"
            )
        return _parallel_experiment(
            "sam", factories, rects, seed, tracer, workers, ledger
        )
    explain_to = _explain_dir(explain)
    results = {}
    timers: dict[str, float] = {}
    totals: dict[str, object] = {}
    snapshots: dict[str, dict] = {}
    for name, factory in factories.items():
        if tracer is not None:
            tracer.set_context(structure=name)
        t0 = time.perf_counter()
        sam = build_sam(factory, rects, tracer=tracer, audit=audit)
        t1 = time.perf_counter()
        recorder = None
        if explain_to is not None:
            from repro.obs.explain import ExplainRecorder

            recorder = ExplainRecorder(name)
        result = run_sam_queries(sam, seed=seed, tracer=tracer, explain=recorder)
        t2 = time.perf_counter()
        result.name = name
        result.snapshot = sam.snapshot()
        results[name] = result
        if recorder is not None:
            recorder.save(_trace_path(explain_to, "sam", name))
        timers[f"{name}/build"] = t1 - t0
        timers[f"{name}/queries"] = t2 - t1
        totals[name] = sam.store.stats.snapshot()
        snapshots[name] = result.snapshot
    _record_experiment(
        ledger,
        kind="sam",
        timers=timers,
        totals=totals,
        scale=len(rects),
        seed=seed,
        snapshots=snapshots,
    )
    return results


def _record_experiment(
    ledger,
    *,
    kind: str,
    timers: dict[str, float],
    totals: dict,
    scale: int,
    seed: int | None,
    workers: int = 1,
    page_size: int = 512,
    snapshots: dict | None = None,
) -> None:
    """Append an experiment's timings/totals to the performance ledger.

    ``snapshots`` maps structure name to a structure snapshot; each
    snapshot's ``redundancy`` block is folded into that structure's
    access totals, so the gate flags redundancy drift under an
    identical fingerprint exactly like an access-count drift.
    """
    from repro.obs.ledger import entry_from_timers, resolve_ledger

    target = resolve_ledger(ledger)
    if target is None:
        return
    merged: dict[str, dict] = {}
    for name, stats in totals.items():
        row = stats.as_dict() if hasattr(stats, "as_dict") else dict(stats)
        snap = (snapshots or {}).get(name)
        if snap and "redundancy" in snap:
            row["redundancy"] = dict(snap["redundancy"])
        merged[name] = row
    target.record(
        entry_from_timers(
            label=f"{kind}-experiment",
            source="repro.core.comparison",
            kind=kind,
            timers=timers,
            totals=merged,
            page_size=page_size,
            scale=scale,
            seed=seed,
            workers=workers,
        )
    )


def _parallel_experiment(
    kind: str, factories: dict, data, seed: int, tracer, workers: int, ledger=None
) -> dict[str, MethodResult]:
    """Fan an experiment out by structure name via :mod:`repro.parallel`."""
    if tracer is not None:
        raise ValueError(
            "a shared tracer cannot observe worker processes; run with "
            "workers=1 or use repro.parallel.runner.traced_parallel_run"
        )
    from repro.parallel.runner import run_parallel_experiment

    outcome = run_parallel_experiment(
        kind, list(factories), data, seed=seed, workers=workers
    )
    _record_experiment(
        ledger,
        kind=kind,
        timers=outcome.timers,
        totals=outcome.totals,
        scale=len(data),
        seed=seed,
        workers=workers,
        snapshots=getattr(outcome, "snapshots", None),
    )
    return outcome.results


def normalise(
    results: dict[str, MethodResult], stick: str
) -> dict[str, dict[str, float]]:
    """Express query costs as percentages of the measuring stick."""
    reference = results[stick].query_costs
    out: dict[str, dict[str, float]] = {}
    for name, result in results.items():
        out[name] = {
            label: (100.0 * cost / reference[label]) if reference[label] else 0.0
            for label, cost in result.query_costs.items()
        }
    return out
