"""The paper's experiment driver.

Builds each access method on a data file, runs the query files, and
reports average disk accesses per query; :mod:`repro.bench.tables`
normalises them to a measuring stick (GRID = 100 % in Part I, the
R-tree in Part II), which is exactly how the paper's tables are laid
out.  Three drivers take plain values: :func:`run_experiment` (any
data), :func:`run_file` (a named data file) and :func:`run_queries`
(one built method).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.core.interfaces import PointAccessMethod, SpatialAccessMethod
from repro.core.stats import AccessStats, BuildMetrics
from repro.obs.tracer import Tracer
from repro.query.driver import run_query_file
from repro.storage.factory import make_store
from repro.storage.pagestore import PageStore
from repro.workloads.distributions import generate_point_file
from repro.workloads.queries import (
    RANGE_QUERY_VOLUMES,
    generate_partial_match_queries,
    generate_range_queries,
    generate_rect_query_workload,
)
from repro.workloads.rect_distributions import generate_rect_file

__all__ = [
    "PAM_QUERY_TYPES",
    "SAM_QUERY_TYPES",
    "QUERY_SEEDS",
    "MethodResult",
    "ExperimentOutcome",
    "measure",
    "build_pam",
    "build_sam",
    "query_files",
    "run_cell",
    "run_experiment",
    "run_file",
    "run_queries",
]

#: Query-type labels in the order of the paper's PAM tables.
PAM_QUERY_TYPES = ("range_0.1%", "range_1%", "range_10%", "pm_x", "pm_y")

#: Query-type labels in the order of the paper's SAM tables.
SAM_QUERY_TYPES = ("point", "intersection", "enclosure", "containment")

#: Default query-file seeds of the two parts of the comparison.
QUERY_SEEDS = {"pam": 101, "sam": 107}


@dataclass
class MethodResult:
    """Build metrics and per-query-type average disk accesses."""

    name: str
    metrics: BuildMetrics
    query_costs: dict[str, float] = field(default_factory=dict)
    query_results: dict[str, int] = field(default_factory=dict)
    #: Wall seconds of each query file, timed around its
    #: ``run_query_file`` call.  A result without them (one built by
    #: hand) reports its structure's query time split evenly over its
    #: files.
    query_seconds: dict[str, float] = field(default_factory=dict)
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


def default_results_root() -> Path:
    """The repo's ``results/`` directory when run from a checkout.

    Falls back to ``./results`` outside a checkout.
    """
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "results").is_dir() or (parent / "pyproject.toml").is_file():
            return parent / "results"
    return Path.cwd() / "results"


def _trace_path(directory: Path, kind: str, name: str) -> Path:
    """Deterministic per-structure trace file name under ``directory``."""
    safe = name.replace("*", "-star").replace("+", "-plus").replace("/", "_")
    return directory / f"{kind.upper()}-{safe}.json"


def build_method(
    factory: Callable[..., PointAccessMethod | SpatialAccessMethod],
    records: Sequence,
    dims: int = 2,
    page_size: int = 512,
    tracer=None,
    audit: bool = False,
    vector: bool = True,
    store_factory: Callable[..., PageStore] | None = None,
) -> PointAccessMethod | SpatialAccessMethod:
    """Build a fresh PAM or SAM over its own page store and insert all records.

    ``tracer`` (a :class:`repro.obs.Tracer`) is installed as the new
    store's observer and labels the build's spans ``op="insert"``;
    tracing is passive, so the build is identical with or without it.

    ``audit=True`` runs the structure's invariant auditor
    (:mod:`repro.verify`) on the finished build and raises
    :class:`repro.verify.AuditError` on any violation.

    ``vector`` is accepted for the callers that still pass it; ``True``
    only (the scalar reference descents are ``tests/reference_query.py``).

    ``store_factory`` overrides store construction (it is called as
    ``store_factory(page_size=..., vector=True)``); ``None`` defers to
    :func:`repro.storage.factory.make_store` and thus to the
    configured backend.
    """
    if vector is not True:
        raise ValueError("vector must be True: the package has one query path")
    if store_factory is None:
        store_factory = make_store
    store = store_factory(page_size=page_size, vector=True)
    if tracer is not None:
        tracer.set_context(op="setup").attach(store)
    method = factory(store, dims=dims)
    if tracer is not None:
        tracer.set_context(op="insert")
    for rid, record in enumerate(records):
        method.insert(record, rid)
    if audit:
        method.audit()
    return method


#: One builder serves points and rectangles; both historical names stay.
build_pam = build_sam = build_method


def query_files(kind: str, method, seed: int | None = None) -> list[tuple]:
    """The paper's query files for one built method, in table order.

    Rows are ``(label, query kind, queries, scalar operation)`` — the
    arguments of :func:`repro.query.driver.run_query_file` behind the
    label the tables print.  ``kind="pam"`` gives the five files of §3,
    ``kind="sam"`` the four query types of §7; ``seed`` defaults to
    :data:`QUERY_SEEDS`.
    """
    seed = QUERY_SEEDS[kind] if seed is None else seed
    if kind == "pam":
        files = []
        for label, volume in zip(PAM_QUERY_TYPES[:3], RANGE_QUERY_VOLUMES):
            queries = generate_range_queries(volume, seed=seed)
            files.append((label, "range", queries, method.range_query))
        for label, axis in (("pm_x", 0), ("pm_y", 1)):
            queries = generate_partial_match_queries(axis, seed=seed + 2)
            files.append((label, "pm", queries, method.partial_match))
        return files
    workload = generate_rect_query_workload(seed=seed)
    return [("point", "point", workload["points"], method.point_query)] + [
        (label, label, workload["rectangles"], getattr(method, label))
        for label in SAM_QUERY_TYPES[1:]
    ]


def run_queries(
    kind: str, method, seed: int | None = None, tracer=None, explain=None
) -> MethodResult:
    """Run :func:`query_files` against a built method.

    With a ``tracer``, each query file's operations are recorded as
    spans labelled with the file's query type.  Each file runs through
    :func:`repro.query.driver.run_query_file`, so the whole file is
    evaluated as one batched workload.

    ``explain`` is an optional
    :class:`~repro.obs.explain.ExplainRecorder`; when given, every
    query file is traced page-by-page under the file's query-type
    label.  Tracing is passive — costs and results are unchanged.
    """
    result = MethodResult(type(method).__name__, method.metrics())
    for label, query_kind, queries, operation in query_files(kind, method, seed):
        if tracer is not None:
            tracer.set_context(op=label)
        if explain is not None:
            explain.label = label
        start = time.perf_counter()
        outcomes = run_query_file(
            method, query_kind, queries, operation, explain=explain
        )
        result.query_seconds[label] = time.perf_counter() - start
        result.query_costs[label] = sum(c for c, _ in outcomes) / len(queries)
        result.query_results[label] = sum(len(hits) for _, hits in outcomes)
    return result


@dataclass
class ExperimentOutcome:
    """Every cell of one comparison, written in table order.

    ``results`` keeps the order the cells ran in (with derived rows
    such as BUDDY+ directly after their parent); ``spans`` are every
    cell's tracer spans, in the same order.  ``storage`` holds the
    durable backend's ``io_stats()`` per structure (empty on the
    simulated backend) — physical-IO counters that ride next to, never
    instead of, the charged ``totals``.  ``kind``, ``page_size`` and
    ``seed`` are the cells' common parameters.
    """

    results: dict[str, MethodResult] = field(default_factory=dict)
    totals: dict[str, AccessStats] = field(default_factory=dict)
    timers: dict[str, float] = field(default_factory=dict)
    spans: list = field(default_factory=list)
    storage: dict[str, dict] = field(default_factory=dict)
    kind: str = "pam"
    page_size: int = 512
    seed: int | None = None

    @property
    def records(self) -> int:
        """Records in the underlying data file (from the build metrics)."""
        for result in self.results.values():
            return result.metrics.records
        return 0

    def to_report(self, label: str | None = None, meta: dict | None = None):
        """Assemble the run's :class:`~repro.obs.export.RunReport`."""
        from repro.obs.export import build_run_report

        return build_run_report(
            label=label or f"{self.kind.upper()} run",
            kind=self.kind,
            scale=self.records,
            page_size=self.page_size,
            seed=self.seed,
            results=self.results,
            totals=self.totals,
            spans=self.spans,
            timers=self.timers,
            meta=meta,
            storage=self.storage or None,
        )


def _check_trace(recorder, spans) -> None:
    """Each query file's explain total equals its tracer spans' total.

    The trace and the spans count the same accesses through independent
    observers; a file on which they disagree raises, naming it.
    """
    spanned = Counter()
    for span in spans:
        spanned[span.structure, span.op] += span.accesses
    for file in recorder.files:
        label = file["label"]
        traced = sum(query["accesses"] for query in file["queries"])
        if traced != spanned[recorder.structure, label]:
            raise RuntimeError(
                f"explain trace of {recorder.structure} {label} counts {traced} "
                f"accesses, its tracer spans {spanned[recorder.structure, label]}"
            )


def run_cell(
    outcome: ExperimentOutcome,
    name: str,
    factory: Callable,
    data: Sequence,
    *,
    explain_dir: Path | None = None,
    audit: bool = False,
    derive_packed: bool = False,
) -> None:
    """One cell of the comparison grid: build, query files, snapshot, totals.

    This is the paper's standardised procedure for one (data file,
    structure) pair, and the only place it is written down; every
    experiment runs each of its cells through it, with the ``kind``,
    ``page_size`` and ``seed`` of ``outcome``.  The cell's rows, timers
    and the spans of its own :class:`~repro.obs.tracer.Tracer` (which
    observes the build and labels each query file's spans) are written
    into ``outcome``; the store is closed when the cell is done.

    ``explain_dir`` gets one :mod:`repro.obs.explain` trace per row,
    each checked against the row's spans.  Tracing is passive.
    ``derive_packed`` adds the ``<name>+`` row the way the authors
    generated BUDDY+ "by computation and simulation": pack the built
    file and re-run the query files on the same store, charging only
    the delta from that point on.
    """
    tracer = Tracer().set_context(structure=name)
    started = time.perf_counter()
    method = build_method(
        factory, data, page_size=outcome.page_size, tracer=tracer, audit=audit
    )
    build_seconds = time.perf_counter() - started
    store = method.store
    io_stats = getattr(store, "io_stats", None)  # durable backend only
    recorders = []

    def row(row_name: str, build_seconds: float, before: AccessStats | None = None):
        recorder = None
        if explain_dir is not None:
            from repro.obs.explain import ExplainRecorder

            recorder = ExplainRecorder(row_name)
            recorders.append(recorder)
        started = time.perf_counter()
        result = run_queries(outcome.kind, method, outcome.seed, tracer, recorder)
        outcome.timers[f"{row_name}/build"] = build_seconds
        outcome.timers[f"{row_name}/queries"] = time.perf_counter() - started
        result.name = row_name
        result.snapshot = method.snapshot()
        outcome.results[row_name] = result
        outcome.totals[row_name] = (
            store.stats.snapshot() if before is None else store.stats - before
        )
        if io_stats is not None:
            outcome.storage[row_name] = io_stats()

    try:
        row(name, build_seconds)
        if derive_packed:
            before = store.stats.snapshot()
            tracer.set_context(structure=f"{name}+", op="pack")
            started = time.perf_counter()
            method.pack()
            row(f"{name}+", time.perf_counter() - started, before)
    finally:
        store.close()
    spans = tracer.finish()
    for recorder in recorders:
        _check_trace(recorder, spans)
        recorder.save(_trace_path(explain_dir, outcome.kind, recorder.structure))
    outcome.spans.extend(spans)


def _run_cells(kind, factories, data, seed, page_size, audit, explain, file_name=None):
    """Run one cell per ``factories`` entry on ``data``, in order.

    A named data file (``file_name``) traces into a subdirectory of
    that name, so each file's traces keep their own directory, and its
    PAM BUDDY cell also derives the BUDDY+ row.
    """
    if explain is not None and file_name is not None:
        explain = explain / file_name
    outcome = ExperimentOutcome(
        kind=kind, page_size=page_size, seed=QUERY_SEEDS[kind] if seed is None else seed
    )
    for name, factory in factories.items():
        run_cell(
            outcome,
            name,
            factory,
            data,
            explain_dir=explain,
            audit=audit,
            derive_packed=file_name is not None and kind == "pam" and name == "BUDDY",
        )
    return outcome


def run_experiment(
    kind: str,
    factories,
    data: Sequence,
    *,
    seed: int | None = None,
    page_size: int = 512,
    audit: bool = False,
    explain: Path | None = None,
) -> ExperimentOutcome:
    """Run every structure's cell on the same data, one after the other.

    ``factories`` is a mapping of table names to factories, or a
    sequence of registered standard-testbed structure names.  Each cell
    is a :func:`run_cell` under its own tracer, and ``to_report()`` on
    the outcome assembles the run report from their spans.

    ``audit=True`` audits every structure after its build; ``explain``
    is the directory that gets one :mod:`repro.obs.explain` trace per
    structure (``PAM-<name>.json`` / ``SAM-<name>.json``).  Neither
    changes a charged access.
    """
    if not isinstance(factories, Mapping):
        from repro.core.testbed import standard_factories

        registry = standard_factories(kind)
        factories = {name: registry[name] for name in factories}
    return _run_cells(kind, factories, data, seed, page_size, audit, explain)


def run_file(
    kind: str,
    file_name: str,
    *,
    scale: int,
    page_size: int = 512,
    seed: int | None = None,
    audit: bool = False,
    explain: Path | None = None,
) -> ExperimentOutcome:
    """The full standard comparison of ``kind`` on one named data file.

    The file is generated once at ``scale`` records and every standard
    structure runs its cell on it; PAM files add the derived BUDDY+
    row.  ``audit`` and ``explain`` are those of
    :func:`run_experiment`; explain traces go to a subdirectory named
    after the file.
    """
    from repro.core.testbed import standard_factories

    if kind == "pam":
        data = generate_point_file(file_name, scale)
    else:
        data = generate_rect_file(file_name, scale)
    factories = standard_factories(kind)
    return _run_cells(kind, factories, data, seed, page_size, audit, explain, file_name)
