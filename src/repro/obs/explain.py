"""EXPLAIN-style per-query execution traces.

An *explain trace* records how one query descended through a built
structure: the directory and data pages visited in order, per-page
candidate counts versus predicate hits (in-page selectivity), the
directory children pruned at each visited page, and the duplicate
results eliminated by a redundant scheme (clipping, R+) on the way out.

Recording is opt-in and strictly additive.  An :class:`ExplainRecorder`
chains the store's existing observer (usually the
:class:`~repro.obs.tracer.Tracer`), so it sees the *identical* event
stream that feeds :class:`~repro.core.stats.AccessStats` — the charged
events of a query's trace therefore sum bit-identically to the measured
cost of that query, and :meth:`ExplainRecorder.end_file` asserts it.
Candidate/hit counts are computed after the fact from the entries of
the structure's uncharged page walk (``_snapshot_pages()``), so
explaining a run never changes its access statistics.

The trace document (schema ``repro.obs/explain/v1``) is rendered by
``python -m repro.obs explain`` as an ASCII descent tree or a per-page
heatmap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.stats import AccessStats
from repro.geometry.rect import Rect
from repro.query.traverse import SCALAR_PRED
from repro.storage.page import PageKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.pagestore import PageStore

__all__ = [
    "EXPLAIN_SCHEMA",
    "ExplainRecorder",
    "page_heatmap",
    "render_heatmap",
    "render_trace",
    "validate_explain",
]

#: Schema identifier embedded in every explain trace.
EXPLAIN_SCHEMA = "repro.obs/explain/v1"

#: Query kinds whose predicate matches stored *points* against a box.
_POINT_KINDS = frozenset({"range", "pm"})

#: SAM query kind -> predicate tag over (stored rect, query rect).
_RECT_OPS = {
    "point": "encl",
    "intersection": "isect",
    "containment": "within",
    "enclosure": "encl",
}


@dataclass
class _Event:
    """One observed page touch (flat; sliced per query afterwards)."""

    pid: int
    kind: str  # "data" | "dir"
    rw: str  # "read" | "write"
    charged: bool


@dataclass
class _QueryRecord:
    """One executed query, before page-graph finalisation."""

    index: int
    query: object
    events: list[_Event]
    cost: int
    result_count: int


class _Collector:
    """Chained :class:`~repro.obs.tracer.StoreObserver` feeding a recorder.

    Delegates both callbacks to the observer it replaced (so a tracer
    keeps its spans) and accumulates a flat event list with operation
    boundaries.  Observation never changes charging decisions.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.events: list[_Event] = []

    def on_operation_begin(self, store: "PageStore") -> None:
        if self.inner is not None:
            self.inner.on_operation_begin(store)

    def on_access(
        self,
        store: "PageStore",
        pid: int,
        kind: PageKind,
        rw: str,
        charged: bool,
        reason: str,
    ) -> None:
        if self.inner is not None:
            self.inner.on_access(store, pid, kind, rw, charged, reason)
        self.events.append(
            _Event(pid, "data" if kind is PageKind.DATA else "dir", rw, charged)
        )

    def drain(self) -> list[_Event]:
        out = self.events
        self.events = []
        return out


def _query_rect(method, kind: str, query) -> Rect:
    """The box the *final* predicate compares against, per query kind."""
    if kind in _POINT_KINDS:
        # Same conversion the driver registers for the scan kernels.
        return method._workload_rects(kind, [query])[0]
    if kind == "point":
        return Rect.from_point(tuple(float(c) for c in query))
    return query


def _page_hits(method, kind: str, entries: list, qrect: Rect) -> int:
    """Entries on one data page satisfying the query's final predicate."""
    if kind in _POINT_KINDS:
        return sum(1 for geom, _ in entries if qrect.contains_point(geom))
    pred = SCALAR_PRED[_RECT_OPS[kind]]
    to_rect = getattr(method, "_to_rect", None)
    hits = 0
    for geom, _ in entries:
        if isinstance(geom, Rect):
            rect = geom
        elif to_rect is not None:
            rect = to_rect(geom)
        else:
            continue
        if pred(rect, qrect):
            hits += 1
    return hits


def _query_json(kind: str, query) -> object:
    if kind == "pm":
        return {str(axis): value for axis, value in sorted(query.items())}
    if kind == "point":
        return [float(c) for c in query]
    return {"lo": list(query.lo), "hi": list(query.hi)}


class ExplainRecorder:
    """Collects explain traces for one structure across its query files.

    Pass an instance as ``explain=`` to
    :func:`repro.query.driver.run_query_file` (the comparison drivers
    thread it through).  After the run, :meth:`to_trace` returns the
    versioned trace document and :meth:`save` writes it as JSON.
    """

    def __init__(self, structure: str):
        self.structure = structure
        self.files: list[dict] = []
        self.label: str | None = None
        self._collector: _Collector | None = None
        self._store = None
        self._method = None
        self._kind = ""
        self._records: list[_QueryRecord] = []

    # -- driver hooks (called by run_query_file) --------------------------

    def start_file(self, method, kind: str) -> None:
        if self._collector is not None:
            raise RuntimeError("explain recorder already attached")
        self._method = method
        self._kind = kind
        self._records = []
        self._store = method.store
        self._collector = _Collector(method.store.observer)
        method.store.observer = self._collector

    def finish_query(self, index: int, query, cost: int, result) -> None:
        assert self._collector is not None
        try:
            result_count = len(result)
        except TypeError:
            result_count = 0
        self._records.append(
            _QueryRecord(index, query, self._collector.drain(), cost, result_count)
        )

    def end_file(self) -> None:
        """Detach and finalise this file's traces against the page graph."""
        assert self._collector is not None and self._store is not None
        self._store.observer = self._collector.inner
        method, kind = self._method, self._kind
        records = self._records
        self._collector = None
        self._store = None
        self._method = None
        self._records = []

        from repro.obs.structure import page_parents

        pages = list(method._snapshot_pages())
        parents = page_parents(pages)
        views = {p.pid: p for p in pages}

        queries = []
        for record in records:
            queries.append(self._finalise(method, kind, record, parents, views))
        self.files.append(
            {"label": self.label or kind, "kind": kind, "queries": queries}
        )
        self.label = None

    # -- finalisation ------------------------------------------------------

    def _finalise(
        self, method, kind: str, record: _QueryRecord, parents, views
    ) -> dict:
        stats = AccessStats()
        visits: dict[int, dict] = {}
        for event in record.events:
            visit = visits.get(event.pid)
            if visit is None:
                visit = visits[event.pid] = {
                    "pid": event.pid,
                    "kind": event.kind,
                    "order": len(visits),
                    "reads": 0,
                    "writes": 0,
                    "free": 0,
                }
            if not event.charged:
                visit["free"] += 1
            elif event.rw == "read":
                visit["reads"] += 1
                if event.kind == "data":
                    stats.data_reads += 1
                else:
                    stats.dir_reads += 1
            else:
                visit["writes"] += 1
                if event.kind == "data":
                    stats.data_writes += 1
                else:
                    stats.dir_writes += 1
        if stats.total != record.cost:
            raise RuntimeError(
                f"explain trace of {self.structure} {kind} #{record.index} "
                f"disagrees with AccessStats: {stats.total} charged events "
                f"vs measured cost {record.cost}"
            )

        qrect = _query_rect(method, kind, record.query)
        candidates_total = 0
        hits_total = 0
        page_list = []
        for visit in sorted(visits.values(), key=lambda v: v["order"]):
            pid = visit["pid"]
            parent = parents.get(pid)
            visit["parent"] = parent if parent in visits else None
            view = views.get(pid)
            # Pages outside the snapshot graph (e.g. freed during the
            # walk window) keep only their access counters.
            if view is not None:
                visit["depth"] = view.depth
                if visit["kind"] == "data":
                    visit["candidates"] = len(view.entries)
                    visit["hits"] = _page_hits(method, kind, view.entries, qrect)
                    candidates_total += visit["candidates"]
                    hits_total += visit["hits"]
                else:
                    visit["pruned_children"] = sum(
                        1 for child in view.children if child not in visits
                    )
            page_list.append(visit)

        return {
            "index": record.index,
            "query": _query_json(kind, record.query),
            "cost": stats.as_dict(),
            "accesses": stats.total,
            "free_accesses": sum(v["free"] for v in visits.values()),
            "result_count": record.result_count,
            "candidates": candidates_total,
            "hits": hits_total,
            "duplicates": max(0, hits_total - record.result_count),
            "pages": page_list,
        }

    # -- output ------------------------------------------------------------

    def to_trace(self) -> dict:
        return {
            "schema": EXPLAIN_SCHEMA,
            "structure": self.structure,
            "files": self.files,
        }

    def save(self, path) -> None:
        from pathlib import Path

        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_trace(), indent=2, sort_keys=True))


def validate_explain(data: object) -> list[str]:
    """Shape-check an explain trace; returns problems ([] when valid)."""
    problems: list[str] = []
    if not isinstance(data, dict):
        return ["trace is not a JSON object"]
    if data.get("schema") != EXPLAIN_SCHEMA:
        problems.append(
            f"schema is {data.get('schema')!r}, expected {EXPLAIN_SCHEMA!r}"
        )
    if not isinstance(data.get("structure"), str):
        problems.append("missing or mistyped field 'structure'")
    files = data.get("files")
    if not isinstance(files, list):
        return problems + ["missing or mistyped field 'files'"]
    for fi, file in enumerate(files):
        if not isinstance(file, dict) or not isinstance(file.get("queries"), list):
            problems.append(f"files[{fi}] malformed")
            continue
        for qi, query in enumerate(file["queries"]):
            where = f"files[{fi}].queries[{qi}]"
            if not isinstance(query, dict):
                problems.append(f"{where} is not an object")
                continue
            for key in ("cost", "pages"):
                if key not in query:
                    problems.append(f"{where} missing {key!r}")
            cost = query.get("cost")
            if isinstance(cost, dict) and isinstance(query.get("pages"), list):
                total = sum(
                    page.get("reads", 0) + page.get("writes", 0)
                    for page in query["pages"]
                    if isinstance(page, dict)
                )
                if total != sum(cost.values()):
                    problems.append(
                        f"{where}: page accesses {total} != cost {sum(cost.values())}"
                    )
    return problems


# -- the per-page heatmap ---------------------------------------------------


def page_heatmap(trace: dict) -> list[dict]:
    """Aggregate a trace into one access-heatmap row per visited page.

    Joins the structure geometry already in the trace (page kind and
    directory depth from the snapshot walk) with the access side of the
    explain records: how many queries touched the page, total charged
    reads/writes, free touches, and summed candidates vs hits for data
    pages.  Rows come back hottest-first (by charged touches), ties by
    pid, so the output is deterministic.
    """
    rows: dict[int, dict] = {}
    for file in trace.get("files", []):
        for query in file.get("queries", []):
            for page in query.get("pages", []):
                pid = page["pid"]
                row = rows.get(pid)
                if row is None:
                    row = rows[pid] = {
                        "pid": pid,
                        "kind": page.get("kind", "?"),
                        "depth": page.get("depth"),
                        "queries": 0,
                        "reads": 0,
                        "writes": 0,
                        "free": 0,
                        "candidates": 0,
                        "hits": 0,
                    }
                if row["depth"] is None and page.get("depth") is not None:
                    row["depth"] = page["depth"]
                row["queries"] += 1
                row["reads"] += page.get("reads", 0)
                row["writes"] += page.get("writes", 0)
                row["free"] += page.get("free", 0)
                row["candidates"] += page.get("candidates", 0)
                row["hits"] += page.get("hits", 0)
    return sorted(
        rows.values(), key=lambda r: (-(r["reads"] + r["writes"]), r["pid"])
    )


def render_heatmap(trace: dict) -> str:
    """Fixed-width table of :func:`page_heatmap` rows, hottest first."""
    rows = page_heatmap(trace)
    lines = [
        f"page heatmap: {trace.get('structure', '?')} "
        f"({len(rows)} pages touched)",
        f"{'page':>8s} {'kind':10s}{'depth':>6s}{'queries':>9s}"
        f"{'reads':>7s}{'writes':>7s}{'free':>6s}{'hits/cand':>12s}",
    ]
    for row in rows:
        depth = "-" if row["depth"] is None else str(row["depth"])
        ratio = (
            f"{row['hits']}/{row['candidates']}" if row["candidates"] else "-"
        )
        lines.append(
            f"p{row['pid']:>7d} {row['kind']:10s}{depth:>6s}"
            f"{row['queries']:>9d}{row['reads']:>7d}{row['writes']:>7d}"
            f"{row['free']:>6d}{ratio:>12s}"
        )
    return "\n".join(lines) + "\n"


# -- rendering -------------------------------------------------------------


def _render_query_tree(structure: str, label: str, query: dict) -> list[str]:
    cost = query["cost"]
    lines = [
        f"{structure} {label} #{query['index']} — "
        f"{query['accesses']} accesses ({cost['data_reads']}dr "
        f"{cost['dir_reads']}xr {cost['data_writes']}dw {cost['dir_writes']}xw, "
        f"{query['free_accesses']} free), {query['result_count']} results, "
        f"{query['hits']}/{query['candidates']} hits/candidates, "
        f"{query['duplicates']} duplicates eliminated"
    ]
    pages = query["pages"]
    by_parent: dict[object, list[dict]] = {}
    for page in pages:
        by_parent.setdefault(page.get("parent"), []).append(page)

    def describe(page: dict) -> str:
        bits = [f"{page['kind']} p{page['pid']}"]
        touches = []
        if page["reads"]:
            touches.append(f"reads={page['reads']}")
        if page["writes"]:
            touches.append(f"writes={page['writes']}")
        if page["free"]:
            touches.append(f"free={page['free']}")
        bits.extend(touches)
        if "candidates" in page:
            bits.append(f"hits={page['hits']}/{page['candidates']}")
        if "pruned_children" in page:
            bits.append(f"pruned={page['pruned_children']}")
        return " ".join(bits)

    def walk(parent: object, prefix: str) -> None:
        siblings = by_parent.get(parent, [])
        for i, page in enumerate(siblings):
            last = i == len(siblings) - 1
            lines.append(f"{prefix}{'└─ ' if last else '├─ '}{describe(page)}")
            walk(page["pid"], prefix + ("   " if last else "│  "))

    walk(None, "")
    return lines


def render_trace(trace: dict, fmt: str = "tree") -> str:
    """Render a trace document as ``tree`` text, one descent per query."""
    if fmt != "tree":
        raise ValueError(f"unknown format {fmt!r}")
    structure = trace.get("structure", "?")
    lines: list[str] = []
    for file in trace.get("files", []):
        for query in file.get("queries", []):
            lines.extend(_render_query_tree(structure, file["label"], query))
            lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"
