"""Public interfaces of point and spatial access methods.

Every structure in :mod:`repro.pam` implements
:class:`PointAccessMethod`; every structure in :mod:`repro.sam`
implements :class:`SpatialAccessMethod`.  The bases centralise the
bookkeeping that the paper's tables report — insertion cost, storage
utilisation, directory/data ratio and directory height — so that each
structure only implements its algorithmic core.

Records are ``(key, rid)`` pairs: the key is a point (tuple of floats in
the unit cube) or a :class:`~repro.geometry.rect.Rect`; the ``rid`` is
an opaque record identifier (the paper's "record pointer").
"""

from __future__ import annotations

import abc
from typing import Sequence

from repro.core.stats import BuildMetrics
from repro.geometry.rect import Rect
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore

__all__ = ["PointAccessMethod", "SpatialAccessMethod"]


class _AccessMethodBase(abc.ABC):
    """Shared bookkeeping for page-based access methods."""

    def __init__(self, store: PageStore, dims: int, record_size: int):
        if dims < 1:
            raise ValueError("dims must be positive")
        self.store = store
        self.dims = dims
        self.record_size = record_size
        self._records = 0
        self._insert_accesses = 0

    # -- to be provided by each structure --------------------------------

    @property
    @abc.abstractmethod
    def directory_height(self) -> int:
        """Height ``h`` of the directory (0 for a directory-less scheme)."""

    @property
    @abc.abstractmethod
    def record_capacity(self) -> int:
        """Records per data page, derived from the 512-byte layout."""

    # -- metrics -----------------------------------------------------------

    def __len__(self) -> int:
        return self._records

    def metrics(self) -> BuildMetrics:
        """The paper's per-structure table figures for the current file."""
        data_pages = self.store.count_pages(PageKind.DATA)
        dir_pages = self.store.count_pages(PageKind.DIRECTORY)
        slots = data_pages * self.record_capacity
        return BuildMetrics(
            storage_utilization=100.0 * self._records / slots if slots else 0.0,
            dir_data_ratio=100.0 * dir_pages / data_pages if data_pages else 0.0,
            insert_cost=self._insert_accesses / self._records if self._records else 0.0,
            height=self.directory_height,
            records=self._records,
            data_pages=data_pages,
            directory_pages=dir_pages,
            pinned_pages=self.store.pinned_count,
        )

    # -- structural verification ------------------------------------------

    def iter_records(self):
        """Yield every stored ``(key, rid)`` pair, uncharged.

        The one record walk: the ``entries`` of the data views of
        :meth:`_snapshot_pages`, page by page in walk order.  A shared
        (packed BUDDY) page is walked once, so its records come once.
        Two kinds of structure override it: one that stores an object
        more than once (clipping, R+) keeps the first copy of each rid,
        and the transformation SAM maps its stored points back to
        rectangles.
        """
        for view in self._snapshot_pages():
            if view.kind == "data":
                yield from view.entries

    def _snapshot_pages(self):
        """Yield a :class:`~repro.obs.structure.PageView` per live page.

        Each structure overrides this with an uncharged walk of its own
        page layout (via :meth:`PageStore.peek`); snapshots, explain,
        :meth:`iter_records` and the auditors all read it (the auditors
        through :func:`repro.verify.invariants.check_walk`).  A data
        page's view carries the ``(key, rid)`` entries it stores
        (:meth:`PageView.data <repro.obs.structure.PageView.data>`).
        Shared pages (packed BUDDY) are yielded exactly once.  The
        default refuses, so a structure without a walk cannot silently
        return an empty snapshot or no records.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement _snapshot_pages()"
        )

    def snapshot(self) -> dict:
        """A versioned structural snapshot of the built file.

        Occupancy histograms, depth/fanout distributions and the
        paper's redundancy metrics (duplication factor, overlap volume,
        dead space, per-level utilisation), computed from an uncharged
        page walk — taking a snapshot never changes access statistics.
        See :mod:`repro.obs.structure` for the schema.
        """
        from repro.obs.structure import compute_snapshot

        return compute_snapshot(self)

    def check_invariants(self) -> list:
        """Run this structure's auditor and return the violations found.

        An empty list means the file is structurally sound.  The audit
        walks the page store with uncharged reads, so access statistics
        and the search-path buffer are untouched.  See
        :mod:`repro.verify.auditors` for the invariant catalogue.
        """
        from repro.verify.auditors import run_audit

        return run_audit(self)

    def audit(self) -> None:
        """Assert structural soundness; raise ``AuditError`` on violations."""
        from repro.verify.invariants import AuditError

        violations = self.check_invariants()
        if violations:
            raise AuditError(type(self).__name__, violations)

    # -- batched query workloads -------------------------------------------

    def register_query_workload(self, kind: str, queries: Sequence) -> None:
        """Register a whole query file for batched vectorized evaluation.

        ``kind`` is a query-type tag (``range``, ``pm``, ``point``,
        ``intersection``, ``containment``, ``enclosure``) and ``queries``
        the file's raw queries in execution order.  The driver
        (:mod:`repro.query.driver`) marks the current query index before
        each call, letting the traversal evaluate each hot page against
        the *entire* batch in one kernel call.  Registration is purely an
        evaluation hint: results and disk-access statistics are identical
        with or without it.
        """
        self.store.columnar.begin_workload(self._workload_rects(kind, queries))

    def end_query_workload(self) -> None:
        """Deregister the batch installed by :meth:`register_query_workload`."""
        self.store.columnar.end_workload()

    def _workload_rects(self, kind: str, queries: Sequence) -> list:
        """Map a query file to the boxes the scan paths will be asked about.

        The box the traversal receives must compare equal to the
        registered one, so conversions the public query methods make are
        shared with them (:meth:`_partial_match_rect`).  Structures that
        rewrite queries before scanning (the transformation technique)
        override this.
        """
        if kind == "pm":
            return [self._partial_match_rect(specified) for specified in queries]
        if kind == "point":
            return [Rect.from_point(tuple(float(c) for c in p)) for p in queries]
        return list(queries)

    def _partial_match_rect(self, specified: dict[int, float]) -> Rect:
        """The degenerate range query a partial-match query runs as."""
        lo = [0.0] * self.dims
        hi = [1.0] * self.dims
        for axis, value in specified.items():
            if not 0 <= axis < self.dims:
                raise ValueError(
                    f"partial-match axis {axis} outside 0..{self.dims - 1}"
                )
            lo[axis] = hi[axis] = value
        return Rect(tuple(lo), tuple(hi))

    # -- operation bracketing ----------------------------------------------

    def _measured_insert(self, key, rid: object) -> None:
        """Run ``_insert(key, rid)`` as one insert operation, accumulating
        its cost.  ``stats.total`` is spelled out, as in
        :func:`repro.query.driver.run_query_file`: a build runs this once
        per record."""
        store = self.store
        store.begin_operation()
        stats = store.stats
        before = stats.data_reads + stats.data_writes + stats.dir_reads + stats.dir_writes
        self._insert(key, rid)
        self._records += 1
        self._insert_accesses += (
            stats.data_reads + stats.data_writes + stats.dir_reads + stats.dir_writes - before
        )


class PointAccessMethod(_AccessMethodBase):
    """A multidimensional point access method (PAM).

    Subclasses implement :meth:`_insert`, :meth:`_range_query` and
    optionally :meth:`_exact_match`; the public methods here add the
    operation bracketing that drives the search-path buffer and the
    insert-cost metric.
    """

    # -- core hooks ---------------------------------------------------------

    @abc.abstractmethod
    def _insert(self, point: tuple[float, ...], rid: object) -> None:
        """Store ``(point, rid)``; called inside an operation bracket."""

    @abc.abstractmethod
    def _range_query(self, rect: Rect) -> list[tuple[tuple[float, ...], object]]:
        """All records whose point lies in the closed ``rect``."""

    def _exact_match(self, point: tuple[float, ...]) -> list[object]:
        """Record ids stored exactly at ``point``; default via range query."""
        return [rid for _, rid in self._range_query(Rect.from_point(point))]

    # -- public API -----------------------------------------------------------

    def insert(self, point: Sequence[float], rid: object) -> None:
        """Insert one record; counts toward the build's insertion cost."""
        p = tuple(map(float, point))
        if len(p) != self.dims:
            raise ValueError(f"point has {len(p)} dims, index has {self.dims}")
        for c in p:
            # Chained per coordinate: NaN fails both bounds.
            if not 0.0 <= c <= 1.0:
                raise ValueError(f"point {p} outside the unit cube")
        self._measured_insert(p, rid)

    def range_query(self, rect: Rect) -> list[tuple[tuple[float, ...], object]]:
        """All records in the closed query rectangle."""
        self.store.begin_operation()
        return self._range_query(rect)

    def exact_match(self, point: Sequence[float]) -> list[object]:
        """Record ids stored exactly at ``point``."""
        self.store.begin_operation()
        return self._exact_match(tuple(float(c) for c in point))

    def partial_match(self, specified: dict[int, float]) -> list[tuple[tuple[float, ...], object]]:
        """Partial-match query: exact values on some axes, free on the rest.

        ``specified`` maps axis index to the required value.  Executed as
        a degenerate range query, which is how the compared structures
        process partial matches.  An axis outside ``0..dims-1`` is a
        ``ValueError``, raised before the operation starts.
        """
        return self.range_query(self._partial_match_rect(specified))


class SpatialAccessMethod(_AccessMethodBase):
    """A spatial access method (SAM) for axis-parallel rectangles.

    The four query types are those of §7 of the paper.  Queries return
    record ids; rectangles are closed boxes.
    """

    @abc.abstractmethod
    def _insert(self, rect: Rect, rid: object) -> None:
        """Store ``(rect, rid)``; called inside an operation bracket."""

    @abc.abstractmethod
    def _point_query(self, point: tuple[float, ...]) -> list[object]:
        """Ids of stored rectangles containing ``point``."""

    @abc.abstractmethod
    def _intersection(self, query: Rect) -> list[object]:
        """Ids of stored rectangles intersecting ``query``."""

    @abc.abstractmethod
    def _containment(self, query: Rect) -> list[object]:
        """Ids of stored rectangles contained in ``query``."""

    @abc.abstractmethod
    def _enclosure(self, query: Rect) -> list[object]:
        """Ids of stored rectangles that enclose ``query``."""

    # -- public API -----------------------------------------------------------

    def insert(self, rect: Rect, rid: object) -> None:
        """Insert one rectangle; counts toward the build's insertion cost."""
        if rect.dims != self.dims:
            raise ValueError(f"rect has {rect.dims} dims, index has {self.dims}")
        # ``Rect.unit(dims).contains_rect(rect)`` without building the cube.
        for lo, hi in zip(rect.lo, rect.hi):
            if not (0.0 <= lo and hi <= 1.0):
                raise ValueError(f"{rect} outside the unit cube")
        self._measured_insert(rect, rid)

    def point_query(self, point: Sequence[float]) -> list[object]:
        """Ids of stored rectangles containing ``point``."""
        self.store.begin_operation()
        return self._point_query(tuple(float(c) for c in point))

    def intersection(self, query: Rect) -> list[object]:
        """Ids of stored rectangles intersecting ``query``."""
        self.store.begin_operation()
        return self._intersection(query)

    def containment(self, query: Rect) -> list[object]:
        """Ids of stored rectangles contained in ``query``."""
        self.store.begin_operation()
        return self._containment(query)

    def enclosure(self, query: Rect) -> list[object]:
        """Ids of stored rectangles that enclose ``query``."""
        self.store.begin_operation()
        return self._enclosure(query)
