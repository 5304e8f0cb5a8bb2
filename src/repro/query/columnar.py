"""Batched query workloads and the per-store slot that holds them.

A :class:`ColumnarCache` lives on a :class:`~repro.storage.pagestore.PageStore`
(``store.columnar``).  Page *arrays* are not kept here — struct-of-arrays
pages carry their own fused views (:mod:`repro.storage.soa`) — so the
cache is three things: the slot for the active :class:`QueryWorkload`,
the hot-pid hint handed from one workload to the next, and the
:meth:`~ColumnarCache.invalidate` hook the store calls on every ``write``
and ``free``, before any charging decision, so mutation paths can never
observe a stale verdict row.

A *workload* batches an entire query file: when the driver registers the
file's query boxes up front, :class:`~repro.query.traverse.RowSource`
evaluates each hot (page, predicate) pair against **all** queries in one
``(Q, n)`` kernel call and then answers every later query that touches
the same page from the cached per-query hit-index lists without touching
NumPy again.  Queries issued outside a workload (or whose box does not
match the registered one) ride single-query kernels.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.rect import Rect

__all__ = ["ColumnarCache", "QueryWorkload", "promote_visits_for"]


def promote_visits_for(batch_size: int) -> int:
    """The visit count at which a page's batch mask is built.

    ``max(4, Q // 8)`` — the batch kernel costs roughly ``Q / 10`` single
    evaluations, so promotion only pays on pages a sizeable fraction of
    the batch revisits.
    """
    return max(4, batch_size // 8)


#: Fused query-vector builders per op family (see repro.geometry.kernels):
#: each maps the batch ``(qlo, qhi)`` corner matrices to the ``(Q, 2d)``
#: matrix a fused page array is compared against with a single ``<=``
#: (containment: enclosure's matrix and ``>=``, ``traverse._TESTS``).
_QVEC_BUILDERS = {
    "pts": lambda qlo, qhi: np.concatenate([-qlo, qhi], axis=1),
    "isect": lambda qlo, qhi: np.concatenate([qhi, -qlo], axis=1),
    "encl": lambda qlo, qhi: np.concatenate([qlo, -qhi], axis=1),
}


class QueryWorkload:
    """A registered batch of query boxes, plus its per-page hit-index cache.

    ``rects[i]`` may be ``None`` when query ``i`` cannot produce a box (the
    transformation technique's center representation); its batch rows are
    NaN and compare false everywhere, and no verdict row is ever requested
    for them because the access method returns early.

    Batch evaluation pays the whole batch's kernel work up front, which only
    amortises on pages many queries revisit.  A page is therefore *promoted*
    only once its visit count under one row key reaches
    :attr:`promote_visits`; colder pages answer with a single-query fused
    row.  Promotion (:meth:`repro.query.traverse.RowSource.row`) runs one
    ``(Q, n)`` kernel call and flattens the mask to CSR form — one
    ``nonzero`` plus one ``searchsorted`` for the whole batch, after which
    any query's ascending hit-index list is a two-element slice and a
    ``tolist``.  The per-query memo keeps revisits of a hot page within
    *one* query (as the z-ordered structures do when a query decomposes
    into several intervals) at a single dict lookup, no NumPy at all.
    """

    __slots__ = (
        "rects",
        "qlo",
        "qhi",
        "index",
        "current",
        "promote_visits",
        "_qvecs",
        "_qrange",
        "_rows",
        "_visits",
        "_hot",
        "_cur",
    )

    def __init__(
        self, rects: Sequence["Rect | None"], hot: "frozenset | None" = None
    ):
        self.rects = list(rects)
        self.qlo: "np.ndarray | None" = None
        self.qhi: "np.ndarray | None" = None
        dims = next((r.dims for r in self.rects if r is not None), 0)
        if self.rects and dims:
            qlo = np.full((len(self.rects), dims), np.nan)
            qhi = np.full((len(self.rects), dims), np.nan)
            for i, rect in enumerate(self.rects):
                if rect is not None:
                    qlo[i] = rect.lo
                    qhi[i] = rect.hi
            self.qlo = qlo
            self.qhi = qhi
        #: Index of the query currently being executed (set by the driver).
        self.index = -1
        self.current: "Rect | None" = None
        #: Visits of one (pid, rowkey) before the batch is evaluated (see
        #: :func:`promote_visits_for`).
        self.promote_visits = promote_visits_for(len(self.rects))
        # op -> (Q, 2d) fused query matrix (built lazily per op family).
        self._qvecs: dict[str, np.ndarray] = {}
        #: ``arange(Q + 1)`` — the searchsorted probe turning a batch
        #: mask's nonzero pairs into per-query CSR row offsets.
        self._qrange = np.arange(len(self.rects) + 1)
        # (pid, rowkey) -> (starts, cols): the batch verdict in CSR form —
        # query i's ascending hit indices are cols[starts[i]:starts[i+1]].
        # ``starts`` is a plain list: offsets are probed twice per page
        # visit, and Python-int indexing beats NumPy scalar extraction.
        self._rows: dict[tuple[int, str], tuple] = {}
        # (pid, rowkey) -> visits answered without a batch evaluation.
        self._visits: dict[tuple[int, str], int] = {}
        #: Pids that ran hot in an earlier workload of this cache (see
        #: :meth:`ColumnarCache.end_workload`): promote on first visit
        #: instead of re-counting — an evaluation hint only, the verdicts
        #: are computed against *this* workload's queries either way.
        #: Pid-level on purpose: the per-op row keys of one page are probed
        #: by the same traversals, so heat transfers across query files even
        #: when the operation (and therefore the row key) changes.
        self._hot: frozenset = hot if hot is not None else frozenset()
        # (pid, rowkey) -> hit row of the *current* query only (cleared on
        # every set_query), for structures that revisit one page within a
        # single query (the z-ordered methods scan one leaf per z-interval).
        self._cur: dict[tuple[int, str], list] = {}

    def set_query(self, index: int) -> None:
        """Mark query ``index`` as the one currently executing."""
        self.index = index
        self.current = self.rects[index]
        self._cur.clear()

    def qvecs(self, op: str) -> np.ndarray:
        """The ``(Q, 2d)`` fused query matrix of op family ``op``, built lazily."""
        qv = self._qvecs.get(op)
        if qv is None:
            qv = self._qvecs[op] = _QVEC_BUILDERS[op](self.qlo, self.qhi)
        return qv

    def invalidate(self, pid: int) -> None:
        """Drop every cached hit row (and visit count) for page ``pid``."""
        for key in [k for k in self._rows if k[0] == pid]:
            del self._rows[key]
        for key in [k for k in self._visits if k[0] == pid]:
            del self._visits[key]
        for key in [k for k in self._cur if k[0] == pid]:
            del self._cur[key]


class ColumnarCache:
    """A store's active query workload and its cross-workload hot-pid hint."""

    __slots__ = ("workload", "_hot_pids")

    def __init__(self) -> None:
        self.workload: "QueryWorkload | None" = None
        # Pids that ran hot in earlier workloads of this cache; the next
        # workload promotes them on first visit (comparison drivers run
        # several query files over one build, and a page hot for one file
        # is almost always hot for the next).
        self._hot_pids: set = set()

    def invalidate(self, pid: int) -> None:
        """Drop every verdict row and promotion hint derived from ``pid``."""
        if self.workload is not None:
            self.workload.invalidate(pid)
        self._hot_pids.discard(pid)

    def begin_workload(self, rects: Sequence["Rect | None"]) -> QueryWorkload:
        """Register a query file's boxes for batched evaluation."""
        self.workload = QueryWorkload(rects, frozenset(self._hot_pids))
        return self.workload

    def end_workload(self) -> None:
        """Deregister the batch, remembering which pages ran hot.

        Pids of promoted keys — and of keys whose visit count reached
        half the promotion threshold — seed the next workload's
        first-visit promotion hint.  A hint never changes a verdict
        (each workload evaluates its own queries); it only moves the
        batch kernel earlier.
        """
        workload = self.workload
        if workload is not None:
            hot = self._hot_pids
            hot.update(pid for pid, _ in workload._rows)
            cut = max(2, workload.promote_visits // 2)
            hot.update(k[0] for k, v in workload._visits.items() if v >= cut)
        self.workload = None
