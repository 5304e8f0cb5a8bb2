"""Batched verdict rows for the query descents: three shapes, one source.

At the paper's 512-byte pages a page holds ~20 rows, so a per-entry
Python predicate costs more than one fused NumPy comparison over the
page's struct-of-arrays rows (canonical on the page, see
:mod:`repro.storage.soa`).  Every query path asks :class:`RowSource` for
a page's ascending verdict row; the structures differ only in *when*
they ask, and all three shapes issue the scalar path's charged reads in
the scalar order, so disk-access statistics, search-path buffer state
and the observer/explain event stream are bit-identical by construction.

**One descent** (BANG, BUDDY, hB, k-d-B, R+).  The structure runs its
scalar descent — ``read`` the page, take its verdict row from
:meth:`RowSource.hits`, push the children — and nothing else.  A
promoted page answers from the workload's cached rows; any other page
is evaluated on the spot, alone.  Their regions are disjoint or nearly so, so
a level holds few cold pages and batching them buys nothing.

**Plan / replay** (R-tree).  Overlapping MBRs make a level wide: the
query first walks the tree level by level over uncharged views
(:meth:`~repro.storage.pagestore.PageStore.held`), deferring every cold
page of a level with :meth:`RowSource.row` and evaluating them in **one**
fused call per level with :meth:`RowSource.flush`; it then replays the
original descent with charged reads over the precomputed rows.  At
512 B on a 2 000-rectangle pool a one-descent R-tree answered ad-hoc
queries ~1.5x slower (DESIGN.md, "Batched traversal"), which is why
this shape stays where the levels are wide.

**Read then batch** (the grid family, the z-ordered scans, clipping,
overlapping regions).  The visited page set does not depend on page
contents, so the structure reads its candidate pages in the original
order first and evaluates every cold one in one fused call
(:func:`data_hit_rows` or ``row`` + ``flush``).

The scalar descents this replaced are the tested reference; they live
in ``tests/reference_query.py``, and ``tests/test_query_traversal.py``
compares the two access streams event for event, with and without a
registered workload.  :data:`SCALAR_PRED` holds the pairwise predicates
the kernels must agree with.

Every op reads a container's one coordinate array (:mod:`repro.storage.soa`)
and picks only the query vector and the comparison (:data:`_TESTS`).
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from typing import Sequence

import numpy as np

from repro.geometry.rect import Rect
from repro.storage import soa

__all__ = ["RowSource", "SCALAR_PRED", "data_hit_rows", "BOXES", "VALUES", "qvec_for"]

_EMPTY_ROW: list = []

#: ``(view tag, builder)`` of the ``[lo, -hi]`` rows of a container of
#: :class:`Rect` rows: the one array every op evaluates.  Callers hand
#: both to :meth:`RowSource.row` or :meth:`RowSource.hits`, which build
#: the view only when the page cannot be answered from a cache.
BOXES = ("boxes", soa.fused_cover_boxes)

#: Same, for containers of ``(rect, payload)`` pairs.
VALUES = ("values", soa.fused_cover_values)

#: op -> (query-vector family, comparison) against the container's one
#: array.  Containment is enclosure's query vector compared with ``>=``:
#: negation is exact in IEEE-754 and NaN compares false both ways, so
#: ``[lo, -hi] >= [qlo, -qhi]`` (``qlo <= lo``, ``hi <= qhi``) is exact.
_TESTS = {
    "pts": ("pts", operator.le),
    "isect": ("isect", operator.le),
    "encl": ("encl", operator.le),
    "within": ("encl", operator.ge),
}


def qvec_for(op: str, query: Rect) -> np.ndarray:
    """The fused ``(2d,)`` query vector of one box for an op family
    (``"pts"``, ``"isect"`` or ``"encl"``, see :data:`_TESTS`).

    Sign flips only — exact in IEEE-754, so one fused comparison is
    bit-identical to the pairwise scalar predicate
    (see :mod:`repro.geometry.kernels`).
    """
    if op == "pts":
        vals = tuple(-c for c in query.lo) + query.hi
    elif op == "isect":
        vals = query.hi + tuple(-c for c in query.lo)
    else:  # "encl"
        vals = query.lo + tuple(-c for c in query.hi)
    return np.array(vals)


#: The pairwise predicates the fused kernels must agree with (stored box
#: first, query second) — what the scalar reference descents evaluate,
#: and what the few-entry tails of the batched path still call.
SCALAR_PRED = {
    "isect": lambda r, q: r.intersects(q),
    "within": lambda r, q: q.contains_rect(r),
    "encl": lambda r, q: r.contains_rect(q),
}


class RowSource:
    """Per-operation verdict rows with workload caching and level batching.

    One instance serves one public query call; the workload's per-query
    memo, when a batch is registered, is its memo.  Two ways to ask:

    * :meth:`hits` — the row now.  The one-descent structures call only
      this.
    * :meth:`row` — the row if it is memoised or the workload holds the
      page's batch mask, else ``None``: the page's fused rows join the
      current level's batch.  :meth:`flush` then evaluates every deferred
      page in one kernel call per op family and memoises the rows, so
      ``rows[(pid, rowkey)]`` holds every row requested since.  The
      R-tree's plan and the read-then-batch scans defer whole levels.

    Either way an unpromoted visit is counted, and a page is promoted to
    a ``(Q, n)`` batch mask once its count reaches the workload's
    threshold.  Verdicts are bit-identical to the scalar predicates: hot
    pages answer from the batch mask, cold pages ride the same fused
    single-comparison kernel.
    """

    __slots__ = ("workload", "rows", "query", "_pend", "_pend_keys", "_qvecs")

    def __init__(self, cache, query: Rect):
        workload = cache.workload
        if workload is not None:
            cur = workload.current
            if cur is None or not (cur is query or cur == query):
                workload = None
        self.workload = workload
        self.query = query
        #: Memoised rows of this operation; the workload's per-query memo
        #: when a batch is registered, so within-query revisits of a page
        #: answer from one dict lookup.
        self.rows: dict = workload._cur if workload is not None else {}
        # op -> (keys, arrays): pages deferred into the level batch.
        self._pend: dict[str, tuple[list, list]] = {}
        # Keys already deferred — the z-ordered structures revisit one
        # page several times within a query; enqueue it once per flush.
        self._pend_keys: set = set()
        self._qvecs: dict[str, np.ndarray] = {}

    def row(self, pid: int, rowkey: str, op: str, lst, tag: str, build) -> "list | None":
        """The verdict row for ``(pid, rowkey)``, or ``None`` if deferred.

        ``lst`` is the page's struct-of-arrays container and ``(tag,
        build)`` name its coordinate view (:data:`BOXES`, :data:`VALUES`
        or ``("pts", fused_points)``) — the view is only materialised when
        this call actually needs the arrays, which cache-answered pages
        never do.  ``rowkey`` is the workload row key (tag + ":" + op for
        bound selects, ``"pts"`` for record matches).
        """
        key = (pid, rowkey)
        if key in self._pend_keys:
            return None
        row = self._known(key, op, lst, tag, build)
        if row is None:
            pend = self._pend.get(op)
            if pend is None:
                pend = self._pend[op] = ([], [])
            fused = lst.view(tag, build)
            pend[0].append((key, fused.shape[0]))
            pend[1].append(fused)
            self._pend_keys.add(key)
        return row

    def hits(self, pid: int, rowkey: str, op: str, lst, tag: str, build) -> list:
        """The verdict row for ``(pid, rowkey)``, evaluated now.

        The one-descent form of :meth:`row` (same arguments): a memoised
        or promoted page answers from its cached row, visit counting and
        promotion included, and any other page is evaluated on the spot.
        """
        key = (pid, rowkey)
        row = self._known(key, op, lst, tag, build)
        if row is None:
            _, compare = _TESTS[op]
            hit = compare(lst.view(tag, build), self._qvec(op)).all(axis=1)
            row = self.rows[key] = hit.nonzero()[0].tolist()
        return row

    def _known(self, key, op: str, lst, tag: str, build) -> "list | None":
        """The memoised row for ``key``, or the workload's once the page is
        promoted (counting this visit), else ``None``: evaluate it alone."""
        rows = self.rows
        row = rows.get(key)
        if row is not None:
            return row
        workload = self.workload
        if workload is None:
            return None
        entry = workload._rows.get(key)
        if entry is None:
            visits = workload._visits.get(key, 0) + 1
            if visits < workload.promote_visits and key[0] not in workload._hot:
                workload._visits[key] = visits
                return None
            family, compare = _TESTS[op]
            qvecs = workload.qvecs(family)
            fused = lst.view(tag, build)
            # Column-AND instead of a (Q, n, 2d) broadcast + reduction:
            # same comparisons, less memory traffic.
            mask = compare(fused[:, 0], qvecs[:, 0:1])
            for j in range(1, fused.shape[1]):
                mask &= compare(fused[:, j], qvecs[:, j : j + 1])
            qidx, cols = mask.nonzero()
            entry = workload._rows[key] = (
                np.searchsorted(qidx, workload._qrange).tolist(),
                cols,
            )
        starts, cols = entry
        i = workload.index
        s = starts[i]
        e = starts[i + 1]
        row = rows[key] = cols[s:e].tolist() if e > s else _EMPTY_ROW
        return row

    def _qvec(self, op: str) -> np.ndarray:
        """The fused query vector of this operation's box for ``op``."""
        family = _TESTS[op][0]
        qvec = self._qvecs.get(family)
        if qvec is None:
            workload = self.workload
            if workload is not None:
                # Row of the workload's fused query matrix — same floats
                # as qvec_for, already materialised.
                qvec = workload.qvecs(family)[workload.index]
            else:
                qvec = qvec_for(family, self.query)
            self._qvecs[family] = qvec
        return qvec

    def flush(self) -> dict:
        """Evaluate every deferred page — one fused kernel call per op.

        Fills and returns the memo (:attr:`rows`); after this call every
        key passed to :meth:`row` since the last flush resolves.
        """
        rows = self.rows
        pend = self._pend
        if pend:
            for op, (keys, arrays) in pend.items():
                fused = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
                # Ascending hit positions, cut at the page boundaries.
                _, compare = _TESTS[op]
                hit = compare(fused, self._qvec(op)).all(axis=1).nonzero()[0].tolist()
                j = end = 0
                for key, n in keys:
                    start = end
                    end += n
                    k = bisect_left(hit, end, j)
                    rows[key] = [h - start for h in hit[j:k]] if start else hit[j:k]
                    j = k
            pend.clear()
            self._pend_keys.clear()
        return rows


def data_hit_rows(
    store, query: Rect, pages: Sequence[tuple[int, Sequence]]
) -> dict[int, list[int]]:
    """Ascending record-hit rows for a set of data pages, batch-evaluated.

    ``pages`` is ``[(pid, records), ...]`` with ``records`` a
    struct-of-arrays container of ``(point, rid)`` rows
    (:class:`~repro.storage.soa.SoAList`).  All pages the workload cache
    cannot answer are evaluated in **one** fused kernel call.  Reading the
    pages (and the charging order) is entirely the caller's business, so
    access statistics cannot change.
    """
    src = RowSource(store.columnar, query)
    row = src.row
    fused_points = soa.fused_points
    for pid, records in pages:
        if records:
            row(pid, "pts", "pts", records, "pts", fused_points)
        else:
            src.rows[(pid, "pts")] = _EMPTY_ROW
    rows = src.flush()
    return {pid: rows[(pid, "pts")] for pid, _ in pages}
