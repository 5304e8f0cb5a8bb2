"""The transformation technique: rectangles as higher-dimensional points.

A d-dimensional rectangle becomes a 2d-dimensional point, stored in any
point access method:

* **corner representation** — ``(lo_1..lo_d, hi_1..hi_d)``;
* **center representation** — ``(c_1..c_d, e_1..e_d)`` with center ``c``
  and extents ``e`` [NH 85].

All four rectangle query types translate to a single 2d-dimensional
range query; in the corner representation the translation is *exact*
(the query region is a box), while in the center representation the
exact query region is a cone that must be over-approximated by its
bounding box (tightened with the largest extent seen per axis) and
post-filtered.  This asymmetry is why Seeger's thesis [See 89] measured
the corner representation at roughly half the page accesses of the
center representation — reproduced by the representation ablation
bench.

The paper runs this technique over BANG and BUDDY; any
:class:`~repro.core.interfaces.PointAccessMethod` factory works here.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.interfaces import PointAccessMethod, SpatialAccessMethod
from repro.core.stats import BuildMetrics
from repro.geometry import kernels
from repro.geometry.rect import Rect
from repro.query import traverse
from repro.storage.pagestore import PageStore

__all__ = ["TransformationSAM"]

_REPRESENTATIONS = ("corner", "center")


class TransformationSAM(SpatialAccessMethod):
    """Rectangles stored as 2d-dimensional points in an underlying PAM.

    Parameters
    ----------
    store:
        The shared page store.
    pam_factory:
        Called as ``pam_factory(store, dims=2 * dims)`` to build the
        underlying point access method (e.g. ``BuddyTree`` or
        ``BangFile``).
    dims:
        Dimensionality of the stored rectangles.
    representation:
        ``"corner"`` (the paper's choice) or ``"center"``.
    bounded_extents:
        Only meaningful for the center representation.  The published
        scheme [NH 85] bounds extents only by the data space
        (``e <= 0.5``), which makes its transformed query boxes huge —
        the reason corner needs about half the accesses of center in
        [See 89].  Setting this to ``True`` tightens the boxes with the
        largest extent actually stored (an in-core scalar per axis), an
        improvement the representation ablation bench quantifies.
    """

    def __init__(
        self,
        store: PageStore,
        pam_factory: Callable[..., PointAccessMethod],
        dims: int = 2,
        representation: str = "corner",
        bounded_extents: bool = False,
    ):
        if representation not in _REPRESENTATIONS:
            raise ValueError(f"unknown representation {representation!r}")
        self.pam = pam_factory(store, dims=2 * dims)
        super().__init__(store, dims, self.pam.record_size)
        self.representation = representation
        self.bounded_extents = bounded_extents
        #: Largest extent seen per axis; used only with bounded_extents.
        self._max_extent = [0.0] * dims

    # -- plumbing ---------------------------------------------------------

    @property
    def record_capacity(self) -> int:
        return self.pam.record_capacity

    @property
    def directory_height(self) -> int:
        return self.pam.directory_height

    def iter_records(self):
        """The shared walk over the PAM's pages, points mapped back to
        rectangles."""
        for point, rid in super().iter_records():
            yield self._to_rect(point), rid

    def _snapshot_pages(self):
        """Delegate to the underlying PAM: its pages are this SAM's pages.

        The page geometry lives in the 2d-dimensional transform space,
        so the redundancy volumes of a snapshot are 2d-dim volumes.
        """
        yield from self.pam._snapshot_pages()

    def metrics(self) -> BuildMetrics:
        """Metrics come from the underlying PAM, with this SAM's build cost."""
        inner = self.pam.metrics()
        return BuildMetrics(
            storage_utilization=inner.storage_utilization,
            dir_data_ratio=inner.dir_data_ratio,
            insert_cost=self._insert_accesses / self._records if self._records else 0.0,
            height=inner.height,
            records=self._records,
            data_pages=inner.data_pages,
            directory_pages=inner.directory_pages,
            pinned_pages=inner.pinned_pages,
        )

    # -- the transform -------------------------------------------------------

    def _to_point(self, rect: Rect) -> tuple[float, ...]:
        if self.representation == "corner":
            return rect.lo + rect.hi
        center = rect.center
        extents = tuple((h - l) / 2.0 for l, h in zip(rect.lo, rect.hi))
        return center + extents

    def _to_rect(self, point: tuple[float, ...]) -> Rect:
        d = self.dims
        if self.representation == "corner":
            return Rect(point[:d], point[d:])
        lo = tuple(c - e for c, e in zip(point[:d], point[d:]))
        hi = tuple(c + e for c, e in zip(point[:d], point[d:]))
        return Rect(lo, hi)

    # -- operations --------------------------------------------------------------

    def _insert(self, rect: Rect, rid: object) -> None:
        for axis in range(self.dims):
            self._max_extent[axis] = max(
                self._max_extent[axis], (rect.hi[axis] - rect.lo[axis]) / 2.0
            )
        # The PAM's private hook is used on purpose: this insert is one
        # operation of *this* SAM, so the PAM must not restart the
        # operation bracket; its record count is kept in step by hand.
        self.pam._insert(self._to_point(rect), rid)
        self.pam._records += 1

    def _extent_bound(self) -> list[float]:
        """Per-axis upper bound on stored half-extents for query boxes."""
        if self.bounded_extents:
            return list(self._max_extent)
        return [0.5] * self.dims

    #: Vectorized counterparts of traverse.SCALAR_PRED, by op tag.
    _KERNELS = {
        "isect": kernels.boxes_intersect,
        "within": kernels.boxes_within,
        "encl": kernels.boxes_enclose,
    }

    def _transformed_query(self, query_box: Rect | None, op: str, query: Rect) -> list[object]:
        """Run one 2d-dim range query, post-filtering with the ``op`` predicate.

        The corner representation needs no filter: each of its query
        boxes is the ``op`` predicate read out per coordinate (see
        :meth:`_query_box`), so the PAM returns exactly the answers.
        """
        if query_box is None:
            return []
        candidates = self.pam._range_query(query_box)
        if self.representation == "corner":
            return [rid for _, rid in candidates]
        if len(candidates) < 2:
            predicate = traverse.SCALAR_PRED[op]
            return [
                rid
                for point, rid in candidates
                if predicate(self._to_rect(point), query)
            ]
        # Vectorized post-filter: undo the transform on the whole candidate
        # set at once.  The arithmetic (c - e, c + e) is the same float64
        # operation as _to_rect, so verdicts are bit-identical to the
        # scalar path.
        d = self.dims
        pts = np.array([point for point, _ in candidates], dtype=float)
        lo = pts[:, :d] - pts[:, d:]
        hi = pts[:, :d] + pts[:, d:]
        mask = self._KERNELS[op](
            lo,
            hi,
            np.asarray(query.lo, dtype=float),
            np.asarray(query.hi, dtype=float),
        )
        return [candidates[i][1] for i in np.nonzero(mask)[0]]

    def _corner_box(self, lo_lo, lo_hi, hi_lo, hi_hi) -> Rect:
        """Box over (lo-part range, hi-part range) in corner space."""
        return Rect(tuple(lo_lo) + tuple(hi_lo), tuple(lo_hi) + tuple(hi_hi))

    def _center_box(self, c_lo, c_hi, e_lo, e_hi) -> Rect | None:
        """Bounding box in center space; ``None`` when provably empty."""

        def clip(value: float) -> float:
            return max(0.0, min(1.0, value))

        lo = tuple(clip(v) for v in c_lo) + tuple(max(0.0, v) for v in e_lo)
        hi = tuple(clip(v) for v in c_hi) + tuple(min(1.0, v) for v in e_hi)
        if any(l > h for l, h in zip(lo, hi)):
            return None
        return Rect(lo, hi)

    def _query_box(self, kind: str, query) -> Rect | None:
        """The transformed 2d-dim query box for one query of type ``kind``.

        ``query`` is a point tuple for ``"point"``, a :class:`Rect`
        otherwise.  Factored out of the query methods so the workload
        registration (:meth:`_workload_rects`) can announce exactly the
        boxes the underlying PAM will scan with.
        """
        zeros = (0.0,) * self.dims
        ones = (1.0,) * self.dims
        if kind == "point":
            point = query
            if self.representation == "corner":
                return self._corner_box(zeros, point, point, ones)
            e = self._extent_bound()
            return self._center_box(
                [p - e[a] for a, p in enumerate(point)],
                [p + e[a] for a, p in enumerate(point)],
                zeros,
                e,
            )
        if kind == "intersection":
            if self.representation == "corner":
                return self._corner_box(zeros, query.hi, query.lo, ones)
            e = self._extent_bound()
            return self._center_box(
                [l - e[a] for a, l in enumerate(query.lo)],
                [h + e[a] for a, h in enumerate(query.hi)],
                zeros,
                e,
            )
        if kind == "containment":
            if self.representation == "corner":
                return self._corner_box(query.lo, query.hi, query.lo, query.hi)
            e = self._extent_bound()
            half = [(h - l) / 2.0 for l, h in zip(query.lo, query.hi)]
            return self._center_box(
                query.lo,
                query.hi,
                (0.0,) * self.dims,
                [min(e[a], half[a]) for a in range(self.dims)],
            )
        if kind == "enclosure":
            if self.representation == "corner":
                return self._corner_box(zeros, query.lo, query.hi, ones)
            e = self._extent_bound()
            half = [(h - l) / 2.0 for l, h in zip(query.lo, query.hi)]
            return self._center_box(
                [h - e[a] for a, h in enumerate(query.hi)],
                [l + e[a] for a, l in enumerate(query.lo)],
                half,
                e,
            )
        raise ValueError(f"unknown query kind {kind!r}")

    def _workload_rects(self, kind: str, queries: Sequence) -> list:
        """The boxes the *underlying PAM* scans with are the transformed
        query boxes, not the raw queries — register those instead."""
        if kind == "point":
            return [
                self._query_box("point", tuple(float(c) for c in p))
                for p in queries
            ]
        return [self._query_box(kind, q) for q in queries]

    def _point_query(self, point: tuple[float, ...]) -> list[object]:
        # contains_point(p) == contains_rect(degenerate box at p), exactly.
        box = self._query_box("point", point)
        return self._transformed_query(box, "encl", Rect.from_point(point))

    def _intersection(self, query: Rect) -> list[object]:
        box = self._query_box("intersection", query)
        return self._transformed_query(box, "isect", query)

    def _containment(self, query: Rect) -> list[object]:
        box = self._query_box("containment", query)
        return self._transformed_query(box, "within", query)

    def _enclosure(self, query: Rect) -> list[object]:
        box = self._query_box("enclosure", query)
        return self._transformed_query(box, "encl", query)