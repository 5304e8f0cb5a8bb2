"""Filter-and-refine polygon indexing over any rectangle SAM (§9).

§6 of the paper: "Although a lot of information is lost, MBRs of spatial
objects preserve the most essential geometric properties of the object"
— every SAM of the comparison indexes minimal bounding rectangles, and a
polygon query runs in two steps:

1. **filter** — the underlying SAM returns the candidates whose MBR
   satisfies the query;
2. **refine** — the candidates' exact geometry is fetched from *object
   pages* (polygons are too large for directory entries) and tested
   exactly; candidates that fail are the *false drops* whose count
   measures the MBR approximation quality.

This is the §9 "further work" step made concrete; the polygon example
compares false-drop rates and access counts across the SAMs.
"""

from __future__ import annotations

from typing import Callable

from repro.core.interfaces import SpatialAccessMethod
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect
from repro.storage import layout
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore

__all__ = ["PolygonIndex"]


class _ObjectPage:
    """An object page holding the exact geometry of a few polygons."""

    __slots__ = ("polygons",)

    def __init__(self) -> None:
        self.polygons: dict[object, ConvexPolygon] = {}


class PolygonIndex:
    """Convex polygons indexed by their MBRs in an underlying SAM.

    Parameters
    ----------
    store:
        The shared page store (the SAM and the object pages both live
        in it, so access counts cover filter *and* refine).
    sam_factory:
        Builds the filter structure, e.g. ``lambda s, dims: RTree(s, dims)``.
    vertex_budget:
        Polygons per object page are computed from this many vertices
        (8 bytes each) plus a record header.
    """

    def __init__(
        self,
        store: PageStore,
        sam_factory: Callable[..., SpatialAccessMethod],
        vertex_budget: int = 16,
    ):
        self.store = store
        self.sam = sam_factory(store, dims=2)
        polygon_bytes = vertex_budget * 2 * layout.COORD_SIZE + layout.POINTER_SIZE
        self._per_page = max(1, layout.directory_page_payload(store.page_size) // polygon_bytes)
        self._object_pages: list[int] = []
        self._page_of: dict[object, int] = {}
        self._count = 0
        #: False drops of the most recent query (refinement failures).
        self.last_false_drops = 0

    def __len__(self) -> int:
        return self._count

    # -- building ---------------------------------------------------------

    def insert(self, polygon: ConvexPolygon, rid: object) -> None:
        """Index one polygon: MBR into the SAM, geometry onto object pages."""
        self.sam.insert(polygon.bounding_rect(), rid)
        if (
            not self._object_pages
            or len(self.store.peek(self._object_pages[-1]).polygons)
            >= self._per_page
        ):
            pid = self.store.allocate(PageKind.DATA, _ObjectPage())
            self._object_pages.append(pid)
        pid = self._object_pages[-1]
        page: _ObjectPage = self.store.read(pid)
        page.polygons[rid] = polygon
        self._page_of[rid] = pid
        self.store.write(pid)
        self._count += 1

    # -- refinement -----------------------------------------------------------

    def _refine(self, candidates: list[object], predicate) -> list[object]:
        hits = []
        self.last_false_drops = 0
        for rid in candidates:
            page: _ObjectPage = self.store.read(self._page_of[rid])
            if predicate(page.polygons[rid]):
                hits.append(rid)
            else:
                self.last_false_drops += 1
        return hits

    # -- queries ------------------------------------------------------------------

    def point_query(self, point: tuple[float, float]) -> list[object]:
        """Polygons that exactly contain ``point``."""
        candidates = self.sam.point_query(point)
        return self._refine(candidates, lambda poly: poly.contains_point(point))

    def window_query(self, window: Rect) -> list[object]:
        """Polygons exactly intersecting the query window."""
        candidates = self.sam.intersection(window)
        return self._refine(candidates, lambda poly: poly.intersects_rect(window))

    def containment_query(self, window: Rect) -> list[object]:
        """Polygons entirely inside the query window.

        MBR containment already implies polygon containment, so this
        query needs no refinement — the rectangle filter is exact.
        """
        self.last_false_drops = 0
        return self.sam.containment(window)
