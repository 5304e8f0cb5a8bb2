"""The overlapping-regions technique over PLOP hashing, per [SK 88].

Rectangles are hashed by their **center** into the directory-less PLOP
grid.  Because the scheme has no directory, a query cannot know any
per-bucket bounding boxes; all it can use is arithmetic on the slice
boundaries plus two in-core scalars per axis — the largest extension
ever stored.  A query therefore reads *every bucket whose cell
intersects the query window expanded by the maximum extensions*, then
walks each bucket's full overflow chain.

This is what makes PLOP the loser of the paper's SAM comparison on the
Uniformlarge and Diagonal files: with extensions up to 0.5 the expanded
window degenerates to the whole data space.  It also reproduces the
table detail that PLOP's containment cost *equals* its intersection
cost — both use the same candidate window.
"""

from __future__ import annotations

from repro.core.interfaces import SpatialAccessMethod
from repro.geometry.rect import Rect
from repro.pam.plop import _PlopGrid, snapshot_plop_pages
from repro.storage import layout
from repro.storage.pagestore import PageStore
from repro.query import traverse

__all__ = ["OverlappingPlop"]


class OverlappingPlop(SpatialAccessMethod):
    """PLOP hashing extended to rectangles with overlapping bucket regions."""

    def __init__(self, store: PageStore, dims: int = 2):
        super().__init__(store, dims, layout.rect_record_size(dims))
        capacity = layout.data_page_capacity(self.record_size, store.page_size)
        self._grid = _PlopGrid(
            store, dims, capacity, key_of=lambda record: record[0].center
        )
        #: Largest half-extension stored so far, per axis (in-core).
        self._max_extent = [0.0] * dims

    # -- plumbing ----------------------------------------------------------

    @property
    def record_capacity(self) -> int:
        return self._grid.capacity

    @property
    def directory_height(self) -> int:
        """No directory: bucket addresses are computed arithmetically."""
        return 0

    def _snapshot_pages(self):
        """Uncharged :class:`PageView` walk (see :mod:`repro.obs.structure`).

        Bucket regions overlap the stored rectangles only at their
        centers, so data-page content MBRs (the true bucket extents)
        usually poke outside the slice-product region — that spill is
        the technique's overlap, visible as ``dead_space`` staying 0
        while coverage misses the content.
        """
        yield from snapshot_plop_pages(self._grid)

    # -- operations ------------------------------------------------------------

    def _insert(self, rect: Rect, rid: object) -> None:
        for axis in range(self.dims):
            self._max_extent[axis] = max(
                self._max_extent[axis], (rect.hi[axis] - rect.lo[axis]) / 2.0
            )
        self._grid.insert((rect, rid))

    def _scan_window(self, lo, hi, op: str, query: Rect) -> list[object]:
        """Read every bucket whose cell meets ``[lo, hi]`` and filter."""
        if any(l > h for l, h in zip(lo, hi)):
            return []
        ranges = [
            self._grid.index_range(axis, lo[axis], hi[axis])
            for axis in range(self.dims)
        ]
        if any(r.start >= r.stop for r in ranges):
            return []
        store = self.store
        src = traverse.RowSource(store.columnar, query)
        rowkey = "vrects:" + op
        vtag, vbuild = traverse.VALUES
        occurrences: list = []
        result: list[object] = []
        idx = [r.start for r in ranges]
        # Inlined _PlopGrid.iter_chain_pages — same reads, same order,
        # without a generator resume per chain page (this loop touches
        # every bucket of the expanded window, the technique's hot spot).
        buckets = self._grid.buckets
        read = store.read
        # Hot-page fast path: the expanded windows revisit every bucket,
        # so after promotion nearly all pages answer from the workload's
        # CSR verdicts — probe those directly and only route cold pages
        # through the RowSource (verdicts are the same lists either way).
        workload = src.workload
        hot = workload._rows if workload is not None else None
        qi = workload.index if workload is not None else -1
        while True:
            bucket = buckets.get(tuple(idx))
            for pid in bucket.chain if bucket is not None else ():
                records = read(pid).records
                if not records:
                    continue
                if hot is not None:
                    entry = hot.get((pid, rowkey))
                    if entry is not None:
                        starts, cols = entry
                        s = starts[qi]
                        e = starts[qi + 1]
                        if e > s:
                            occurrences.append((pid, records, cols[s:e].tolist()))
                        continue
                # Read-then-batch: reads stay in the original order;
                # evaluation is deferred into one fused call below.
                src.row(pid, rowkey, op, records, vtag, vbuild)
                occurrences.append((pid, records, None))
            axis = 0
            while axis < self.dims:
                idx[axis] += 1
                if idx[axis] < ranges[axis].stop:
                    break
                idx[axis] = ranges[axis].start
                axis += 1
            if axis == self.dims:
                break
        rows = src.flush()
        for pid, records, row in occurrences:
            if row is None:
                row = rows[(pid, rowkey)]
            result.extend([records[i][1] for i in row])
        return result

    def _expanded(self, query: Rect) -> tuple[list[float], list[float]]:
        lo = [query.lo[a] - self._max_extent[a] for a in range(self.dims)]
        hi = [query.hi[a] + self._max_extent[a] for a in range(self.dims)]
        return lo, hi

    def _point_query(self, point: tuple[float, ...]) -> list[object]:
        # contains_point(p) == contains_rect(degenerate box at p), exactly.
        query = Rect.from_point(point)
        lo, hi = self._expanded(query)
        return self._scan_window(lo, hi, "encl", query)

    def _intersection(self, query: Rect) -> list[object]:
        lo, hi = self._expanded(query)
        return self._scan_window(lo, hi, "isect", query)

    def _containment(self, query: Rect) -> list[object]:
        # The same candidate window as intersection — the reason the
        # paper's PLOP rows show identical intersection and containment
        # costs.
        lo, hi = self._expanded(query)
        return self._scan_window(lo, hi, "within", query)

    def _enclosure(self, query: Rect) -> list[object]:
        # An enclosing rectangle's center must lie within max-extension
        # reach of every side of the query.
        lo = [query.hi[a] - self._max_extent[a] for a in range(self.dims)]
        hi = [query.lo[a] + self._max_extent[a] for a in range(self.dims)]
        return self._scan_window(lo, hi, "encl", query)
