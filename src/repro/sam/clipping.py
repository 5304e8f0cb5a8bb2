"""The clipping technique: redundant z-region decomposition.

Each rectangle is decomposed into at most ``redundancy`` z-regions
(binary-partition blocks) that jointly cover it; every region is stored
as one entry of a B+-tree keyed by ``(z-interval start, depth)``.  An
object therefore appears up to ``redundancy`` times in the file — the
price of clipping — but queries touch tighter key ranges the finer the
decomposition is.  This storage/retrieval trade-off is precisely the
subject of Orenstein's *"Redundancy in Spatial Databases"* strategy
paper in the same proceedings volume, and the redundancy ablation bench
sweeps it.

Queries translate to leaf-range scans for the query's own z-regions
plus exact probes for their ancestor blocks (a stored coarse region
covering the query area starts *before* the scanned interval and would
otherwise be missed).
"""

from __future__ import annotations

from repro.core.interfaces import SpatialAccessMethod
from repro.geometry.blocks import Bits
from repro.geometry.rect import Rect
from repro.geometry.zorder import decompose_rect, z_interval
from repro.pam.zbtree import _BPlusTree, snapshot_bplus_pages
from repro.storage import layout
from repro.storage.pagestore import PageStore
from repro.query import traverse

__all__ = ["ClippingSAM"]

#: Bits per axis of the Morton keys.
_Z_BITS = 16

#: Maximum depth of decomposition blocks.
_MAX_DEPTH = 16


class ClippingSAM(SpatialAccessMethod):
    """Rectangles clipped into z-regions stored in a B+-tree.

    Parameters
    ----------
    redundancy:
        Maximum number of z-regions one rectangle decomposes into.
        ``1`` stores each object once under its minimal enclosing block
        (no redundancy, coarse keys); larger values trade storage for
        query precision.
    """

    def __init__(self, store: PageStore, dims: int = 2, redundancy: int = 4):
        super().__init__(store, dims, layout.rect_record_size(dims))
        if redundancy < 1:
            raise ValueError("redundancy must be at least 1")
        self.redundancy = redundancy
        # Leaf entry: z-start (4) + depth (2) + rectangle + rid.
        record_size = 6 + self.record_size
        inner_entry = 6 + layout.POINTER_SIZE
        self._tree = _BPlusTree(
            store,
            leaf_capacity=layout.data_page_capacity(record_size, store.page_size),
            inner_capacity=layout.directory_page_payload(store.page_size)
            // inner_entry,
        )
        self._region_entries = 0

    # -- plumbing ---------------------------------------------------------

    @property
    def record_capacity(self) -> int:
        return self._tree.leaf_capacity

    @property
    def directory_height(self) -> int:
        return self._tree.height

    @property
    def stored_regions(self) -> int:
        """Total region entries; ``stored_regions / len(self)`` is the
        achieved redundancy factor."""
        return self._region_entries

    def iter_records(self):
        """One ``(rect, rid)`` per distinct rid of the shared walk
        (each rid is stored under up to ``redundancy`` z-region keys)."""
        seen: set[object] = set()
        for rect, rid in super().iter_records():
            if rid not in seen:
                seen.add(rid)
                yield rect, rid

    def _snapshot_pages(self):
        """Uncharged :class:`PageView` walk (see :mod:`repro.obs.structure`).

        Leaf entry counts include every redundant z-region copy, so the
        snapshot's ``duplication_factor`` reports the achieved clipping
        redundancy directly.
        """
        yield from snapshot_bplus_pages(self._tree)

    def metrics(self):
        """Slot utilisation counts region entries (objects are redundant)."""
        from dataclasses import replace

        base = super().metrics()
        slots = base.data_pages * self.record_capacity
        stor = 100.0 * self._region_entries / slots if slots else 0.0
        return replace(base, storage_utilization=stor)

    # -- operations -------------------------------------------------------------

    def _key(self, bits: Bits) -> tuple[int, int]:
        lo, _ = z_interval(bits, self.dims, _Z_BITS)
        return (lo, len(bits))

    def _insert(self, rect: Rect, rid: object) -> None:
        regions = decompose_rect(rect, self.dims, self.redundancy, _MAX_DEPTH)
        for bits in regions:
            self._tree.insert(self._key(bits), (rect, rid))
            self._region_entries += 1

    def _query(self, query: Rect, op: str) -> list[object]:
        """Scan the query's z-regions and probe their ancestors."""
        query_regions = decompose_rect(query, self.dims, 8, _MAX_DEPTH)
        src = traverse.RowSource(self.store.columnar, query)
        rowkey = "vrects:" + op
        vtag, vbuild = traverse.VALUES
        # The pass below only *charges* the reads (in the original
        # interleaved scan/probe order) and records an action log;
        # evaluation of all cold pages happens in one fused kernel call
        # afterwards, and the log replays the first-seen dedup in the
        # scalar order.
        actions: list = []
        probed: set[Bits] = set()
        for bits in query_regions:
            lo, hi = z_interval(bits, self.dims, _Z_BITS)
            for pid, leaf, start, stop in self._tree.scan_pages((lo, 0), (hi, 0)):
                values = leaf.values
                if not values:
                    continue
                src.row(pid, rowkey, op, values, vtag, vbuild)
                actions.append((pid, values, start, stop))
            # Ancestor blocks start before `lo`; probe each exactly once.
            for depth in range(len(bits)):
                ancestor = bits[:depth]
                if ancestor in probed:
                    continue
                probed.add(ancestor)
                items = self._tree.lookup(self._key(ancestor))
                if items:
                    actions.append((None, items, 0, 0))
        rows = src.flush()
        seen: set[int] = set()
        result: list[object] = []
        predicate = traverse.SCALAR_PRED[op]
        for pid, values, start, stop in actions:
            if pid is None:
                # Ancestor probe: few entries, scalar predicate as before.
                for rect, rid in values:
                    if rid not in seen and predicate(rect, query):
                        seen.add(rid)
                        result.append(rid)
                continue
            row = rows[(pid, rowkey)]
            if start or stop != len(values):
                row = [i for i in row if start <= i < stop]
            # The kernel already applied the predicate; only the
            # first-seen dedup remains.
            for i in row:
                rid = values[i][1]
                if rid not in seen:
                    seen.add(rid)
                    result.append(rid)
        return result

    def _point_query(self, point: tuple[float, ...]) -> list[object]:
        # contains_point(p) == contains_rect(degenerate box at p), exactly.
        return self._query(Rect.from_point(point), "encl")

    def _intersection(self, query: Rect) -> list[object]:
        return self._query(query, "isect")

    def _containment(self, query: Rect) -> list[object]:
        return self._query(query, "within")

    def _enclosure(self, query: Rect) -> list[object]:
        return self._query(query, "encl")
