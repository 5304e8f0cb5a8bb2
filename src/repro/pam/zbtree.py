"""A B+-tree storing z-values [OM 84] (class C4 of the paper's taxonomy).

The paper's classification lists "B+-tree with z-order" as the ancestor
of both the BANG file and the hB-tree but omits it from the measured
comparison.  It is implemented here (a) as the missing class-C4
baseline and (b) as the substrate of the *clipping* spatial access
method (:mod:`repro.sam.clipping`), which stores redundant z-region
decompositions of rectangles — the technique of Orenstein's companion
paper in the same proceedings volume.

:class:`_BPlusTree` is a plain order-preserving B+-tree over arbitrary
sortable keys with chained leaves; :class:`ZOrderBTree` specialises it
to Morton codes of points.
"""

from __future__ import annotations

import bisect
from typing import Iterator

from repro.core.interfaces import PointAccessMethod
from repro.geometry.rect import Rect
from repro.geometry.zorder import decompose_rect, z_interval, z_value
from repro.storage import layout
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore
from repro.query import traverse
from repro.storage.soa import fused_points, soa_field

__all__ = ["ZOrderBTree"]

#: Bits per axis of the Morton codes (32-bit keys in two dimensions).
Z_BITS_PER_AXIS = 16


class _Leaf:
    """A leaf page: sorted ``(key, value)`` pairs plus a next-leaf link."""

    __slots__ = ("keys", "_soa_values", "next_pid")

    values = soa_field()

    def __init__(self) -> None:
        self.keys: list = []
        self.values: list = []
        self.next_pid: int | None = None


class _Inner:
    """An inner page: separator keys and child pids (len(pids) = len(keys)+1)."""

    __slots__ = ("keys", "pids")

    def __init__(self) -> None:
        self.keys: list = []
        self.pids: list[int] = []


class _BPlusTree:
    """A counted-page B+-tree; the root is pinned in main memory."""

    def __init__(self, store: PageStore, leaf_capacity: int, inner_capacity: int):
        if leaf_capacity < 2 or inner_capacity < 3:
            raise ValueError("B+-tree capacities too small")
        self.store = store
        self.leaf_capacity = leaf_capacity
        self.inner_capacity = inner_capacity
        self.root_pid = store.allocate(PageKind.DATA, _Leaf())
        self.root_is_leaf = True
        store.pin(self.root_pid)
        store.write(self.root_pid)
        self.height = 0

    # -- insertion ------------------------------------------------------

    def insert(self, key, value) -> None:
        """Insert one pair; duplicate keys are kept side by side."""
        split = self._insert_into(self.root_pid, self.root_is_leaf, key, value)
        if split is None:
            return
        sep, right_pid = split
        new_root = _Inner()
        new_root.keys = [sep]
        new_root.pids = [self.root_pid, right_pid]
        self.store.unpin(self.root_pid)
        self.root_pid = self.store.allocate(PageKind.DIRECTORY, new_root)
        self.root_is_leaf = False
        self.store.pin(self.root_pid)
        self.store.write(self.root_pid)
        self.height += 1

    def _insert_into(self, pid: int, is_leaf: bool, key, value):
        node = self.store.read(pid)
        if is_leaf:
            pos = bisect.bisect_right(node.keys, key)
            node.keys.insert(pos, key)
            node.values.insert(pos, value)
            self.store.write(pid)
            if len(node.keys) <= self.leaf_capacity:
                return None
            return self._split_leaf(pid, node)
        pos = bisect.bisect_right(node.keys, key)
        child_pid = node.pids[pos]
        child_is_leaf = self.store.kind(child_pid) is PageKind.DATA
        split = self._insert_into(child_pid, child_is_leaf, key, value)
        if split is None:
            return None
        sep, right_pid = split
        node.keys.insert(pos, sep)
        node.pids.insert(pos + 1, right_pid)
        self.store.write(pid)
        if len(node.pids) <= self.inner_capacity:
            return None
        return self._split_inner(pid, node)

    def _split_leaf(self, pid: int, node: _Leaf):
        # Never cut through a run of equal keys: lookups assume all
        # duplicates of a key sit in one contiguous chain starting at the
        # leaf the separators route to.
        mid = len(node.keys) // 2
        while mid < len(node.keys) and node.keys[mid] == node.keys[mid - 1]:
            mid += 1
        if mid == len(node.keys):
            mid = len(node.keys) // 2
            while mid > 0 and node.keys[mid] == node.keys[mid - 1]:
                mid -= 1
        if mid == 0:
            return None  # every key equal: tolerate the oversized leaf
        right = _Leaf()
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        right.next_pid = node.next_pid
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        right_pid = self.store.allocate(PageKind.DATA, right)
        node.next_pid = right_pid
        self.store.write(pid)
        self.store.write(right_pid)
        return right.keys[0], right_pid

    def _split_inner(self, pid: int, node: _Inner):
        mid = len(node.pids) // 2
        sep = node.keys[mid - 1]
        right = _Inner()
        right.keys = node.keys[mid:]
        right.pids = node.pids[mid:]
        node.keys = node.keys[: mid - 1]
        node.pids = node.pids[:mid]
        right_pid = self.store.allocate(PageKind.DIRECTORY, right)
        self.store.write(pid)
        self.store.write(right_pid)
        return sep, right_pid

    # -- scans ------------------------------------------------------------

    def _leaf_for(self, key) -> int:
        pid, is_leaf = self.root_pid, self.root_is_leaf
        while not is_leaf:
            node: _Inner = self.store.read(pid)
            pos = bisect.bisect_right(node.keys, key)
            pid = node.pids[pos]
            is_leaf = self.store.kind(pid) is PageKind.DATA
        return pid

    def scan_pages(self, lo, hi) -> Iterator[tuple]:
        """Yield ``(pid, leaf, start, stop)`` chunks with ``lo <= key < hi``.

        Page-granular form of :meth:`scan` for the vectorized scan
        helpers: the same leaves are read in the same order — the chain
        walk stops at the first leaf holding a key ``>= hi`` (that leaf
        is still read, exactly as the item-wise scan did).
        """
        pid = self._leaf_for(lo)
        while pid is not None:
            leaf: _Leaf = self.store.read(pid)
            start = bisect.bisect_left(leaf.keys, lo)
            stop = bisect.bisect_left(leaf.keys, hi, start)
            yield pid, leaf, start, stop
            if stop < len(leaf.keys):
                return
            pid = leaf.next_pid

    def scan(self, lo, hi) -> Iterator[tuple]:
        """Yield ``(key, value)`` pairs with ``lo <= key < hi``."""
        for _, leaf, start, stop in self.scan_pages(lo, hi):
            yield from zip(leaf.keys[start:stop], leaf.values[start:stop])

    def lookup(self, key) -> list:
        """Values stored under exactly ``key``."""
        pid = self._leaf_for(key)
        out = []
        while pid is not None:
            leaf: _Leaf = self.store.read(pid)
            start = bisect.bisect_left(leaf.keys, key)
            if start == len(leaf.keys):
                pid = leaf.next_pid
                continue
            for k, value in zip(leaf.keys[start:], leaf.values[start:]):
                if k != key:
                    return out
                out.append(value)
            pid = leaf.next_pid
        return out


def snapshot_bplus_pages(tree: _BPlusTree):
    """Uncharged :class:`~repro.obs.structure.PageView` walk of a B+-tree.

    Shared by every structure built on :class:`_BPlusTree` (the z-order
    PAM and the clipping SAM).  B+-tree pages have no geometric regions;
    a leaf's entries are its values, the ``(key, rid)`` records stored
    under its z-value keys.
    """
    from repro.obs.structure import PageView

    queue: list[tuple[int, bool, int]] = [(tree.root_pid, tree.root_is_leaf, 0)]
    i = 0
    while i < len(queue):
        pid, is_leaf, depth = queue[i]
        i += 1
        if is_leaf:
            leaf: _Leaf = tree.store.peek(pid)
            yield PageView.data(pid, depth, (), tree.leaf_capacity, leaf.values)
            continue
        node: _Inner = tree.store.peek(pid)
        yield PageView(
            pid=pid,
            kind="directory",
            depth=depth,
            regions=(),
            records=len(node.pids),
            capacity=tree.inner_capacity,
            children=tuple(node.pids),
        )
        for child in node.pids:
            child_is_leaf = tree.store.kind(child) is PageKind.DATA
            queue.append((child, child_is_leaf, depth + 1))


class ZOrderBTree(PointAccessMethod):
    """Points stored under their Morton codes in a B+-tree.

    Range queries decompose the query rectangle into z-regions and scan
    the corresponding key intervals; precision is controlled by
    ``query_regions`` (more regions = fewer false leaf reads, more
    descents).
    """

    def __init__(self, store: PageStore, dims: int = 2, query_regions: int = 8):
        super().__init__(store, dims, layout.point_record_size(dims))
        self.query_regions = query_regions
        record_size = 4 + dims * layout.COORD_SIZE + layout.POINTER_SIZE
        inner_entry = 4 + layout.POINTER_SIZE
        self._tree = _BPlusTree(
            store,
            leaf_capacity=layout.data_page_capacity(record_size, store.page_size),
            inner_capacity=layout.directory_page_payload(store.page_size)
            // inner_entry,
        )

    @property
    def record_capacity(self) -> int:
        return self._tree.leaf_capacity

    @property
    def directory_height(self) -> int:
        return self._tree.height

    def _snapshot_pages(self):
        """Uncharged :class:`PageView` walk (see :mod:`repro.obs.structure`)."""
        yield from snapshot_bplus_pages(self._tree)

    def _z(self, point: tuple[float, ...]) -> int:
        return z_value(point, self.dims, Z_BITS_PER_AXIS)

    def _insert(self, point: tuple[float, ...], rid: object) -> None:
        self._tree.insert(self._z(point), (point, rid))

    def _range_query(self, rect: Rect) -> list[tuple[tuple[float, ...], object]]:
        store = self.store
        max_depth = min(self.dims * Z_BITS_PER_AXIS, 20)
        regions = decompose_rect(rect, self.dims, self.query_regions, max_depth)
        # Read-then-batch: the z-interval leaf scans charge their reads in
        # the original order while only *collecting* (page, slice) visits;
        # all cold pages then share one fused kernel call, and the hit
        # rows are sliced per visit afterwards.
        src = traverse.RowSource(store.columnar, rect)
        row_of = src.row
        visits: list[tuple[int, list, int, int]] = []
        for bits in regions:
            lo, hi = z_interval(bits, self.dims, Z_BITS_PER_AXIS)
            for pid, leaf, start, stop in self._tree.scan_pages(lo, hi):
                values = leaf.values
                if not values:
                    continue
                row_of(pid, "pts", "pts", values, "pts", fused_points)
                visits.append((pid, values, start, stop))
        rows = src.flush()
        result = []
        for pid, values, start, stop in visits:
            row = rows[(pid, "pts")]
            if start or stop != len(values):
                result.extend([values[i] for i in row if start <= i < stop])
            else:
                result.extend([values[i] for i in row])
        return result

    def _exact_match(self, point: tuple[float, ...]) -> list[object]:
        return [
            rid for p, rid in self._tree.lookup(self._z(point)) if p == point
        ]
