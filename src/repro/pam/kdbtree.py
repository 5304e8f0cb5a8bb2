"""The k-d-B tree [Rob 81] — class C1 of the paper's taxonomy.

Robinson's k-d-B tree is the classic member of the paper's class C1
(rectangular, complete, disjoint regions): a balanced tree whose region
pages partition their region into disjoint rectangles that *span it
completely* — so, unlike the BUDDY tree, empty data space is always
partitioned.  Its signature mechanism is the **forced split**: when a
region page splits by a hyperplane, every child region crossing the
plane must be split recursively all the way down to the point pages,
which is what keeps the tree perfectly balanced at the price of
storage utilisation.

The paper's comparison leaves the k-d-B tree out in favour of the newer
C1 structures; it is implemented here as the missing classic baseline
and takes part in the integration test matrix.
"""

from __future__ import annotations

from repro.core.interfaces import PointAccessMethod
from repro.geometry.rect import Rect
from repro.storage import layout
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore
from repro.query import traverse
from repro.storage.soa import fused_points, soa_field

__all__ = ["KdBTree"]


class _PointPage:
    """A leaf: records of one rectangular region (struct-of-arrays)."""

    __slots__ = ("_soa_records",)

    records = soa_field()

    def __init__(self, records=None):
        self.records: list[tuple[tuple[float, ...], object]] = records or []


class _RegionPage:
    """An inner page: child regions partitioning this page's region."""

    __slots__ = ("_soa_rects", "pids", "leaf_children")

    rects = soa_field()

    def __init__(self, rects=None, pids=None, leaf_children=True):
        self.rects: list[Rect] = rects or []
        self.pids: list[int] = pids or []
        self.leaf_children = leaf_children


class KdBTree(PointAccessMethod):
    """Robinson's k-d-B tree."""

    def __init__(self, store: PageStore, dims: int = 2):
        super().__init__(store, dims, layout.point_record_size(dims))
        self._capacity = layout.data_page_capacity(self.record_size, store.page_size)
        entry_size = 2 * dims * layout.COORD_SIZE + layout.POINTER_SIZE
        self._fanout = layout.directory_page_payload(store.page_size) // entry_size
        self._root_pid = store.allocate(PageKind.DATA, _PointPage())
        self._root_is_leaf = True
        store.pin(self._root_pid)
        store.write(self._root_pid)
        self._height = 0

    # -- plumbing ---------------------------------------------------------

    @property
    def record_capacity(self) -> int:
        return self._capacity

    @property
    def directory_height(self) -> int:
        """Region-page levels above the point pages (uniform: balanced)."""
        return self._height

    def _snapshot_pages(self):
        """Uncharged :class:`PageView` walk (see :mod:`repro.obs.structure`)."""
        from repro.obs.structure import PageView

        queue: list[tuple[int, bool, Rect, int]] = [
            (self._root_pid, self._root_is_leaf, Rect.unit(self.dims), 0)
        ]
        i = 0
        while i < len(queue):
            pid, is_leaf, region, depth = queue[i]
            i += 1
            if is_leaf:
                page: _PointPage = self.store.peek(pid)
                yield PageView.data(pid, depth, (region,), self._capacity, page.records)
                continue
            node: _RegionPage = self.store.peek(pid)
            yield PageView(
                pid=pid,
                kind="directory",
                depth=depth,
                regions=(region,),
                records=len(node.pids),
                capacity=self._fanout,
                children=tuple(node.pids),
                entry_regions=tuple(node.rects),
            )
            for rect, child in zip(node.rects, node.pids):
                queue.append((child, node.leaf_children, rect, depth + 1))

    @staticmethod
    def _region_contains(rect: Rect, point: tuple[float, ...]) -> bool:
        """Half-open containment so that sibling regions never tie."""
        for lo, c, hi in zip(rect.lo, point, rect.hi):
            if c < lo:
                return False
            if c >= hi and hi != 1.0:
                return False
            if c > hi:
                return False
        return True

    # -- insertion ------------------------------------------------------------

    def _insert(self, point: tuple[float, ...], rid: object) -> None:
        if self._root_is_leaf:
            page: _PointPage = self.store.read(self._root_pid)
            page.records.append((point, rid))
            if len(page.records) > self._capacity:
                self._split_root_leaf(page)
            else:
                self.store.write(self._root_pid)
            return
        split = self._insert_into(self._root_pid, False, point, rid)
        if split is None:
            return
        _, left, right = split
        self._grow_root(left, right, leaf_children=False)

    def _split_root_leaf(self, page: _PointPage) -> None:
        plane = self._choose_point_plane(page.records, Rect.unit(self.dims))
        if plane is None:
            self.store.write(self._root_pid)
            return
        axis, value = plane
        left_rect, right_rect = Rect.unit(self.dims).split_at(axis, value)
        right = _PointPage([r for r in page.records if r[0][axis] >= value])
        page.records = [r for r in page.records if r[0][axis] < value]
        right_pid = self.store.allocate(PageKind.DATA, right)
        left_pid = self._root_pid
        self.store.unpin(left_pid)
        self.store.write(left_pid)
        self.store.write(right_pid)
        self._root_is_leaf = False
        self._grow_root(
            (left_rect, left_pid), (right_rect, right_pid), leaf_children=True
        )

    def _grow_root(self, left, right, leaf_children: bool) -> None:
        root = _RegionPage(
            rects=[left[0], right[0]],
            pids=[left[1], right[1]],
            leaf_children=leaf_children,
        )
        self.store.unpin(self._root_pid)  # idempotent; the old root pays again
        self._root_pid = self.store.allocate(PageKind.DIRECTORY, root)
        self.store.pin(self._root_pid)
        self.store.write(self._root_pid)
        self._height += 1

    def _insert_into(self, pid: int, is_leaf: bool, point, rid):
        """Insert below ``pid``; on overflow return (plane, (rect, pid), (rect, pid)).

        The returned rectangles are the two halves of the page's region;
        the caller replaces its entry by the pair.
        """
        if is_leaf:
            # Point pages never split themselves: the parent owns their
            # region rectangle and performs the split.
            page: _PointPage = self.store.read(pid)
            page.records.append((point, rid))
            self.store.write(pid)
            return None
        node: _RegionPage = self.store.read(pid)
        slot = next(
            i
            for i, r in enumerate(node.rects)
            if self._region_contains(r, point)
        )
        child_pid = node.pids[slot]
        child_split = self._insert_into(child_pid, node.leaf_children, point, rid)
        if node.leaf_children:
            child: _PointPage = self.store.held(child_pid)
            if len(child.records) > self._capacity:
                self._split_child(node, slot)
        elif child_split is not None:
            _, left, right = child_split
            node.rects[slot] = left[0]
            node.pids[slot] = left[1]
            node.rects.insert(slot + 1, right[0])
            node.pids.insert(slot + 1, right[1])
        self.store.write(pid)
        if len(node.pids) <= self._fanout:
            return None
        return self._split_region_page(pid, node)

    def _split_child(self, node: _RegionPage, slot: int) -> None:
        """Split an overflowing point page under ``node`` by a median plane."""
        pid = node.pids[slot]
        region = node.rects[slot]
        page: _PointPage = self.store.held(pid)
        plane = self._choose_point_plane(page.records, region)
        if plane is None:
            self.store.write(pid)
            return
        axis, value = plane
        left_rect, right_rect = region.split_at(axis, value)
        right = _PointPage([r for r in page.records if r[0][axis] >= value])
        page.records = [r for r in page.records if r[0][axis] < value]
        right_pid = self.store.allocate(PageKind.DATA, right)
        node.rects[slot] = left_rect
        node.pids[slot] = pid
        node.rects.insert(slot + 1, right_rect)
        node.pids.insert(slot + 1, right_pid)
        self.store.write(pid)
        self.store.write(right_pid)

    def _choose_point_plane(self, records, region: Rect):
        """Median plane on the axis with the largest point spread."""
        best = None
        best_spread = -1.0
        for axis in range(self.dims):
            coords = sorted(p[axis] for p, _ in records)
            median = coords[len(coords) // 2]
            if not region.lo[axis] < median < region.hi[axis]:
                continue
            if median == coords[0]:
                continue
            spread = coords[-1] - coords[0]
            if spread > best_spread:
                best_spread = spread
                best = (axis, median)
        return best

    def _split_region_page(self, pid: int, node: _RegionPage):
        """Split a region page, force-splitting children that cross the plane."""
        region = Rect.bounding(node.rects)
        axis, value = self._choose_region_plane(node)
        left_rect, right_rect = region.split_at(axis, value)
        left = _RegionPage(leaf_children=node.leaf_children)
        right = _RegionPage(leaf_children=node.leaf_children)
        for rect, child in zip(node.rects, node.pids):
            if rect.hi[axis] <= value:
                left.rects.append(rect)
                left.pids.append(child)
            elif rect.lo[axis] >= value:
                right.rects.append(rect)
                right.pids.append(child)
            else:
                l_rect, r_rect = rect.split_at(axis, value)
                l_pid, r_pid = self._force_split(
                    child, node.leaf_children, axis, value
                )
                left.rects.append(l_rect)
                left.pids.append(l_pid)
                right.rects.append(r_rect)
                right.pids.append(r_pid)
        # Reuse the split page for the left half.
        node.rects, node.pids = left.rects, left.pids
        right_pid = self.store.allocate(PageKind.DIRECTORY, right)
        self.store.write(pid)
        self.store.write(right_pid)
        return (axis, value), (left_rect, pid), (right_rect, right_pid)

    def _choose_region_plane(self, node: _RegionPage) -> tuple[int, float]:
        """The child boundary minimising forced splits, ties by balance."""
        region = Rect.bounding(node.rects)
        best = None
        best_key = None
        for axis in range(self.dims):
            candidates = set()
            for rect in node.rects:
                for v in (rect.lo[axis], rect.hi[axis]):
                    if region.lo[axis] < v < region.hi[axis]:
                        candidates.add(v)
            for value in candidates:
                forced = sum(
                    1 for r in node.rects if r.lo[axis] < value < r.hi[axis]
                )
                left = sum(1 for r in node.rects if r.hi[axis] <= value)
                right = sum(1 for r in node.rects if r.lo[axis] >= value)
                key = (forced, abs(left - right))
                if best_key is None or key < best_key:
                    best_key = key
                    best = (axis, value)
        if best is None:
            raise RuntimeError("region page with a single child region overflowed")
        return best

    def _force_split(self, pid: int, is_leaf: bool, axis: int, value: float):
        """Split the subtree under ``pid`` by the plane — the k-d-B forced split."""
        if is_leaf:
            page: _PointPage = self.store.read(pid)
            right = _PointPage([r for r in page.records if r[0][axis] >= value])
            page.records = [r for r in page.records if r[0][axis] < value]
            right_pid = self.store.allocate(PageKind.DATA, right)
            self.store.write(pid)
            self.store.write(right_pid)
            return pid, right_pid
        node: _RegionPage = self.store.read(pid)
        left = _RegionPage(leaf_children=node.leaf_children)
        right = _RegionPage(leaf_children=node.leaf_children)
        for rect, child in zip(node.rects, node.pids):
            if rect.hi[axis] <= value:
                left.rects.append(rect)
                left.pids.append(child)
            elif rect.lo[axis] >= value:
                right.rects.append(rect)
                right.pids.append(child)
            else:
                l_rect, r_rect = rect.split_at(axis, value)
                l_pid, r_pid = self._force_split(
                    child, node.leaf_children, axis, value
                )
                left.rects.append(l_rect)
                left.pids.append(l_pid)
                right.rects.append(r_rect)
                right.pids.append(r_pid)
        node.rects, node.pids = left.rects, left.pids
        right_pid = self.store.allocate(PageKind.DIRECTORY, right)
        self.store.write(pid)
        self.store.write(right_pid)
        return pid, right_pid

    # -- queries ----------------------------------------------------------------------

    def _range_query(self, rect: Rect) -> list[tuple[tuple[float, ...], object]]:
        store = self.store
        # One charged descent (see repro.query.traverse).
        read = store.read
        hits = traverse.RowSource(store.columnar, rect).hits
        region_tag, region_build = traverse.BOXES
        result: list[tuple[tuple[float, ...], object]] = []
        stack = [(self._root_pid, self._root_is_leaf)]
        while stack:
            pid, is_leaf = stack.pop()
            if is_leaf:
                records = read(pid).records
                if records:
                    row = hits(pid, "pts", "pts", records, "pts", fused_points)
                    result.extend([records[i] for i in row])
                continue
            node = read(pid)
            if node.rects:
                row = hits(
                    pid, "regions:isect", "isect", node.rects, region_tag, region_build
                )
                pids = node.pids
                leaf = node.leaf_children
                stack.extend([(pids[i], leaf) for i in row])
        return result

    def _exact_match(self, point: tuple[float, ...]) -> list[object]:
        pid, is_leaf = self._root_pid, self._root_is_leaf
        while not is_leaf:
            node: _RegionPage = self.store.read(pid)
            slot = next(
                i
                for i, r in enumerate(node.rects)
                if self._region_contains(r, point)
            )
            pid, is_leaf = node.pids[slot], node.leaf_children
        page: _PointPage = self.store.read(pid)
        return [rid for p, rid in page.records if p == point]
