"""The R+-tree [SFR 87]: clipping applied to the R-tree.

The paper cites Sellis, Roussopoulos & Faloutsos to explain why R-tree
"retrieval performance heavily depends on the amount of overlap": the
R+-tree removes that overlap by force.  Inner regions are *disjoint*
and partition their parent region completely; a data rectangle crossing
a region boundary is stored in **every** leaf it intersects (redundant,
like any clipping scheme), and a region split forces the children
crossing the split plane to split as well, exactly as in the k-d-B
tree.

Point queries therefore follow a single path — the R+-tree's selling
point — while insertions pay for redundancy and splits can cascade.
Leaves whose rectangles cannot be separated by any plane keep a
tolerated overflow (the structure's known weakness).
"""

from __future__ import annotations

from repro.core.interfaces import SpatialAccessMethod
from repro.geometry.rect import Rect
from repro.storage import layout
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore
from repro.query import traverse
from repro.storage.soa import soa_field

__all__ = ["RPlusTree"]


class _Leaf:
    """A leaf page: data rectangles of one disjoint region (clipped in)."""

    __slots__ = ("_soa_rects", "rids")

    rects = soa_field()

    def __init__(self, rects=None, rids=None):
        self.rects: list[Rect] = rects or []
        self.rids: list[object] = rids or []


class _Inner:
    """An inner page: child regions partitioning this page's region."""

    __slots__ = ("_soa_regions", "pids", "leaf_children")

    regions = soa_field()

    def __init__(self, regions=None, pids=None, leaf_children=True):
        self.regions: list[Rect] = regions or []
        self.pids: list[int] = pids or []
        self.leaf_children = leaf_children


class RPlusTree(SpatialAccessMethod):
    """An R+-tree storing axis-parallel rectangles with clipping."""

    def __init__(self, store: PageStore, dims: int = 2):
        super().__init__(store, dims, layout.rect_record_size(dims))
        self._capacity = layout.data_page_capacity(self.record_size, store.page_size)
        entry_size = 2 * dims * layout.COORD_SIZE + layout.POINTER_SIZE
        self._fanout = layout.directory_page_payload(store.page_size) // entry_size
        self._root_pid = store.allocate(PageKind.DATA, _Leaf())
        self._root_is_leaf = True
        store.pin(self._root_pid)
        store.write(self._root_pid)
        self._height = 0

    # -- plumbing -----------------------------------------------------------

    @property
    def record_capacity(self) -> int:
        return self._capacity

    @property
    def directory_height(self) -> int:
        return self._height

    def iter_records(self):
        """One ``(rect, rid)`` per distinct rid of the shared walk
        (clipping stores a rid in every leaf its rectangle meets)."""
        seen: set[object] = set()
        for rect, rid in super().iter_records():
            if rid not in seen:
                seen.add(rid)
                yield rect, rid

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
                leaf: _Leaf = self.store.peek(pid)
                yield PageView.data(
                    pid,
                    depth,
                    (region,),
                    self._capacity,
                    list(zip(leaf.rects, leaf.rids)),
                )
                continue
            node: _Inner = self.store.peek(pid)
            yield PageView(
                pid=pid,
                kind="directory",
                depth=depth,
                regions=(region,),
                records=len(node.pids),
                capacity=self._fanout,
                children=tuple(node.pids),
                entry_regions=tuple(node.regions),
            )
            for child_region, child in zip(node.regions, node.pids):
                queue.append((child, node.leaf_children, child_region, depth + 1))

    # -- insertion -----------------------------------------------------------------

    def _insert(self, rect: Rect, rid: object) -> None:
        if self._root_is_leaf:
            leaf: _Leaf = self.store.read(self._root_pid)
            leaf.rects.append(rect)
            leaf.rids.append(rid)
            if len(leaf.rects) > self._capacity:
                self._split_root_leaf(leaf)
            else:
                self.store.write(self._root_pid)
            return
        split = self._insert_into(self._root_pid, Rect.unit(self.dims), rect, rid)
        if split is not None:
            self._grow_root(*split)

    def _insert_into(self, pid: int, region: Rect, rect: Rect, rid: object):
        """Insert into every child whose region meets ``rect``; handle splits."""
        node: _Inner = self.store.read(pid)
        slot = 0
        while slot < len(node.pids):
            child_region = node.regions[slot]
            if not child_region.intersects(rect):
                slot += 1
                continue
            child_pid = node.pids[slot]
            if node.leaf_children:
                leaf: _Leaf = self.store.read(child_pid)
                leaf.rects.append(rect)
                leaf.rids.append(rid)
                self.store.write(child_pid)
                if len(leaf.rects) > self._capacity and self._split_leaf_under(
                    node, slot
                ):
                    slot += 1  # the new sibling already received the rect
            else:
                child_split = self._insert_into(child_pid, child_region, rect, rid)
                if child_split is not None:
                    left, right = child_split
                    node.regions[slot] = left[0]
                    node.pids[slot] = left[1]
                    node.regions.insert(slot + 1, right[0])
                    node.pids.insert(slot + 1, right[1])
                    slot += 1  # the split subtree already holds the rect
            slot += 1
        self.store.write(pid)
        if len(node.pids) <= self._fanout:
            return None
        return self._split_inner(pid, node, region)

    def _split_root_leaf(self, leaf: _Leaf) -> None:
        plane = self._choose_leaf_plane(leaf, Rect.unit(self.dims))
        if plane is None:
            self.store.write(self._root_pid)
            return
        axis, value = plane
        left_rect, right_rect = Rect.unit(self.dims).split_at(axis, value)
        left, right = self._distribute(leaf, axis, value)
        leaf.rects, leaf.rids = left.rects, left.rids
        right_pid = self.store.allocate(PageKind.DATA, right)
        self.store.unpin(self._root_pid)
        self.store.write(self._root_pid)
        self.store.write(right_pid)
        self._root_is_leaf = False
        self._grow_root((left_rect, self._root_pid), (right_rect, right_pid), True)

    def _grow_root(self, left, right, leaf_children=False) -> None:
        root = _Inner(
            regions=[left[0], right[0]],
            pids=[left[1], right[1]],
            leaf_children=leaf_children,
        )
        self.store.unpin(self._root_pid)
        self._root_pid = self.store.allocate(PageKind.DIRECTORY, root)
        self.store.pin(self._root_pid)
        self.store.write(self._root_pid)
        self._height += 1

    def _distribute(self, leaf: _Leaf, axis: int, value: float):
        """Clip a leaf's entries at the plane; crossers go to both sides."""
        left, right = _Leaf(), _Leaf()
        for rect, rid in zip(leaf.rects, leaf.rids):
            if rect.hi[axis] <= value and rect.lo[axis] < value:
                left.rects.append(rect)
                left.rids.append(rid)
            elif rect.lo[axis] >= value or (
                rect.hi[axis] == value == rect.lo[axis]
            ):
                right.rects.append(rect)
                right.rids.append(rid)
            else:
                left.rects.append(rect)
                left.rids.append(rid)
                right.rects.append(rect)
                right.rids.append(rid)
        return left, right

    def _choose_leaf_plane(self, leaf: _Leaf, region: Rect):
        """Plane minimising clipped entries, ties by balance."""
        best = None
        best_key = None
        for axis in range(self.dims):
            candidates = set()
            for rect in leaf.rects:
                for v in (rect.lo[axis], rect.hi[axis]):
                    if region.lo[axis] < v < region.hi[axis]:
                        candidates.add(v)
            mid = (region.lo[axis] + region.hi[axis]) / 2.0
            candidates.add(mid)
            for value in candidates:
                crossing = sum(
                    1 for r in leaf.rects if r.lo[axis] < value < r.hi[axis]
                )
                left = sum(1 for r in leaf.rects if r.hi[axis] <= value)
                right = len(leaf.rects) - left - crossing
                if left + crossing > self._capacity or right + crossing > self._capacity:
                    continue  # the split would not relieve the overflow
                key = (crossing, abs(left - right))
                if best_key is None or key < best_key:
                    best_key = key
                    best = (axis, value)
        return best

    def _split_leaf_under(self, node: _Inner, slot: int) -> bool:
        pid = node.pids[slot]
        region = node.regions[slot]
        leaf: _Leaf = self.store.held(pid)
        plane = self._choose_leaf_plane(leaf, region)
        if plane is None:
            return False  # unsplittable: tolerated overflow, the R+-tree caveat
        axis, value = plane
        left_region, right_region = region.split_at(axis, value)
        left, right = self._distribute(leaf, axis, value)
        leaf.rects, leaf.rids = left.rects, left.rids
        right_pid = self.store.allocate(PageKind.DATA, right)
        node.regions[slot] = left_region
        node.regions.insert(slot + 1, right_region)
        node.pids.insert(slot + 1, right_pid)
        self.store.write(pid)
        self.store.write(right_pid)
        return True

    def _split_inner(self, pid: int, node: _Inner, region: Rect):
        """Split an inner page, force-splitting crossing children."""
        axis, value = self._choose_inner_plane(node, region)
        left_region, right_region = region.split_at(axis, value)
        right_pid = self._split_inner_at(pid, node, axis, value)
        return (left_region, pid), (right_region, right_pid)

    def _split_inner_at(
        self, pid: int, node: _Inner, axis: int, value: float
    ) -> int:
        """Split the already-held inner ``node`` at the plane; crossing
        children are force-split.  ``node`` keeps the left half, and the
        right half's new page id is returned."""
        left = _Inner(leaf_children=node.leaf_children)
        right = _Inner(leaf_children=node.leaf_children)
        for child_region, child_pid in zip(node.regions, node.pids):
            if child_region.hi[axis] <= value:
                left.regions.append(child_region)
                left.pids.append(child_pid)
            elif child_region.lo[axis] >= value:
                right.regions.append(child_region)
                right.pids.append(child_pid)
            else:
                l_region, r_region = child_region.split_at(axis, value)
                l_pid, r_pid = self._force_split(
                    child_pid, node.leaf_children, axis, value
                )
                left.regions.append(l_region)
                left.pids.append(l_pid)
                right.regions.append(r_region)
                right.pids.append(r_pid)
        node.regions, node.pids = left.regions, left.pids
        right_pid = self.store.allocate(PageKind.DIRECTORY, right)
        self.store.write(pid)
        self.store.write(right_pid)
        return right_pid

    def _choose_inner_plane(self, node: _Inner, region: Rect) -> tuple[int, float]:
        best = None
        best_key = None
        for axis in range(self.dims):
            candidates = set()
            for rect in node.regions:
                for v in (rect.lo[axis], rect.hi[axis]):
                    if region.lo[axis] < v < region.hi[axis]:
                        candidates.add(v)
            for value in candidates:
                forced = sum(
                    1 for r in node.regions if r.lo[axis] < value < r.hi[axis]
                )
                left = sum(1 for r in node.regions if r.hi[axis] <= value)
                right = sum(1 for r in node.regions if r.lo[axis] >= value)
                # A forced child lands on both sides, so a half holds its
                # own children plus the forced ones; a plane that leaves
                # either half over fanout ranks last (nothing re-splits it).
                key = (
                    max(left, right) + forced > self._fanout,
                    forced,
                    abs(left - right),
                )
                if best_key is None or key < best_key:
                    best_key = key
                    best = (axis, value)
        if best is None:
            raise RuntimeError("inner page without separable children overflowed")
        return best

    def _force_split(self, pid: int, is_leaf: bool, axis: int, value: float):
        if is_leaf:
            leaf: _Leaf = self.store.read(pid)
            left, right = self._distribute(leaf, axis, value)
            leaf.rects, leaf.rids = left.rects, left.rids
            right_pid = self.store.allocate(PageKind.DATA, right)
            self.store.write(pid)
            self.store.write(right_pid)
            return pid, right_pid
        node: _Inner = self.store.read(pid)
        return pid, self._split_inner_at(pid, node, axis, value)

    # -- queries ------------------------------------------------------------------------

    def _collect(self, region_op: str, entry_op: str, query: Rect) -> list[object]:
        store = self.store
        # One charged descent (see repro.query.traverse); clipped entries
        # recur under several leaves, so first-seen dedup keeps the
        # scalar result order.
        read = store.read
        hits = traverse.RowSource(store.columnar, query).hits
        tag, build = traverse.BOXES
        entry_key, region_key = "entries:" + entry_op, "regions:" + region_op
        result: list[object] = []
        seen: set[object] = set()
        stack = [(self._root_pid, self._root_is_leaf)]
        while stack:
            pid, is_leaf = stack.pop()
            node = read(pid)
            if is_leaf:
                if node.rects:
                    rids = node.rids
                    for i in hits(pid, entry_key, entry_op, node.rects, tag, build):
                        rid = rids[i]
                        if rid not in seen:
                            seen.add(rid)
                            result.append(rid)
                continue
            if node.regions:
                row = hits(pid, region_key, region_op, node.regions, tag, build)
                pids = node.pids
                leaf = node.leaf_children
                stack.extend([(pids[i], leaf) for i in row])
        return result

    def _point_query(self, point: tuple[float, ...]) -> list[object]:
        # contains_point(p) == contains_rect(degenerate box at p), exactly.
        return self._collect("encl", "encl", Rect.from_point(point))

    def _intersection(self, query: Rect) -> list[object]:
        return self._collect("isect", "isect", query)

    def _containment(self, query: Rect) -> list[object]:
        return self._collect("isect", "within", query)

    def _enclosure(self, query: Rect) -> list[object]:
        return self._collect("isect", "encl", query)
