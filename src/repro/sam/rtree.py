"""The R-tree [Gut 84], the SAM comparison's measuring stick.

A balanced tree of minimal bounding rectangles with overlapping
regions.  Three split policies are available:

* ``"guttman"`` — the original quadratic split;
* ``"greene"`` — Greene's split [Gre 89]: pick the most separated seed
  pair (normalised), sort along that axis, cut in half;
* ``"margin"`` — the authors' own improvement mentioned in §8: choose
  the axis/position minimising the sum of the halves' margins, subject
  to the minimum fill.

Following §7 of the paper, the default minimum fill is 30 % of a node
(the authors found it beats Guttman's 50 % for retrieval), and the
measuring-stick configuration is Guttman's split with that fill.
"""

from __future__ import annotations

import numpy as np

from repro.core.interfaces import SpatialAccessMethod
from repro.geometry.rect import Rect
from repro.storage import layout
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore
from repro.storage.soa import soa_field
from repro.query import traverse

__all__ = ["RTree"]

_SPLIT_POLICIES = ("guttman", "greene", "margin")

#: The ``[lo, -hi]`` fused view of a page's rectangles — the same
#: container view the query path evaluates, so a split and the queries
#: share one build of it.  On this encoding the union of two boxes is an
#: elementwise ``minimum``.
_COVER = traverse.box_view("isect")


#: Pairs evaluated per step of the quadratic seed pick.
_PAIR_BLOCK = 1 << 14


def _areas(cover: np.ndarray, dims: int) -> np.ndarray:
    """Volumes of ``[lo, -hi]`` fused boxes (along the last axis).

    Float for float :meth:`Rect.area`: the same ``hi - lo`` per axis,
    multiplied in axis order (its leading ``1.0 *`` is exact).
    """
    extent = -cover[..., dims:] - cover[..., :dims]
    area = extent[..., 0].copy()
    for axis in range(1, dims):
        area *= extent[..., axis]
    return area


class _Node:
    """An R-tree page: entries are (rect, child pid) or (rect, rid).

    ``rects`` is a struct-of-arrays container: the fused bound arrays the
    vectorized traversal evaluates live on the page itself and are
    invalidated by the container's own mutators (see
    :mod:`repro.storage.soa`).
    """

    __slots__ = ("is_leaf", "_soa_rects", "children")

    rects = soa_field()

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.rects: list[Rect] = []
        self.children: list = []  # pids for inner nodes, rids for leaves


class RTree(SpatialAccessMethod):
    """An R-tree storing axis-parallel rectangles."""

    def __init__(
        self,
        store: PageStore,
        dims: int = 2,
        min_fill: float = 0.3,
        split_policy: str = "guttman",
    ):
        super().__init__(store, dims, layout.rect_record_size(dims))
        if split_policy not in _SPLIT_POLICIES:
            raise ValueError(f"unknown split policy {split_policy!r}")
        if not 0.0 < min_fill <= 0.5:
            raise ValueError("min_fill must be in (0, 0.5]")
        self.split_policy = split_policy
        entry_size = 2 * dims * layout.COORD_SIZE + layout.POINTER_SIZE
        self._capacity = layout.directory_page_payload(store.page_size) // entry_size
        self._min_entries = max(1, int(self._capacity * min_fill))
        self._root_pid = store.allocate(PageKind.DATA, _Node(is_leaf=True))
        store.pin(self._root_pid)
        store.write(self._root_pid)
        self._height = 0

    # -- plumbing --------------------------------------------------------

    @property
    def record_capacity(self) -> int:
        return self._capacity

    @property
    def directory_height(self) -> int:
        """Number of inner levels above the leaves."""
        return self._height

    def iter_records(self):
        """Uncharged walk of every stored ``(rect, rid)`` entry."""
        stack = [self._root_pid]
        while stack:
            node: _Node = self.store.peek(stack.pop())
            if node.is_leaf:
                yield from zip(node.rects, node.children)
            else:
                stack.extend(node.children)

    def _snapshot_pages(self):
        """Uncharged :class:`PageView` walk (see :mod:`repro.obs.structure`)."""
        from repro.obs.structure import PageView

        queue: list[tuple[int, int, Rect | None]] = [(self._root_pid, 0, None)]
        i = 0
        while i < len(queue):
            pid, depth, region = queue[i]
            i += 1
            node: _Node = self.store.peek(pid)
            if node.is_leaf:
                yield PageView(
                    pid=pid,
                    kind="data",
                    depth=depth,
                    regions=(region,) if region is not None else (),
                    records=len(node.rects),
                    capacity=self._capacity,
                    content=Rect.bounding(node.rects) if node.rects else None,
                )
                continue
            yield PageView(
                pid=pid,
                kind="directory",
                depth=depth,
                regions=(region,) if region is not None else (),
                records=len(node.rects),
                capacity=self._capacity,
                children=tuple(node.children),
                entry_regions=tuple(node.rects),
            )
            for rect, child in zip(node.rects, node.children):
                queue.append((child, depth + 1, rect))

    # -- insertion ----------------------------------------------------------

    def _insert(self, rect: Rect, rid: object) -> None:
        split = self._insert_into(self._root_pid, rect, rid)
        if split is not None:
            self._grow_root(split)

    def _insert_into(self, pid: int, rect: Rect, rid: object):
        """Insert below ``pid``; returns (rect, pid) of a split-off sibling."""
        node: _Node = self.store.read(pid)
        if node.is_leaf:
            node.rects.append(rect)
            node.children.append(rid)
            if len(node.rects) <= self._capacity:
                self.store.write(pid)
                return None
            return self._split(pid, node)
        slot = self._choose_subtree(node, rect)
        grown = node.rects[slot].union(rect)
        if grown != node.rects[slot]:  # an unchanged page keeps its fused views
            node.rects[slot] = grown
        split = self._insert_into(node.children[slot], rect, rid)
        if split is not None:
            # The child lost entries to its new sibling: recompute its
            # minimal bounding rectangle instead of keeping the union.
            child: _Node = self.store.held(node.children[slot])
            node.rects[slot] = Rect.bounding(child.rects)
            sibling_rect, sibling_pid = split
            node.rects.append(sibling_rect)
            node.children.append(sibling_pid)
        self.store.write(pid)
        if len(node.rects) <= self._capacity:
            return None
        return self._split(pid, node)

    def _choose_subtree(self, node: _Node, rect: Rect) -> int:
        """Least-enlargement child, ties by the first smallest area (Guttman).

        Python floats over the rows in the arithmetic of :meth:`Rect.area`:
        at 512 B a node holds at most 25, where this beats NumPy columns
        (DESIGN.md "Build path").
        """
        axes = tuple(enumerate(zip(rect.lo, rect.hi)))
        best, best_e, best_a = 0, float("inf"), float("inf")
        for i, r in enumerate(node.rects):
            lo, hi = r.lo, r.hi
            a = g = 1.0
            for k, (ql, qh) in axes:
                l, h = lo[k], hi[k]
                a *= h - l
                g *= (qh if qh > h else h) - (ql if ql < l else l)
            e = g - a
            if e < best_e or (e == best_e and a < best_a):
                best, best_e, best_a = i, e, a
        return best

    def _grow_root(self, split: tuple[Rect, int]) -> None:
        sibling_rect, sibling_pid = split
        old_root: _Node = self.store.held(self._root_pid)
        old_rect = Rect.bounding(old_root.rects)
        new_root = _Node(is_leaf=False)
        new_root.rects = [old_rect, sibling_rect]
        new_root.children = [self._root_pid, sibling_pid]
        self.store.unpin(self._root_pid)
        self._root_pid = self.store.allocate(PageKind.DIRECTORY, new_root)
        self.store.pin(self._root_pid)
        self.store.write(self._root_pid)
        self._height += 1

    # -- splitting -------------------------------------------------------------

    def _split(self, pid: int, node: _Node) -> tuple[Rect, int]:
        """Split an overflowing node; returns the new sibling's (rect, pid)."""
        entries = list(zip(node.rects, node.children))
        cover = node.rects.view(*_COVER)
        if self.split_policy == "guttman":
            left, right = self._split_guttman(entries, cover)
        elif self.split_policy == "greene":
            left, right = self._split_greene(entries, cover)
        else:
            left, right = self._split_margin(entries)
        node.rects = [r for r, _ in left]
        node.children = [c for _, c in left]
        sibling = _Node(is_leaf=node.is_leaf)
        sibling.rects = [r for r, _ in right]
        sibling.children = [c for _, c in right]
        kind = PageKind.DATA if node.is_leaf else PageKind.DIRECTORY
        sibling_pid = self.store.allocate(kind, sibling)
        self.store.write(pid)
        self.store.write(sibling_pid)
        return Rect.bounding(sibling.rects), sibling_pid

    def _pick_seeds(self, cover: np.ndarray) -> tuple[int, int]:
        """Quadratic seed pick: the first pair wasting the most area."""
        dims = self.dims
        n = len(cover)
        area = _areas(cover, dims)
        index = np.arange(n)
        worst, pair = -1.0, (0, 1)
        # All pairs of a block of rows at once; a paper-sized page is one
        # block, an 8 KiB page a dozen, so temporaries stay page-sized.
        rows = max(1, _PAIR_BLOCK // n)
        for start in range(0, n - 1, rows):
            block = slice(start, start + rows)
            unions = np.minimum(cover[block, None, :], cover[None, :, :])
            waste = _areas(unions, dims) - area[block, None] - area[None, :]
            # Only pairs i < j compete; row-major argmax then visits them
            # in nested-loop order and keeps the first maximum.
            waste[index[block, None] >= index] = -np.inf
            k = int(waste.argmax())
            if waste.flat[k] > worst:
                worst, pair = waste.flat[k], (start + k // n, k % n)
        return pair

    def _split_guttman(self, entries: list, cover: np.ndarray) -> tuple[list, list]:
        dims = self.dims
        seeds = self._pick_seeds(cover)
        # Per-axis columns, and per side (left, right): its entries, box,
        # volume and every row's enlargement of it; only the grown side is redone.
        lo = [cover[:, axis] for axis in range(dims)]
        hi = [-cover[:, dims + axis] for axis in range(dims)]

        def enlargements(box: Rect, area: float) -> np.ndarray:
            grown = np.maximum(hi[0], box.hi[0]) - np.minimum(lo[0], box.lo[0])
            for axis in range(1, dims):
                grown *= np.maximum(hi[axis], box.hi[axis]) - np.minimum(lo[axis], box.lo[axis])
            return grown - area

        groups = tuple([entries[k]] for k in seeds)
        boxes = [entries[k][0] for k in seeds]
        areas = [box.area() for box in boxes]
        grow = [enlargements(box, a) for box, a in zip(boxes, areas)]
        unassigned = np.ones(len(entries), dtype=bool)
        unassigned[list(seeds)] = False
        remaining = len(entries) - 2
        while remaining:
            # Force assignment when one side must take everything left.
            starved = [g for g in groups if len(g) + remaining <= self._min_entries]
            if starved:
                starved[0].extend(entries[k] for k in np.flatnonzero(unassigned))
                break
            # PickNext: first entry with the largest preference difference.
            k = int(np.where(unassigned, np.abs(grow[0] - grow[1]), -1.0).argmax())
            unassigned[k] = False
            remaining -= 1
            key, other = (
                (float(grow[side][k]), areas[side], len(groups[side])) for side in (0, 1)
            )
            side = 0 if key <= other else 1
            groups[side].append(entries[k])
            boxes[side] = box = boxes[side].union(entries[k][0])
            areas[side] = box.area()
            grow[side] = enlargements(box, areas[side])
        return groups

    def _split_greene(self, entries: list, cover: np.ndarray) -> tuple[list, list]:
        i, j = self._pick_seeds(cover)
        # Choose the axis with the greatest normalised seed separation.
        best_axis, best_sep = 0, -1.0
        for axis in range(self.dims):
            lo = min(r.lo[axis] for r, _ in entries)
            hi = max(r.hi[axis] for r, _ in entries)
            width = hi - lo or 1.0
            sep = (
                max(entries[i][0].lo[axis], entries[j][0].lo[axis])
                - min(entries[i][0].hi[axis], entries[j][0].hi[axis])
            ) / width
            if sep > best_sep:
                best_axis, best_sep = axis, sep
        ordered = sorted(entries, key=lambda e: e[0].lo[best_axis])
        half = len(ordered) // 2
        return ordered[:half], ordered[half:]

    def _split_margin(self, entries: list) -> tuple[list, list]:
        best = None
        best_margin = float("inf")
        for axis in range(self.dims):
            ordered = sorted(entries, key=lambda e: (e[0].lo[axis], e[0].hi[axis]))
            for cut in range(self._min_entries, len(ordered) - self._min_entries + 1):
                left, right = ordered[:cut], ordered[cut:]
                margin = (
                    Rect.bounding([r for r, _ in left]).margin()
                    + Rect.bounding([r for r, _ in right]).margin()
                )
                if margin < best_margin:
                    best_margin = margin
                    best = (left, right)
        if best is None:  # capacity too small for the fill bounds
            half = len(entries) // 2
            return entries[:half], entries[half:]
        return best

    # -- queries ---------------------------------------------------------------------

    def _collect(self, inner_op: str, leaf_op: str, query: Rect) -> list[object]:
        store = self.store
        # Plan: level-at-a-time frontier expansion over uncharged page
        # views; every cold page of one level rides a single fused kernel
        # call (see repro.query.traverse).
        held = store.held
        src = traverse.RowSource(store.columnar, query)
        keys = {True: "entries:" + leaf_op, False: "entries:" + inner_op}
        ops = {True: leaf_op, False: inner_op}
        row_of = src.row
        views = {True: traverse.box_view(leaf_op), False: traverse.box_view(inner_op)}
        # Promoted pages answer straight from the workload's CSR verdicts;
        # probing them inline skips the RowSource call for the common case
        # (the rows are the same lists row() would return).
        workload = src.workload
        hot = workload._rows if workload is not None else None
        qi = workload.index if workload is not None else -1
        verdicts: dict[int, list] = {}
        # Inner pages keep their expanded child-pid list: the plan needs
        # it for the next frontier and the replay pushes the same list,
        # so it is computed exactly once per page.
        expansion: dict[int, list] = {}
        level = [self._root_pid]
        while level:
            nxt: list = []
            deferred: list = []
            for pid in level:
                node = held(pid)
                leaf = node.is_leaf
                rects = node.rects
                if not rects:
                    verdicts[pid] = traverse._EMPTY_ROW
                    if not leaf:
                        expansion[pid] = traverse._EMPTY_ROW
                    continue
                row = None
                if hot is not None:
                    entry = hot.get((pid, keys[leaf]))
                    if entry is not None:
                        starts, cols = entry
                        s = starts[qi]
                        e = starts[qi + 1]
                        if e == s:
                            verdicts[pid] = traverse._EMPTY_ROW
                            if not leaf:
                                expansion[pid] = traverse._EMPTY_ROW
                            continue
                        row = cols[s:e].tolist()
                if row is None:
                    tag, build = views[leaf]
                    row = row_of(pid, keys[leaf], ops[leaf], rects, tag, build)
                if row is None:
                    deferred.append(pid)
                elif leaf:
                    verdicts[pid] = row
                else:
                    verdicts[pid] = row
                    children = node.children
                    kids = expansion[pid] = [children[i] for i in row]
                    nxt.extend(kids)
            if deferred:
                rows = src.flush()
                for pid in deferred:
                    node = held(pid)
                    leaf = node.is_leaf
                    row = verdicts[pid] = rows[(pid, keys[leaf])]
                    if not leaf:
                        children = node.children
                        kids = expansion[pid] = [children[i] for i in row]
                        nxt.extend(kids)
            level = nxt
        # Replay: the original descent order with real (charged) reads,
        # consuming the precomputed verdict rows — accesses, buffer state
        # and observer events are those of the scalar path by construction.
        result: list[object] = []
        read = store.read
        stack = [self._root_pid]
        while stack:
            pid = stack.pop()
            node = read(pid)
            if node.is_leaf:
                row = verdicts[pid]
                if row:
                    children = node.children
                    result.extend([children[i] for i in row])
            else:
                stack.extend(expansion[pid])
        return result

    def _point_query(self, point: tuple[float, ...]) -> list[object]:
        # contains_point(p) == contains_rect(degenerate box at p), exactly.
        return self._collect("encl", "encl", Rect.from_point(point))

    def _intersection(self, query: Rect) -> list[object]:
        return self._collect("isect", "isect", query)

    def _containment(self, query: Rect) -> list[object]:
        # Contained rectangles intersect the query, and no stronger
        # pruning is possible on inner levels: this is why the paper's
        # R-tree containment costs equal its intersection costs.
        return self._collect("isect", "within", query)

    def _enclosure(self, query: Rect) -> list[object]:
        return self._collect("encl", "encl", query)

    # -- deletion (extension) -----------------------------------------------------------

    def delete(self, rect: Rect, rid: object) -> bool:
        """Remove one rectangle; underfull nodes are condensed and their
        entries reinserted, per Guttman's CondenseTree."""
        self.store.begin_operation()
        found = self._find_leaf(self._root_pid, rect, rid, [])
        if found is None:
            return False
        path, leaf_pid = found
        leaf: _Node = self.store.held(leaf_pid)
        slot = next(
            i
            for i, (r, c) in enumerate(zip(leaf.rects, leaf.children))
            if r == rect and c == rid
        )
        del leaf.rects[slot]
        del leaf.children[slot]
        self.store.write(leaf_pid)
        self._records -= 1
        orphans: list[tuple[Rect, object]] = []
        self._condense(path, leaf_pid, orphans)
        for orphan_rect, orphan_rid in orphans:
            self._insert(orphan_rect, orphan_rid)
        self._shrink_root()
        return True

    def _find_leaf(self, pid: int, rect: Rect, rid: object, path: list[int]):
        node: _Node = self.store.read(pid)
        if node.is_leaf:
            for r, c in zip(node.rects, node.children):
                if r == rect and c == rid:
                    return list(path), pid
            return None
        for r, child in zip(node.rects, node.children):
            if r.contains_rect(rect):
                found = self._find_leaf(child, rect, rid, path + [pid])
                if found is not None:
                    return found
        return None

    def _condense(self, path: list[int], pid: int, orphans: list) -> None:
        for parent_pid in reversed(path):
            parent: _Node = self.store.held(parent_pid)
            node: _Node = self.store.held(pid)
            slot = parent.children.index(pid)
            # An only child goes too; its emptied parent follows one level
            # up.  The root has two children between operations.
            if len(node.rects) < self._min_entries:
                if node.is_leaf:
                    orphans.extend(zip(node.rects, node.children))
                else:
                    # Reinsert whole subtrees record-by-record, reading
                    # and freeing every page under the condensed node.
                    stack = list(node.children)
                    while stack:
                        sub_pid = stack.pop()
                        sub: _Node = self.store.read(sub_pid)
                        if sub.is_leaf:
                            orphans.extend(zip(sub.rects, sub.children))
                        else:
                            stack.extend(sub.children)
                        self.store.free(sub_pid)
                del parent.rects[slot]
                del parent.children[slot]
                self.store.free(pid)
            else:
                parent.rects[slot] = Rect.bounding(node.rects)
            self.store.write(parent_pid)
            pid = parent_pid

    def _shrink_root(self) -> None:
        root: _Node = self.store.held(self._root_pid)
        while not root.is_leaf and len(root.children) == 1:
            child_pid = root.children[0]
            self.store.unpin(self._root_pid)
            self.store.free(self._root_pid)
            self._root_pid = child_pid
            self.store.pin(child_pid)
            self._height -= 1
            root = self.store.held(self._root_pid)
