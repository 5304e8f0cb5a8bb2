"""HB — the hB-tree (holey brick tree) [LS 89].

Every index node organises its children with an internal **kd-tree**
whose internal nodes are single-coordinate comparisons and whose leaves
are child page references.  Node splitting extracts a kd-subtree whose
(real-)leaf count lies between 1/3 and 2/3 of the node; the space left
behind is a *holey brick* — a rectangle minus the extracted rectangle —
marked by an ``EXT`` slot in the donor's kd-tree.  The split is posted
to every parent by replacing each affected child reference with the
chain of kd-comparisons describing the extracted region; the off-chain
sides keep pointing to the donor, so one node may be referenced through
**several directory entries**, and a child may even acquire several
parents — the paper's observation that "the hB-tree is actually a
graph".

Data nodes split by a median hyperplane; following §3 of the paper, the
split axis is chosen to minimise the margins of the two resulting
regions (the authors' optimisation over the original specification).

The characteristics the comparison observed — directory height usually
one more than the competitors, fine partitioning of empty space, and
duplicate postings eating directory capacity — all emerge from this
construction.

``minimal_regions=True`` implements the paper's §5 prescription: "the
only way to improve HB is to incorporate the concept of not
partitioning empty data space.  With this and the median partition it
might become very competitive."  Every kd-leaf then also carries the
minimal bounding rectangle of the subtree below it (raising the leaf
slot from 4 to ``4 + 2·d·4`` bytes), and queries prune kd-leaves whose
region misses the query.  The ``ABL-HB-MBR`` bench measures the
prediction.
"""

from __future__ import annotations

from repro.core.interfaces import PointAccessMethod
from repro.geometry.rect import Rect
from repro.storage import layout
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore
from repro.query import traverse
from repro.storage.soa import fused_points, soa_field

__all__ = ["HBTree"]

#: Bytes of one kd-tree internal node: a 4-byte coordinate, the axis and
#: the intra-node child slots.
_KD_INTERNAL_BYTES = 8

#: The fewest region-carrying kd-leaves an index page must hold: a posted
#: two-plane chain (three leaves) beside one entry that is not part of
#: it.  Below that every posting overflows the page it lands in and the
#: split cascade posts faster than it drains (at three it never ends).
#: Plain HB reaches four leaves at 52-byte pages, whose three-record data
#: pages are outside anything measured; it is not checked.
_MIN_INDEX_LEAVES = 4

_LEAF = 0
_INTERNAL = 1
_EXT = 2


class _Kd:
    """One slot of an index node's kd-tree (internal, leaf or EXT marker)."""

    __slots__ = ("kind", "axis", "coord", "left", "right", "pid", "is_data", "mbr")

    @classmethod
    def leaf(cls, pid: int, is_data: bool, mbr: Rect | None = None) -> "_Kd":
        node = cls()
        node.kind = _LEAF
        node.pid = pid
        node.is_data = is_data
        node.mbr = mbr
        return node

    @classmethod
    def internal(cls, axis: int, coord: float, left: "_Kd", right: "_Kd") -> "_Kd":
        node = cls()
        node.kind = _INTERNAL
        node.axis = axis
        node.coord = coord
        node.left = left
        node.right = right
        return node

    @classmethod
    def ext(cls) -> "_Kd":
        node = cls()
        node.kind = _EXT
        return node


class _IndexNode:
    """An hB-tree index page: the root of its local kd-tree."""

    __slots__ = ("kd",)

    def __init__(self, kd: _Kd):
        self.kd = kd


class _DataNode:
    """An hB-tree data page."""

    __slots__ = ("_soa_records",)

    records = soa_field()

    def __init__(self, records: list[tuple[tuple[float, ...], object]] | None = None):
        self.records = records if records is not None else []

    def mbr(self) -> Rect | None:
        """Minimal bounding rectangle of the stored records."""
        if not self.records:
            return None
        return Rect.bounding_points([p for p, _ in self.records])


class HBTree(PointAccessMethod):
    """The hB-tree."""

    def __init__(self, store: PageStore, dims: int = 2, minimal_regions: bool = False):
        super().__init__(store, dims, layout.point_record_size(dims))
        self.minimal_regions = minimal_regions
        self._capacity = layout.data_page_capacity(self.record_size, store.page_size)
        self._index_payload = layout.directory_page_payload(store.page_size)
        self._leaf_bytes = layout.POINTER_SIZE + (
            2 * dims * layout.COORD_SIZE if minimal_regions else 0
        )
        smallest = (
            _MIN_INDEX_LEAVES * self._leaf_bytes + (_MIN_INDEX_LEAVES - 1) * _KD_INTERNAL_BYTES
        )
        if minimal_regions and self._index_payload < smallest:
            raise ValueError(
                f"a {store.page_size}-byte index page holds fewer than {_MIN_INDEX_LEAVES} "
                f"kd-leaves of {self._leaf_bytes} bytes; the smallest usable page size is "
                f"{store.page_size - self._index_payload + smallest} bytes"
            )
        self._root_pid = store.allocate(PageKind.DATA, _DataNode())
        self._root_is_data = True
        store.pin(self._root_pid)
        store.write(self._root_pid)
        #: child pid -> set of index pids referencing it (the "graph" edges).
        self._parents: dict[int, set[int]] = {}

    # -- plumbing ---------------------------------------------------------

    @property
    def record_capacity(self) -> int:
        return self._capacity

    @property
    def directory_height(self) -> int:
        """Longest chain of index nodes from the root to a data node."""
        if self._root_is_data:
            return 0
        seen: dict[int, int] = {}

        def depth(pid: int, is_data: bool) -> int:
            if is_data:
                return 0
            if pid in seen:
                return seen[pid]
            node: _IndexNode = self.store.peek(pid)
            best = 0
            stack = [node.kd]
            while stack:
                kd = stack.pop()
                if kd.kind == _INTERNAL:
                    stack.extend((kd.left, kd.right))
                elif kd.kind == _LEAF:
                    best = max(best, depth(kd.pid, kd.is_data))
            seen[pid] = 1 + best
            return 1 + best

        return depth(self._root_pid, False)

    def _snapshot_pages(self):
        """Uncharged :class:`PageView` walk (see :mod:`repro.obs.structure`).

        The directory is a graph: shared nodes are yielded once at
        their first-visit (BFS) depth.  Regions come from the kd-leaf
        MBRs, which are only maintained in the minimal-regions variant.
        """
        from repro.obs.structure import PageView

        if self._root_is_data:
            page = self.store.peek(self._root_pid)
            yield PageView.data(self._root_pid, 0, (), self._capacity, page.records)
            return
        queue: list[tuple[int, int]] = [(self._root_pid, 0)]
        seen_index: set[int] = set([self._root_pid])
        data_order: list[int] = []
        data_owned: dict[int, tuple[int, list[Rect]]] = {}
        i = 0
        while i < len(queue):
            pid, depth = queue[i]
            i += 1
            node: _IndexNode = self.store.peek(pid)
            leaves = self._kd_leaves(node.kd)
            yield PageView(
                pid=pid,
                kind="directory",
                depth=depth,
                regions=(),
                records=len(leaves),
                capacity=0,
                children=tuple(leaf.pid for leaf in leaves),
                entry_regions=tuple(
                    leaf.mbr for leaf in leaves if leaf.mbr is not None
                ),
            )
            for leaf in leaves:
                if leaf.is_data:
                    if leaf.pid not in data_owned:
                        data_owned[leaf.pid] = (depth + 1, [])
                        data_order.append(leaf.pid)
                    if leaf.mbr is not None:
                        data_owned[leaf.pid][1].append(leaf.mbr)
                elif leaf.pid not in seen_index:
                    seen_index.add(leaf.pid)
                    queue.append((leaf.pid, depth + 1))
        for pid in data_order:
            depth, rects = data_owned[pid]
            page = self.store.peek(pid)
            yield PageView.data(pid, depth, tuple(rects), self._capacity, page.records)

    # -- kd-tree helpers -------------------------------------------------------

    @staticmethod
    def _kd_leaves(kd: _Kd) -> list[_Kd]:
        """All real leaves (EXT markers excluded) below ``kd``."""
        leaves, stack = [], [kd]
        while stack:
            node = stack.pop()
            if node.kind == _INTERNAL:
                stack.extend((node.left, node.right))
            elif node.kind == _LEAF:
                leaves.append(node)
        return leaves

    def _kd_bytes(self, kd: _Kd) -> int:
        """On-page size of a kd-tree (EXT markers cost a pointer slot;
        with minimal regions every leaf also stores its subtree MBR)."""
        total, stack = 0, [kd]
        while stack:
            node = stack.pop()
            if node.kind == _INTERNAL:
                total += _KD_INTERNAL_BYTES
                stack.extend((node.left, node.right))
            elif node.kind == _LEAF:
                total += self._leaf_bytes
            else:
                total += layout.POINTER_SIZE
        return total

    def _node_overflowed(self, node: _IndexNode) -> bool:
        return self._kd_bytes(node.kd) > self._index_payload

    @staticmethod
    def _walk(kd: _Kd, point: tuple[float, ...]) -> _Kd:
        """The kd-leaf responsible for ``point``."""
        while kd.kind == _INTERNAL:
            kd = kd.left if point[kd.axis] < kd.coord else kd.right
        if kd.kind == _EXT:
            raise RuntimeError("point walked into an extracted region")
        return kd


    # -- minimal regions (the §5 improvement) --------------------------------------

    def _node_mbr(self, pid: int, is_data: bool) -> Rect | None:
        """Authoritative minimal bounding rectangle of a node's content."""
        obj = self.store.peek(pid)
        if is_data:
            return obj.mbr()
        mbrs = [l.mbr for l in self._kd_leaves(obj.kd) if l.mbr is not None]
        return Rect.bounding(mbrs) if mbrs else None

    def _refresh_leaf_mbrs(self, pid: int, is_data: bool) -> None:
        """Propagate a node's exact MBR into every referencing kd-leaf."""
        if not self.minimal_regions:
            return
        work = [(pid, self._node_mbr(pid, is_data))]
        while work:
            child, mbr = work.pop()
            for parent_pid in sorted(self._parents.get(child, ())):
                # Probe first: a parent whose kd-leaves are current is not touched.
                if not any(
                    leaf.pid == child and leaf.mbr != mbr
                    for leaf in self._kd_leaves(self.store.peek(parent_pid).kd)
                ):
                    continue
                for leaf in self._kd_leaves(self.store.held(parent_pid).kd):
                    if leaf.pid == child and leaf.mbr != mbr:
                        leaf.mbr = mbr
                self.store.write(parent_pid)
                work.append((parent_pid, self._node_mbr(parent_pid, False)))

    # -- insertion ---------------------------------------------------------------

    def _insert(self, point: tuple[float, ...], rid: object) -> None:
        if self._root_is_data:
            node: _DataNode = self.store.read(self._root_pid)
            node.records.append((point, rid))
            if len(node.records) > self._capacity:
                self._split_root_data(node)
            else:
                self.store.write(self._root_pid)
            return
        pid, is_data = self._root_pid, False
        path: list[int] = []
        while not is_data:
            path.append(pid)
            node: _IndexNode = self.store.read(pid)
            leaf = self._walk(node.kd, point)
            pid, is_data = leaf.pid, leaf.is_data
        data: _DataNode = self.store.read(pid)
        data.records.append((point, rid))
        if len(data.records) <= self._capacity:
            self.store.write(pid)
            self._refresh_leaf_mbrs(pid, True)
            return
        overflowed = self._split_data_node(pid, data)
        # Posting may overflow index nodes anywhere up the graph, and by
        # more than one split takes off: both halves are candidates again.
        while overflowed:
            index_pid = overflowed.pop()
            if index_pid != self._root_pid and index_pid not in self._parents:
                continue  # pruned since it was queued (pruning unregisters it)
            index: _IndexNode = self.store.held(index_pid)
            if self._node_overflowed(index):
                overflowed.extend(self._split_index_node(index_pid, index))

    # -- data node splits ----------------------------------------------------------

    def _choose_data_split(
        self, records: list[tuple[tuple[float, ...], object]]
    ) -> tuple[int, float] | None:
        """Median split axis chosen to minimise the halves' margins."""
        best: tuple[int, float] | None = None
        best_margin = float("inf")
        for axis in range(self.dims):
            coords = sorted(p[axis] for p, _ in records)
            median = coords[len(coords) // 2]
            if median == coords[0]:
                continue  # one side would be empty
            left = [p for p, _ in records if p[axis] < median]
            right = [p for p, _ in records if p[axis] >= median]
            margin = (
                Rect.bounding_points(left).margin()
                + Rect.bounding_points(right).margin()
            )
            if margin < best_margin:
                best_margin = margin
                best = (axis, median)
        return best

    def _split_root_data(self, node: _DataNode) -> None:
        choice = self._choose_data_split(node.records)
        if choice is None:
            self.store.write(self._root_pid)
            return
        axis, median = choice
        right = _DataNode([r for r in node.records if r[0][axis] >= median])
        node.records = [r for r in node.records if r[0][axis] < median]
        right_pid = self.store.allocate(PageKind.DATA, right)
        self.store.unpin(self._root_pid)
        left_pid = self._root_pid
        left_mbr = right_mbr = None
        if self.minimal_regions:
            left_mbr = node.mbr()
            right_mbr = right.mbr()
        kd = _Kd.internal(
            axis,
            median,
            _Kd.leaf(left_pid, True, left_mbr),
            _Kd.leaf(right_pid, True, right_mbr),
        )
        self._root_pid = self.store.allocate(PageKind.DIRECTORY, _IndexNode(kd))
        self._root_is_data = False
        self.store.pin(self._root_pid)
        self._parents[left_pid] = {self._root_pid}
        self._parents[right_pid] = {self._root_pid}
        self.store.write(left_pid)
        self.store.write(right_pid)
        self.store.write(self._root_pid)

    def _split_data_node(self, pid: int, data: _DataNode) -> list[int]:
        """Split a full data node and post the plane to every parent.

        Returns the parents whose kd-trees grew (overflow candidates).
        """
        choice = self._choose_data_split(data.records)
        if choice is None:
            self.store.write(pid)
            return []
        axis, median = choice
        right = _DataNode([r for r in data.records if r[0][axis] >= median])
        data.records = [r for r in data.records if r[0][axis] < median]
        right_pid = self.store.allocate(PageKind.DATA, right)
        self.store.write(pid)
        self.store.write(right_pid)
        halfspace_lo = [0.0] * self.dims
        halfspace_lo[axis] = median
        region = Rect(tuple(halfspace_lo), (1.0,) * self.dims)
        chain = [(axis, median, 1)]  # the extracted side is the upper half
        touched = self._post_to_parents(pid, right_pid, True, chain, region)
        self._parents[right_pid] = set(touched)
        self._refresh_leaf_mbrs(pid, True)
        self._refresh_leaf_mbrs(right_pid, True)
        # The posted chains already carry exact regions, so the two
        # refreshes find nothing to change in ``touched`` and stop there;
        # the record that caused the split is news one level further up.
        for parent_pid in touched:
            self._refresh_leaf_mbrs(parent_pid, False)
        return touched

    # -- index node splits ------------------------------------------------------------

    def _split_index_node(self, pid: int, node: _IndexNode) -> list[int]:
        """Extract a 1/3–2/3 kd-subtree into a new index node and post it.

        Returns the index pids that may overflow now: the parents (or the
        new root) that grew, and both halves — a page that several posted
        chains pushed far over its payload is not cured by one split.
        """
        total = len(self._kd_leaves(node.kd))
        if total < 3:
            return []  # pathological: cannot honour the 1/3 bound yet
        current = node.kd
        chain: list[tuple[int, float, int]] = []
        parent_of_current: _Kd | None = None
        side_of_current = 0
        # Posted chains can leave geometrically dead kd-branches (their
        # accumulated constraints are empty); the descent tracks the
        # constraint rectangle and never extracts a dead subtree.
        lo = [0.0] * self.dims
        hi = [1.0] * self.dims
        while True:
            left_count = len(self._kd_leaves(current.left))
            right_count = len(self._kd_leaves(current.right))
            axis, coord = current.axis, current.coord
            left_live = lo[axis] < min(hi[axis], coord)
            right_live = max(lo[axis], coord) < hi[axis]
            if left_live and right_live:
                side = 0 if left_count >= right_count else 1
            elif left_live:
                side = 0
            else:
                side = 1
            if not (right_count if side else left_count):
                side = 1 - side  # only EXT markers there: nothing to extract
            child = current.left if side == 0 else current.right
            chain.append((axis, coord, side))
            parent_of_current, side_of_current = current, side
            current = child
            if side == 0:
                hi[axis] = min(hi[axis], coord)
            else:
                lo[axis] = max(lo[axis], coord)
            count = left_count if side == 0 else right_count
            if count <= (2 * total) // 3 or current.kind != _INTERNAL:
                break
        # Extract `current`, leaving an EXT marker behind.
        marker = _Kd.ext()
        if side_of_current == 0:
            parent_of_current.left = marker
        else:
            parent_of_current.right = marker
        new_node = _IndexNode(current if current.kind == _INTERNAL else current)
        new_pid = self.store.allocate(PageKind.DIRECTORY, new_node)
        self.store.write(pid)
        self.store.write(new_pid)
        region = self._chain_region(chain)
        if pid != self._root_pid:
            touched = self._post_to_parents(pid, new_pid, False, chain, region)
            if not touched:
                # No parent routes a point into the extracted region: the
                # subtree sat in a branch that is dead under this page's
                # own reach (a chain posted into a page repeats tests its
                # parents already made).  Nothing can reach the new page
                # either, so the branch is pruned, not moved.
                self.store.free(new_pid)
                self._rewire_children(pid, None, node, new_node)
                self._free_unreferenced(new_node)
                self._refresh_leaf_mbrs(pid, False)
                return [pid]
        self._rewire_children(pid, new_pid, node, new_node)
        if pid == self._root_pid:
            root_kd = self._build_chain(chain, pid, False, new_pid, False)
            new_root = _IndexNode(root_kd)
            self.store.unpin(pid)
            self._root_pid = self.store.allocate(PageKind.DIRECTORY, new_root)
            self.store.pin(self._root_pid)
            self.store.write(self._root_pid)
            self._parents[pid] = {self._root_pid}
            self._parents[new_pid] = {self._root_pid}
            self._refresh_leaf_mbrs(pid, False)
            self._refresh_leaf_mbrs(new_pid, False)
            return [self._root_pid, pid, new_pid]
        self._parents[new_pid] = set(touched)
        self._refresh_leaf_mbrs(pid, False)
        self._refresh_leaf_mbrs(new_pid, False)
        return [*touched, pid, new_pid]

    def _rewire_children(
        self, old_pid: int, new_pid: "int | None", old_node: _IndexNode, new_node: _IndexNode
    ) -> None:
        """Maintain the parent map after a subtree left ``old_pid`` — for
        the page ``new_pid``, or for nowhere (``None``: it was pruned)."""
        moved = {leaf.pid for leaf in self._kd_leaves(new_node.kd)}
        remaining = {leaf.pid for leaf in self._kd_leaves(old_node.kd)}
        for child in moved:
            parents = self._parents.setdefault(child, set())
            if new_pid is not None:
                parents.add(new_pid)
            if child not in remaining:
                parents.discard(old_pid)

    def _free_unreferenced(self, pruned: _IndexNode) -> None:
        """Free the index pages ``pruned`` held the last reference to, and
        theirs in turn: splits of a dead branch post into dead branches,
        so a whole dead subgraph can hang off one.  Data pages stay — one
        that loses its last parent here is a finding for the audit."""
        stack = [leaf.pid for leaf in self._kd_leaves(pruned.kd) if not leaf.is_data]
        while stack:
            pid = stack.pop()
            parents = self._parents.get(pid)
            if parents is None or parents:
                continue  # already freed through another leaf, or still referenced
            for leaf in self._kd_leaves(self.store.peek(pid).kd):
                self._parents[leaf.pid].discard(pid)
                if not leaf.is_data:
                    stack.append(leaf.pid)
            self._parents.pop(pid, None)
            self.store.free(pid)

    def _chain_region(self, chain: list[tuple[int, float, int]]) -> Rect:
        """The rectangle described by a kd comparison chain."""
        lo = [0.0] * self.dims
        hi = [1.0] * self.dims
        for axis, coord, side in chain:
            if side == 0:
                hi[axis] = min(hi[axis], coord)
            else:
                lo[axis] = max(lo[axis], coord)
        return Rect(tuple(lo), tuple(hi))

    def _build_chain(
        self,
        chain: list[tuple[int, float, int]],
        stay_pid: int,
        stay_is_data: bool,
        new_pid: int,
        new_is_data: bool,
    ) -> _Kd:
        """kd nodes answering "inside the extracted region?" for one leaf.

        Points satisfying the whole chain go to the extracted node, all
        other points keep going to the donor.
        """
        stay_mbr = new_mbr = None
        if self.minimal_regions:
            stay_mbr = self._node_mbr(stay_pid, stay_is_data)
            new_mbr = self._node_mbr(new_pid, new_is_data)
        result = _Kd.leaf(new_pid, new_is_data, new_mbr)
        for axis, coord, side in reversed(chain):
            donor = _Kd.leaf(stay_pid, stay_is_data, stay_mbr)
            if side == 0:
                result = _Kd.internal(axis, coord, result, donor)
            else:
                result = _Kd.internal(axis, coord, donor, result)
        return result

    def _post_to_parents(
        self,
        donor_pid: int,
        new_pid: int,
        new_is_data: bool,
        chain: list[tuple[int, float, int]],
        region: Rect,
    ) -> list[int]:
        """Replace donor references whose reach intersects ``region``.

        Every parent of the donor is inspected; each of its kd-leaves
        that points to the donor and whose constraint rectangle meets the
        extracted region is replaced by the comparison chain.  Returns
        the parents that were modified.
        """
        donor_is_data = self.store.kind(donor_pid) is PageKind.DATA

        def visit(kd: _Kd, lo: list[float], hi: list[float]) -> _Kd:
            # Changed paths are rebuilt, so the probed tree stays as it was.
            if kd.kind == _INTERNAL:
                saved = hi[kd.axis]
                hi[kd.axis] = min(hi[kd.axis], kd.coord)
                left = visit(kd.left, lo, hi)
                hi[kd.axis] = saved
                saved = lo[kd.axis]
                lo[kd.axis] = max(lo[kd.axis], kd.coord)
                right = visit(kd.right, lo, hi)
                lo[kd.axis] = saved
                if left is kd.left and right is kd.right:
                    return kd
                return _Kd.internal(kd.axis, kd.coord, left, right)
            if kd.kind == _LEAF and kd.pid == donor_pid:
                if any(l > h for l, h in zip(lo, hi)):
                    return kd  # geometrically dead branch: unreachable leaf
                # Blocks are half-open below the domain's closed upper
                # face: a plane at 1.0 extracts the points on that face.
                if all(
                    a < b or a == b == 1.0
                    for a, b in zip(map(max, lo, region.lo), map(min, hi, region.hi))
                ):
                    return self._build_chain(
                        chain, donor_pid, donor_is_data, new_pid, new_is_data
                    )
            return kd

        touched = []
        for parent_pid in sorted(self._parents.get(donor_pid, ())):
            old = self.store.peek(parent_pid).kd
            kd = visit(old, [0.0] * self.dims, [1.0] * self.dims)
            if kd is not old:
                self.store.read(parent_pid).kd = kd
                self.store.write(parent_pid)
                touched.append(parent_pid)
        return touched

    # -- queries ----------------------------------------------------------------------

    def _kd_children(self, kd_root: _Kd, rect: Rect) -> list[tuple[int, bool]]:
        """The kd-tree leaves of one index node a range query descends to.

        Purely structural — the walk prunes on the query box against the
        split coordinates (and the optional §5 MBRs), never on page
        contents.
        """
        children: list[tuple[int, bool]] = []
        minimal = self.minimal_regions

        def collect(kd: _Kd) -> None:
            if kd.kind == _INTERNAL:
                if rect.lo[kd.axis] < kd.coord:
                    collect(kd.left)
                if rect.hi[kd.axis] >= kd.coord:
                    collect(kd.right)
            elif kd.kind == _LEAF:
                if minimal and (kd.mbr is None or not kd.mbr.intersects(rect)):
                    return
                children.append((kd.pid, kd.is_data))

        collect(kd_root)
        return children

    def _range_query(self, rect: Rect) -> list[tuple[tuple[float, ...], object]]:
        store = self.store
        # One charged descent (see repro.query.traverse), preorder as the
        # recursion ran it: directory pruning is the structural kd-tree
        # walk, data pages answer through one verdict row each.  hB-tree
        # kd leaves may share children, so every page is visited once.
        read = store.read
        hits = traverse.RowSource(store.columnar, rect).hits
        result: list[tuple[tuple[float, ...], object]] = []
        seen: set[int] = set()
        stack = [(self._root_pid, self._root_is_data)]
        while stack:
            pid, is_data = stack.pop()
            if pid in seen:
                continue
            seen.add(pid)
            if not is_data:
                stack.extend(reversed(self._kd_children(read(pid).kd, rect)))
                continue
            records = read(pid).records
            if records:
                row = hits(pid, "pts", "pts", records, "pts", fused_points)
                result.extend([records[i] for i in row])
        return result

    def _exact_match(self, point: tuple[float, ...]) -> list[object]:
        pid, is_data = self._root_pid, self._root_is_data
        while not is_data:
            node: _IndexNode = self.store.read(pid)
            leaf = self._walk(node.kd, point)
            if self.minimal_regions and (
                leaf.mbr is None or not leaf.mbr.contains_point(point)
            ):
                return []
            pid, is_data = leaf.pid, leaf.is_data
        data: _DataNode = self.store.read(pid)
        return [rid for p, rid in data.records if p == point]
