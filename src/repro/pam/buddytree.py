"""BUDDY — the buddy hash tree [SFK 89], the winner of the comparison.

The buddy hash tree is a dynamic hashing scheme with a tree-structured
directory whose entries are ``(R, P)`` pairs: ``R`` the minimal bounding
rectangle of the points below ``P``.  Splits only ever use the halving
hyperplanes of the *buddy system* (recursive cyclic halving of the unit
cube, :mod:`repro.geometry.blocks`), which keeps sibling regions
pairwise disjoint, and regions are re-minimised after every split, so —
the structure's key property — **empty data space is never partitioned**.

Further properties from the paper, all maintained here:

1. every directory node holds at least two entries; a split that would
   produce a one-entry node links the entry directly into the parent
   instead, which is why the tree is *unbalanced* (directory leaves may
   sit at different levels);
2. splits are minimal: after a split both pages carry the exact minimal
   bounding rectangle of their contents;
3. except for the root, exactly one pointer refers to each directory
   page (the directory is a tree and grows linearly);
4. *packing* (the BUDDY+ variant, :meth:`BuddyTree.pack`) lets several
   directory entries of one and the same directory page share a data
   page, raising storage utilisation above 71 % in the paper.
"""

from __future__ import annotations

from repro.core.interfaces import PointAccessMethod
from repro.geometry import blocks
from repro.geometry.rect import Rect
from repro.storage import layout
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore
import numpy as np

from repro.query import traverse
from repro.storage.soa import delete_record, fused_points, soa_field

__all__ = ["BuddyTree"]


class _Entry:
    """One directory entry: a minimal bounding rectangle and a child pointer."""

    __slots__ = ("rect", "pid", "is_data", "_buddy")

    def __init__(self, rect: Rect, pid: int, is_data: bool):
        self.rect = rect
        self.pid = pid
        self.is_data = is_data
        #: ``(rect, (block, packed block))`` as of the last :meth:`buddy`
        #: call; stale once ``rect`` is rebound to another (immutable) Rect.
        self._buddy: tuple[Rect, tuple[blocks.Bits, int]] | None = None

    def buddy(self, dims: int) -> tuple[blocks.Bits, int]:
        """The entry's buddy rectangle — the minimal block enclosing its
        MBR — as ``(address, packed address)``."""
        cached = self._buddy
        rect = self.rect
        if cached is None or cached[0] is not rect:
            code, depth = blocks.enclosing_code(rect, dims)
            cached = self._buddy = (rect, (blocks.bits_of_code(code, depth), code))
        return cached[1]

    def block(self, dims: int) -> blocks.Bits:
        """Address of the entry's buddy rectangle."""
        return self.buddy(dims)[0]

    def __getstate__(self):
        # The derived block is shed the way SoAList sheds its views:
        # pickled pages keep the three stored fields and nothing else.
        return None, {"rect": self.rect, "pid": self.pid, "is_data": self.is_data}

    def __setstate__(self, state) -> None:
        self.__init__(**state[1])


class _DirNode:
    """A directory page: a list of entries with pairwise disjoint regions."""

    __slots__ = ("_soa_entries",)

    entries = soa_field()

    def __init__(self, entries: list[_Entry]):
        self.entries = entries


class _DataPage:
    """A data page: the records of one minimal bounding rectangle."""

    __slots__ = ("_soa_records",)

    records = soa_field()

    def __init__(self, records: list[tuple[tuple[float, ...], object]] | None = None):
        self.records = records if records is not None else []


def _entry_boxes_cover(lst) -> "np.ndarray":
    """``[lo, -hi]`` fused rows over a directory page's entry MBRs."""
    lo = np.array([e.rect.lo for e in lst], dtype=float)
    hi = np.array([e.rect.hi for e in lst], dtype=float)
    return np.concatenate([lo, -hi], axis=1)


class BuddyTree(PointAccessMethod):
    """The BUDDY hash tree; ``pack()`` turns a built file into BUDDY+.

    ``balanced=True`` turns off the path shortening of property (1) and
    yields the *artificially balanced* behaviour of BUDDY's predecessors
    (the multilevel grid file and the balanced multidimensional
    extendible hash tree): one-entry directory pages are allowed, every
    data page sits below the same number of directory levels, and new
    regions in empty space are pushed down through chains of one-entry
    nodes.  :class:`repro.pam.mlgf.MultilevelGridFile` exposes this
    variant under its own name.
    """

    def __init__(self, store: PageStore, dims: int = 2, balanced: bool = False):
        super().__init__(store, dims, layout.point_record_size(dims))
        self.balanced = balanced
        self._levels = 0
        self._capacity = layout.data_page_capacity(self.record_size, store.page_size)
        entry_size = 2 * dims * layout.COORD_SIZE + layout.POINTER_SIZE
        self._fanout = layout.directory_page_payload(store.page_size) // entry_size
        if self._fanout < 4:
            raise ValueError("page too small for a buddy tree directory")
        # The file starts as a single data page; a directory appears with
        # the first split.  The root (data or directory) is pinned.
        self._root_pid = store.allocate(PageKind.DATA, _DataPage())
        self._root_is_data = True
        store.write(self._root_pid)
        store.pin(self._root_pid)
        self._packed = False

    # -- plumbing ----------------------------------------------------------

    @property
    def record_capacity(self) -> int:
        return self._capacity

    @property
    def directory_height(self) -> int:
        """Maximum number of directory levels on any root-to-data path."""
        if self._root_is_data:
            return 0

        def depth(pid: int, is_data: bool) -> int:
            if is_data:
                return 0
            node: _DirNode = self.store.peek(pid)
            return 1 + max(depth(e.pid, e.is_data) for e in node.entries)

        return depth(self._root_pid, False)

    @property
    def is_packed(self) -> bool:
        """True once :meth:`pack` has turned the file into BUDDY+."""
        return self._packed

    def _snapshot_pages(self):
        """Uncharged :class:`PageView` walk (see :mod:`repro.obs.structure`).

        Shared (packed) data pages are yielded once, carrying every
        sharing entry's region.
        """
        from repro.obs.structure import PageView

        if self._root_is_data:
            page = self.store.peek(self._root_pid)
            yield PageView.data(self._root_pid, 0, (), self._capacity, page.records)
            return
        queue: list[tuple[int, int, Rect | None]] = [(self._root_pid, 0, None)]
        data_order: list[int] = []
        data_owned: dict[int, tuple[int, list[Rect]]] = {}
        i = 0
        while i < len(queue):
            pid, depth, region = queue[i]
            i += 1
            node: _DirNode = self.store.peek(pid)
            yield PageView(
                pid=pid,
                kind="directory",
                depth=depth,
                regions=(region,) if region is not None else (),
                records=len(node.entries),
                capacity=self._fanout,
                children=tuple(e.pid for e in node.entries),
                entry_regions=tuple(e.rect for e in node.entries),
            )
            for e in node.entries:
                if e.is_data:
                    if e.pid not in data_owned:
                        data_owned[e.pid] = (depth + 1, [])
                        data_order.append(e.pid)
                    data_owned[e.pid][1].append(e.rect)
                else:
                    queue.append((e.pid, depth + 1, e.rect))
        for pid in data_order:
            depth, rects = data_owned[pid]
            page = self.store.peek(pid)
            yield PageView.data(pid, depth, tuple(rects), self._capacity, page.records)

    # -- insertion -------------------------------------------------------------

    def _insert(self, point: tuple[float, ...], rid: object) -> None:
        if self._root_is_data:
            page: _DataPage = self.store.read(self._root_pid)
            page.records.append((point, rid))
            if len(page.records) > self._capacity:
                self._split_root_data_page(page)
            else:
                self.store.write(self._root_pid)
            return
        self._insert_descend(self._root_pid, point, rid, at_root=True)

    def _insert_descend(
        self, pid: int, point: tuple[float, ...], rid: object, at_root: bool,
        depth: int = 1,
    ) -> None:
        """Insert below directory page ``pid``.

        Any overflow of ``pid`` itself is handled by the caller except at
        the root, where a new root is created.  An insert only adds
        ``point``, so each level grows the chosen entry to it instead of
        rebuilding its exact MBR (``buddy.mbr-exact``).
        """
        node: _DirNode = self.store.read(pid)
        entry = self._choose_entry(node, point)
        if entry is None:
            # Empty space that no region may claim: hang a fresh data
            # page directly off this node (source of the unbalance) —
            # or, in the balanced variant, push it down to the data
            # level through a chain of one-entry directory pages.
            new_page = _DataPage([(point, rid)])
            new_pid = self.store.allocate(PageKind.DATA, new_page)
            self.store.write(new_pid)
            child_entry = _Entry(Rect.from_point(point), new_pid, True)
            if self.balanced:
                # Data entries live in depth-`levels` nodes; build the
                # chain of one-entry pages covering the missing levels.
                for _ in range(self._levels - depth):
                    chain = _DirNode([child_entry])
                    chain_pid = self.store.allocate(PageKind.DIRECTORY, chain)
                    self.store.write(chain_pid)
                    child_entry = _Entry(child_entry.rect, chain_pid, False)
            node.entries.append(child_entry)
        elif entry.is_data:
            page: _DataPage = self.store.read(entry.pid)
            page.records.append((point, rid))
            if not entry.rect.contains_point(point):
                entry.rect = entry.rect.expanded_to_point(point)
                node.entries.touch()
            if len(page.records) > self._capacity:
                self._split_data_entry(node, entry, page)
            else:
                self.store.write(entry.pid)
        else:
            self._insert_descend(entry.pid, point, rid, at_root=False, depth=depth + 1)
            child: _DirNode = self.store.held(entry.pid)
            if self._packed:
                # Unsharing a page re-minimises its sharers, and after a
                # delete that can shrink the child's MBR: rebuild it.
                entry.rect = Rect.bounding([e.rect for e in child.entries])
                node.entries.touch()
            elif not entry.rect.contains_point(point):
                entry.rect = entry.rect.expanded_to_point(point)
                node.entries.touch()
            if self._node_overflowed(child):
                self._split_dir_entry(node, entry, child)
        self.store.write(pid)
        if at_root:
            while True:
                root_node: _DirNode = self.store.held(self._root_pid)
                if not self._node_overflowed(root_node):
                    break
                self._grow_root(root_node)

    def _choose_entry(self, node: _DirNode, point: tuple[float, ...]) -> _Entry | None:
        """The unique entry responsible for ``point``, enlarged if needed.

        Preference order: (a) the entry whose region already contains the
        point; (b) the entry whose *buddy rectangle* contains it; (c) the
        entry whose region can be enlarged so that the enlarged buddy
        rectangle stays clear of every sibling region.  ``None`` means
        the point lies in space no entry may claim.
        """
        entries = node.entries
        for entry in entries:
            # ``entry.rect.contains_point(point)``, inlined: the hottest
            # test of a BUDDY build.
            rect = entry.rect
            for lo, c, hi in zip(rect.lo, point, rect.hi):
                if not lo <= c <= hi:
                    break
            else:
                return entry
        dims = self.dims
        # (b) tests the *closed* buddy rectangle, not prefix containment:
        # a point on a buddy boundary is claimed by both siblings.  Buddy
        # rectangles of siblings are nested or disjoint otherwise; the
        # deepest (smallest) one is the responsible region, first wins.
        best: _Entry | None = None
        best_len = -1
        for entry in entries:
            bits = entry.block(dims)
            if len(bits) > best_len and blocks.block_rect(bits, dims).contains_point(point):
                best, best_len = entry, len(bits)
        if best is not None:
            return best
        point_code = blocks.point_code(point, dims)
        for entry in entries:
            bits, code = entry.buddy(dims)
            # Longest common prefix of the buddy block and the point.
            differing = (point_code >> (blocks.MAX_DEPTH - len(bits))) ^ code
            grown_len = len(bits) - differing.bit_length()
            if grown_len <= best_len:
                continue
            grown_rect = blocks.block_rect(bits[:grown_len], dims)
            if any(
                other is not entry and grown_rect.intersects(other.rect)
                for other in entries
            ):
                continue
            best, best_len = entry, grown_len
        return best

    # -- splitting ----------------------------------------------------------------

    def _split_records(
        self, records: list[tuple[tuple[float, ...], object]]
    ) -> tuple[list, list, Rect, Rect] | None:
        """Split records at the halving hyperplane of their minimal block."""
        mbr = Rect.bounding_points([p for p, _ in records])
        _, depth = blocks.enclosing_code(mbr, self.dims)
        if depth >= blocks.MAX_DEPTH:
            return None  # duplicate-degenerate page; caller tolerates overflow
        halving_bit = 1 << (blocks.MAX_DEPTH - 1 - depth)
        lower, upper = [], []
        for record in records:
            in_upper = blocks.point_code(record[0], self.dims) & halving_bit
            (upper if in_upper else lower).append(record)
        if not lower or not upper:
            return None
        return (
            lower,
            upper,
            Rect.bounding_points([p for p, _ in lower]),
            Rect.bounding_points([p for p, _ in upper]),
        )

    def _split_root_data_page(self, page: _DataPage) -> None:
        """First split of the file: the root data page becomes a directory."""
        parts = self._split_records(page.records)
        if parts is None:
            self.store.write(self._root_pid)
            return
        lower, upper, lo_mbr, hi_mbr = parts
        self.store.unpin(self._root_pid)
        lo_pid = self._root_pid
        page.records = lower
        hi_pid = self.store.allocate(PageKind.DATA, _DataPage(upper))
        root = _DirNode(
            [_Entry(lo_mbr, lo_pid, True), _Entry(hi_mbr, hi_pid, True)]
        )
        self._root_pid = self.store.allocate(PageKind.DIRECTORY, root)
        self._root_is_data = False
        self._levels = 1
        self.store.pin(self._root_pid)
        self.store.write(lo_pid)
        self.store.write(hi_pid)
        self.store.write(self._root_pid)

    def _split_data_entry(self, node: _DirNode, entry: _Entry, page: _DataPage) -> None:
        """Split a full data page into two sibling entries of ``node``."""
        if self._packed and self._shared_count(node, entry.pid) > 1:
            self._unpack_entry(node, entry, page)
            if entry not in node.entries:
                return  # region swallowed by a nested sibling; nothing to split
            page = self.store.read(entry.pid)
            if len(page.records) <= self._capacity:
                return
        parts = self._split_records(page.records)
        if parts is None:
            self.store.write(entry.pid)
            return
        lower, upper, lo_mbr, hi_mbr = parts
        page.records = lower
        entry.rect = lo_mbr
        node.entries.touch()
        new_pid = self.store.allocate(PageKind.DATA, _DataPage(upper))
        node.entries.append(_Entry(hi_mbr, new_pid, True))
        self.store.write(entry.pid)
        self.store.write(new_pid)

    def _split_entries(self, entries: list[_Entry]) -> tuple[list[_Entry], list[_Entry]]:
        """Partition directory entries at the halving line of their common block.

        Entry blocks never straddle a halving hyperplane of an enclosing
        block, so the partition is always clean; minimality of the common
        block guarantees both sides are non-empty.  (A best-balance
        variant that searches deeper halvings was tried and measured
        *worse* on five of the seven distributions — the one-against-rest
        splits of the plain halving keep regions tighter.)
        """
        # Entry blocks as (length, code left-aligned to MAX_DEPTH): the
        # common block ends at the first digit on which any two differ,
        # or where the shortest block does.
        aligned = []
        for e in entries:
            bits, code = e.buddy(self.dims)
            aligned.append((len(bits), code << (blocks.MAX_DEPTH - len(bits))))
        first = aligned[0][1]
        differing = 0
        for _, code in aligned:
            differing |= code ^ first
        depth = min(
            min(n for n, _ in aligned), blocks.MAX_DEPTH - differing.bit_length()
        )
        lower, upper, stuck = [], [], []
        for e, (n, code) in zip(entries, aligned):
            if n <= depth:
                stuck.append(e)
            elif code >> (blocks.MAX_DEPTH - 1 - depth) & 1:
                upper.append(e)
            else:
                lower.append(e)
        # An entry whose own block *equals* the common block (a degenerate
        # region around a shared center) goes with the smaller side.
        for e in stuck:
            (lower if len(lower) <= len(upper) else upper).append(e)
        if not lower or not upper:
            # All real blocks on one side: put the largest-region entry alone.
            every = lower or upper
            every.sort(key=lambda e: e.rect.area())
            return every[:-1], every[-1:]
        return lower, upper

    def _partition_until_fits(self, entries: list[_Entry]) -> list[list[_Entry]]:
        """Split entry groups by halving hyperplanes until each fits a page."""
        done: list[list[_Entry]] = []
        work = [entries]
        while work:
            group = work.pop()
            if len(group) <= self._fanout:
                done.append(group)
            else:
                work.extend(self._split_entries(group))
        return done

    def _unshare_split_groups(self, groups: list[list[_Entry]]) -> None:
        """Unpack data pages whose sharers straddle a directory split.

        Property 4 allows a data page to be shared only by entries of
        one and the same directory page; when a directory split is about
        to distribute sharing entries over different pages, the shared
        page is unpacked first.
        """
        if not self._packed:
            return
        group_of: dict[int, int] = {}
        straddling: list[int] = []
        for index, group in enumerate(groups):
            for e in group:
                if not e.is_data:
                    continue
                if e.pid in group_of and group_of[e.pid] != index:
                    if e.pid not in straddling:
                        straddling.append(e.pid)
                group_of.setdefault(e.pid, index)
        for pid in straddling:
            sharers = [
                e for group in groups for e in group if e.is_data and e.pid == pid
            ]
            for dropped in self._unshare(sharers, self.store.read(pid)):
                for group in groups:
                    if dropped in group:
                        group.remove(dropped)
                        break

    def _split_dir_entry(self, parent: _DirNode, entry: _Entry, child: _DirNode) -> None:
        """Split an overflowing directory page below ``parent``.

        One-entry halves are linked directly into the parent (property 1:
        no directory page has fewer than two entries).
        """
        groups = self._partition_until_fits(child.entries)
        self._unshare_split_groups(groups)
        parent.entries.remove(entry)
        reused_child_page = False
        for group in groups:
            if not group:  # every entry was dropped by unsharing
                continue
            if len(group) == 1 and not self.balanced:
                parent.entries.append(group[0])
                continue
            if not reused_child_page:
                pid = entry.pid
                child.entries = group
                reused_child_page = True
            else:
                pid = self.store.allocate(PageKind.DIRECTORY, _DirNode(group))
            parent.entries.append(
                _Entry(Rect.bounding([e.rect for e in group]), pid, False)
            )
            self.store.write(pid)
        if not reused_child_page:
            # Every group was a single entry; the child page disappears.
            self.store.free(entry.pid)

    def _grow_root(self, root: _DirNode) -> None:
        """Split an overflowing root, adding one directory level."""
        new_entries = []
        groups = self._partition_until_fits(root.entries)
        self._unshare_split_groups(groups)
        for group in groups:
            if not group:  # every entry was dropped by unsharing
                continue
            if len(group) == 1 and not self.balanced:
                new_entries.append(group[0])
            else:
                pid = self.store.allocate(PageKind.DIRECTORY, _DirNode(group))
                new_entries.append(
                    _Entry(Rect.bounding([e.rect for e in group]), pid, False)
                )
                self.store.write(pid)
        self._levels += 1
        self.store.unpin(self._root_pid)
        self.store.free(self._root_pid)
        self._root_pid = self.store.allocate(PageKind.DIRECTORY, _DirNode(new_entries))
        self.store.pin(self._root_pid)
        self.store.write(self._root_pid)

    def _node_overflowed(self, node: _DirNode) -> bool:
        return len(node.entries) > self._fanout

    # -- queries ---------------------------------------------------------------------

    def _range_query(self, rect: Rect) -> list[tuple[tuple[float, ...], object]]:
        store = self.store
        # One charged descent (see repro.query.traverse), preorder as the
        # recursion ran it: children pushed reversed.  Property 4 lets
        # several entries of one directory page share a data page, so
        # data pages are read once per query.
        read = store.read
        hits = traverse.RowSource(store.columnar, rect).hits
        result: list[tuple[tuple[float, ...], object]] = []
        seen_data: set[int] = set()
        stack = [(self._root_pid, self._root_is_data)]
        while stack:
            pid, is_data = stack.pop()
            if not is_data:
                entries = read(pid).entries
                if entries:
                    row = hits(
                        pid, "entries:isect", "isect",
                        entries, "entries:cover", _entry_boxes_cover,
                    )
                    kids = [entries[i] for i in reversed(row)]
                    stack.extend([(e.pid, e.is_data) for e in kids])
                continue
            if pid in seen_data:
                continue
            seen_data.add(pid)
            records = read(pid).records
            if records:
                row = hits(pid, "pts", "pts", records, "pts", fused_points)
                if row:
                    result.extend([records[i] for i in row])
        return result

    def _exact_match(self, point: tuple[float, ...]) -> list[object]:
        # Sibling regions are disjoint up to shared boundaries, so the
        # descent is single-path except for points lying exactly on a
        # region edge, where both touching regions must be probed.
        result: list[object] = []
        stack = [(self._root_pid, self._root_is_data)]
        seen: set[int] = set()
        while stack:
            pid, is_data = stack.pop()
            if pid in seen:
                continue
            seen.add(pid)
            if is_data:
                page: _DataPage = self.store.read(pid)
                result.extend(rid for p, rid in page.records if p == point)
                continue
            node: _DirNode = self.store.read(pid)
            for entry in node.entries:
                if entry.rect.contains_point(point):
                    stack.append((entry.pid, entry.is_data))
        return result

    # -- deletion (extension; the paper's comparison only grows files) -----------------

    def delete(self, point: tuple[float, ...], rid: object) -> bool:
        """Remove one record, re-minimising regions along the path.

        Empty data pages disappear; a directory page left with a single
        entry is collapsed into its parent (preserving property 1) — in
        the balanced variant only at the root, which then gives up a
        level.  Returns ``True`` when the record existed.
        """
        self.store.begin_operation()
        point = tuple(float(c) for c in point)
        if self._root_is_data:
            page: _DataPage = self.store.read(self._root_pid)
            if not delete_record(page.records, point, rid):
                return False
            self._records -= 1
            self.store.write(self._root_pid)
            return True
        deleted = self._delete_descend(self._root_pid, point, rid)
        if deleted:
            self._records -= 1
            # A one-entry root gives way to its child, one level less.  In
            # the balanced variant that child may itself hold one entry.
            while not self._root_is_data:
                root: _DirNode = self.store.held(self._root_pid)
                if len(root.entries) != 1:
                    break
                only = root.entries[0]
                self.store.unpin(self._root_pid)
                self.store.free(self._root_pid)
                self._root_pid = only.pid
                self._root_is_data = only.is_data
                self._levels -= 1
                self.store.pin(self._root_pid)
        return deleted

    def _delete_descend(self, pid: int, point: tuple[float, ...], rid: object) -> bool:
        node: _DirNode = self.store.read(pid)
        for entry in list(node.entries):
            # Boundary points may be contained in two touching regions;
            # keep trying candidates until the record is found.
            if not entry.rect.contains_point(point):
                continue
            if entry.is_data:
                page: _DataPage = self.store.read(entry.pid)
                if not delete_record(page.records, point, rid):
                    continue
                if page.records:
                    entry.rect = Rect.bounding_points([p for p, _ in page.records])
                    node.entries.touch()
                    self.store.write(entry.pid)
                else:
                    self.store.free(entry.pid)
                    node.entries.remove(entry)
            else:
                if not self._delete_descend(entry.pid, point, rid):
                    continue
                child: _DirNode = self.store.held(entry.pid)
                if len(child.entries) == 1 and not self.balanced:
                    # Property (1): lift the only entry into this page.  The
                    # balanced variant keeps the one-entry page instead, or
                    # that entry would sit one level above its peers.
                    node.entries[node.entries.index(entry)] = child.entries[0]
                    self.store.free(entry.pid)
                elif not child.entries:
                    self.store.free(entry.pid)
                    node.entries.remove(entry)
                else:
                    entry.rect = Rect.bounding([e.rect for e in child.entries])
                    node.entries.touch()
            self.store.write(pid)
            return True
        return False

    # -- packing: the BUDDY+ variant -------------------------------------------------

    def pack(self) -> int:
        """Merge underfilled sibling data pages that share a directory page.

        Property 4 of the paper: several entries of one and the same
        directory leaf may point to one data page, provided each region
        holds fewer than half a page of records.  Entries keep their
        (disjoint) regions; only the pages fuse.  Returns the number of
        data pages saved.
        """
        if self._root_is_data:
            return 0
        saved = 0
        stack = [self._root_pid]
        while stack:
            pid = stack.pop()
            # Probe the page and its data pages; only a page that fuses is held.
            node: _DirNode = self.store.peek(pid)
            stack.extend(e.pid for e in node.entries if not e.is_data)
            size = {e.pid: len(self.store.peek(e.pid).records) for e in node.entries if e.is_data}
            small = [
                i
                for i, e in enumerate(node.entries)
                if e.is_data
                and size[e.pid] < self._capacity / 2
                and self._shared_count(node, e.pid) == 1
            ]
            if len(small) < 2:  # two small pages always fit one page together
                continue
            entries = self.store.held(pid).entries
            group: list[_Entry] = []
            group_size = 0
            for i in sorted(small, key=lambda i: size[entries[i].pid]):
                n = size[entries[i].pid]
                if group and group_size + n > self._capacity:
                    saved += self._fuse(group)
                    group, group_size = [], 0
                group.append(entries[i])
                group_size += n
            saved += self._fuse(group)
            # _fuse repointed entries of this page at their group's
            # shared data page: the directory page changed too.
            self.store.write(pid)
        self._packed = True
        return saved

    def _fuse(self, group: list[_Entry]) -> int:
        if len(group) < 2:
            return 0
        target = group[0].pid
        target_page: _DataPage = self.store.held(target)
        for entry in group[1:]:
            donor: _DataPage = self.store.peek(entry.pid)  # read, then freed
            target_page.records.extend(donor.records)
            self.store.free(entry.pid)
            entry.pid = target
        self.store.write(target)
        return len(group) - 1

    def _shared_count(self, node: _DirNode, pid: int) -> int:
        return sum(1 for e in node.entries if e.is_data and e.pid == pid)

    def _unpack_entry(self, node: _DirNode, entry: _Entry, page: _DataPage) -> None:
        """Undo packing for one shared page before it must split."""
        sharers = [e for e in node.entries if e.is_data and e.pid == entry.pid]
        for dropped in self._unshare(sharers, page):
            node.entries.remove(dropped)
        node.entries.touch()  # _unshare rebinds surviving sharers' MBRs

    def _unshare(self, sharers: list[_Entry], page: _DataPage) -> list[_Entry]:
        """Give every sharer its own page again; returns dropped entries.

        Each record is claimed by the *smallest* sharer region containing
        it — sibling MBRs can nest around degenerate blocks, so first-match
        claiming would misfile records.  Every surviving region is then
        recomputed as the exact MBR of its records (the structure's
        defining invariant); a sharer whose region was swallowed whole by
        a nested sibling ends up empty and is dropped — the caller must
        remove the returned entries from their directory page.
        """
        claims: dict[int, list] = {id(s): [] for s in sharers}
        leftover: list = []
        for record in page.records:
            containing = [s for s in sharers if s.rect.contains_point(record[0])]
            if containing:
                owner = min(containing, key=lambda s: s.rect.area())
                claims[id(owner)].append(record)
            else:
                leftover.append(record)
        survivors = [s for s in sharers if claims[id(s)]]
        if not survivors:
            survivors = sharers[:1]
        claims[id(survivors[0])].extend(leftover)
        first = True
        for sharer in survivors:
            owned = claims[id(sharer)]
            if owned:
                sharer.rect = Rect.bounding_points([p for p, _ in owned])
            if first:
                page.records = owned
                first = False
            else:
                sharer.pid = self.store.allocate(PageKind.DATA, _DataPage(owned))
            self.store.write(sharer.pid)
        return [s for s in sharers if s not in survivors]
