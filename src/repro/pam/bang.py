"""BANG — the Balanced And Nested Grid file [Fre 87].

The BANG file partitions the data space into binary-partition *blocks*
(:mod:`repro.geometry.blocks`); the **region** of a block is its
rectangle minus the rectangles of the blocks nested inside it, so a
record lives on the data page of the *smallest* block containing it.
Splitting a full page extracts the sub-block giving the best balance,
which either halves the page or *nests* a new block inside it — the
mechanism that adapts to distributions where "almost all of the data
occurs in a few relatively small cluster points".

The directory is a balanced tree built by exactly the same nesting
process over directory pages.  Following the paper's §3, the
implementation does **not** include the "spanning property": a directory
node's region need not be spanned by its entries, so searches may have
to probe several branches (the search path can exceed the tree height),
which is the penalty on small range queries discussed in §5.  Passing
``spanning=True`` simulates a spanning directory by charging a single
root-to-leaf path — the guarantee the spanning property provides — and
is used by the ablation bench.

``variable_length_entries=True`` gives the BANG* variant of Tables
5.1/5.2: directory entries are charged ``4 + 2 + ceil(bits/8)`` bytes
instead of the fixed maximum, so directory pages hold more entries.

``minimal_regions=True`` implements the paper's closing suggestion (§9):
"it might be worthwhile to incorporate this performance improving
concept [not partitioning empty data space] into other methods, in
particular into the BANG file".  Every directory entry then also carries
the minimal bounding rectangle of the data below it (costing
``2·d·4`` extra bytes per entry), and queries prune any branch whose
region does not meet the query — BUDDY's key idea grafted onto BANG.
The ``ABL-BANG-MBR`` bench quantifies the §9 prediction.
"""

from __future__ import annotations

import numpy as np

from repro.core.interfaces import PointAccessMethod
from repro.geometry import blocks
from repro.geometry.blocks import Bits
from repro.geometry.rect import Rect
from repro.storage import layout
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore
from repro.query import traverse
from repro.storage.soa import fused_points, soa_field

__all__ = ["BangFile"]


class _DataPage:
    """A data page holding the records of one block region."""

    __slots__ = ("bits", "_soa_records")

    records = soa_field()

    def __init__(self, bits: Bits):
        self.bits = bits
        self.records: list[tuple[tuple[float, ...], object]] = []


class _Entry:
    """A directory entry: a block, the page it points to and, in the
    minimal-regions variant, the minimal bounding rectangle below it."""

    __slots__ = ("bits", "pid", "mbr")

    def __init__(self, bits: Bits, pid: int, mbr: Rect | None = None):
        self.bits = bits
        self.pid = pid
        self.mbr = mbr


def _entry_codes(lst) -> list[tuple[int, int]]:
    """``(packed block, MAX_DEPTH - length)`` per directory entry.

    The block holds a point of packed address ``code`` iff
    ``code >> shift == packed``.  Entry blocks are never rebound, so the
    view stays valid until the entry list itself mutates.
    """
    return [
        (blocks.code_of_bits(e.bits), blocks.MAX_DEPTH - len(e.bits)) for e in lst
    ]


def _entry_code_index(lst) -> list[tuple[int, dict[int, list[int]]]]:
    """The ``"codes"`` view inverted: ``(shift, {packed block: [entry
    index, ...]})`` per distinct shift, smallest shift (longest block)
    first, indices in page order.

    A point of packed address ``code`` lies in exactly the entries listed
    under ``code >> shift`` of each shift, so a descent probes one dict
    per block length instead of comparing with every entry.
    """
    by_shift: dict[int, dict[int, list[int]]] = {}
    for i, (prefix, shift) in enumerate(lst.view("codes", _entry_codes)):
        by_shift.setdefault(shift, {}).setdefault(prefix, []).append(i)
    return sorted(by_shift.items())


def _mbr_holds(entry: _Entry, point: tuple[float, ...]) -> bool:
    """The minimal-regions gate of an exact match: the entry's MBR holds ``point``."""
    return entry.mbr is not None and entry.mbr.contains_point(point)


class _DirNode:
    """A directory page: its own block plus nested child entries."""

    __slots__ = ("bits", "is_leaf", "_soa_entries")

    entries = soa_field()

    def __init__(self, bits: Bits, is_leaf: bool):
        self.bits = bits
        self.is_leaf = is_leaf
        self.entries: list[_Entry] = []


class BangFile(PointAccessMethod):
    """The BANG file (and, with ``variable_length_entries``, BANG*)."""

    def __init__(
        self,
        store: PageStore,
        dims: int = 2,
        spanning: bool = False,
        variable_length_entries: bool = False,
        minimal_regions: bool = False,
    ):
        super().__init__(store, dims, layout.point_record_size(dims))
        self._capacity = layout.data_page_capacity(self.record_size, store.page_size)
        self._dir_payload = layout.directory_page_payload(store.page_size)
        self.spanning = spanning
        self.variable_length_entries = variable_length_entries
        self.minimal_regions = minimal_regions
        first = store.allocate(PageKind.DATA, _DataPage(()))
        root = _DirNode((), is_leaf=True)
        root.entries.append(_Entry((), first))
        self._root_pid = store.allocate(PageKind.DIRECTORY, root)
        store.pin(self._root_pid)
        store.write(first)
        store.write(self._root_pid)
        self._height = 1
        #: In-memory mirror of all data blocks, used for split decisions
        #: (a real implementation reads them off the pages it already
        #: has in hand) and by the tests' invariant checks.
        self._data_blocks: dict[Bits, int] = {(): first}

    # -- plumbing -----------------------------------------------------------

    @property
    def record_capacity(self) -> int:
        return self._capacity

    @property
    def directory_height(self) -> int:
        """Number of directory levels (the tree is balanced)."""
        return self._height

    def _snapshot_pages(self):
        """Uncharged :class:`PageView` walk (see :mod:`repro.obs.structure`).

        A page's region is its block rectangle — or, in the
        minimal-regions variant, the exact MBR its entry carries.
        Directory pages are byte-budget (capacity 0).
        """
        from repro.obs.structure import PageView

        def region_of(entry: _Entry) -> Rect:
            if entry.mbr is not None:
                return entry.mbr
            return blocks.block_rect(entry.bits, self.dims)

        queue: list[tuple[int, int]] = [(self._root_pid, 0)]
        i = 0
        while i < len(queue):
            pid, depth = queue[i]
            i += 1
            node: _DirNode = self.store.peek(pid)
            yield PageView(
                pid=pid,
                kind="directory",
                depth=depth,
                regions=(blocks.block_rect(node.bits, self.dims),),
                records=len(node.entries),
                capacity=0,
                children=tuple(e.pid for e in node.entries),
                entry_regions=tuple(region_of(e) for e in node.entries),
            )
            for e in node.entries:
                if node.is_leaf:
                    page: _DataPage = self.store.peek(e.pid)
                    yield PageView.data(
                        e.pid, depth + 1, (region_of(e),), self._capacity, page.records
                    )
                else:
                    queue.append((e.pid, depth + 1))

    def _entry_bytes(self, bits: Bits) -> int:
        """On-page size of one directory entry."""
        if self.variable_length_entries:
            block_bytes = 2 + -(-len(bits) // 8)
        else:
            block_bytes = 2 + blocks.MAX_DEPTH // 8
        region_bytes = 2 * self.dims * layout.COORD_SIZE if self.minimal_regions else 0
        return layout.POINTER_SIZE + block_bytes + region_bytes

    def _node_bytes(self, node: _DirNode) -> int:
        return sum(self._entry_bytes(e.bits) for e in node.entries)

    def _node_overflowed(self, node: _DirNode) -> bool:
        return self._node_bytes(node) > self._dir_payload

    # -- searching ------------------------------------------------------------

    def _point_bits(self, point: tuple[float, ...]) -> Bits:
        return blocks.bits_of_point(point, self.dims, blocks.MAX_DEPTH)

    def _point_code(self, point: tuple[float, ...]) -> int:
        """``_point_bits`` packed: block ``b`` holds the point iff
        ``code >> (MAX_DEPTH - len(b)) == code_of_bits(b)``."""
        return blocks.point_code(point, self.dims)

    def _record_codes(self, lst) -> list[int]:
        """``_point_code`` per record: one pass serves a split and its chooser."""
        return [blocks.point_code(p, self.dims) for p, _ in lst]

    def _best_data_entry(self, bits: Bits) -> tuple[int, Bits]:
        """(data pid, block) of the longest data block that is a prefix of ``bits``.

        Pure in-memory computation on the block mirror; used to simulate
        the spanning property and for internal routing decisions.
        """
        best: Bits | None = None
        for block in self._data_blocks:
            if blocks.is_prefix(block, bits):
                if best is None or len(block) > len(best):
                    best = block
        if best is None:
            raise RuntimeError("block mirror lost the root block")
        return self._data_blocks[best], best

    def _search_data_page(self, point: tuple[float, ...], prune: bool = False) -> int:
        """Charged directory search for the data page owning ``point``.

        Without the spanning property this is a multi-branch probe: every
        entry whose block contains the point may hide a deeper block, so
        all such branches are read (deepest first).  With ``spanning``
        the search is the guaranteed single path.

        ``prune`` enables minimal-region pruning (queries only — inserts
        must find the block-determined target page even when the point
        falls outside its current region).
        """
        code = self._point_code(point)
        if self.spanning:
            return self._spanning_descent(blocks.bits_of_code(code, blocks.MAX_DEPTH))
        # A minimal-regions query also needs the branch's MBR to hold the point.
        pruned = prune and self.minimal_regions
        read = self.store.read
        best_pid, best_shift = -1, blocks.MAX_DEPTH + 1
        stack = [self._root_pid]
        while stack:
            node: _DirNode = read(stack.pop())
            entries = node.entries
            index = entries.view("code_index", _entry_code_index)
            if node.is_leaf:
                # Longest block first: the first hit is this leaf's best,
                # and the first entry listed under it wins a tie, as the
                # page-order scan kept it.
                for shift, owners in index:
                    if shift >= best_shift:
                        break
                    hit = owners.get(code >> shift, ())
                    if pruned:
                        hit = [i for i in hit if _mbr_holds(entries[i], point)]
                    if hit:
                        best_pid, best_shift = entries[hit[0]].pid, shift
                        break
            else:
                # Every matching entry is probed; push them in page order.
                hits = [i for shift, owners in index for i in owners.get(code >> shift, ())]
                if pruned:
                    hits = [i for i in hits if _mbr_holds(entries[i], point)]
                hits.sort()
                stack.extend([entries[i].pid for i in hits])
        return best_pid

    def _spanning_descent(self, bits: Bits) -> int:
        """Single-path search as guaranteed by the spanning property.

        The destination is computed from the block mirror; one directory
        page per level is charged, which is exactly the cost a spanning
        directory achieves.
        """
        target_pid, target_block = self._best_data_entry(bits)
        leaf = self._locate_leaf_uncharged(target_block)
        self._charge_path_to(leaf)
        return target_pid

    def _locate_leaf_uncharged(self, bits: Bits) -> int:
        """Leaf pid holding (or due to hold) the entry for block ``bits``."""
        best_leaf, best_len = self._root_pid, -1
        stack = [self._root_pid]
        while stack:
            pid = stack.pop()
            node: _DirNode = self.store.peek(pid)
            if node.is_leaf:
                if blocks.is_prefix(node.bits, bits) and len(node.bits) > best_len:
                    best_leaf, best_len = pid, len(node.bits)
                continue
            for entry in node.entries:
                if blocks.is_prefix(entry.bits, bits):
                    stack.append(entry.pid)
        return best_leaf

    def _charge_path_to(self, leaf_pid: int) -> None:
        """Charge the root-to-leaf path (used by the spanning simulation)."""
        path = self._path_to(self._root_pid, leaf_pid)
        for pid in path:
            self.store.read(pid)

    def _path_to(self, pid: int, target: int) -> list[int] | None:
        if pid == target:
            return [pid]
        node: _DirNode = self.store.peek(pid)
        if node.is_leaf:
            return None
        for entry in node.entries:
            sub = self._path_to(entry.pid, target)
            if sub is not None:
                return [pid] + sub
        return None

    def _locate_leaf_charged(self, bits: Bits) -> int:
        """Charged search for the leaf where an entry for ``bits`` belongs."""
        if self.spanning:
            leaf = self._locate_leaf_uncharged(bits)
            self._charge_path_to(leaf)
            return leaf
        best_leaf, best_len = self._root_pid, -1
        stack = [self._root_pid]
        while stack:
            pid = stack.pop()
            node: _DirNode = self.store.read(pid)
            if node.is_leaf:
                if blocks.is_prefix(node.bits, bits) and len(node.bits) > best_len:
                    best_leaf, best_len = pid, len(node.bits)
                continue
            for entry in node.entries:
                if blocks.is_prefix(entry.bits, bits):
                    stack.append(entry.pid)
        return best_leaf

    # -- insertion ------------------------------------------------------------

    def _insert(self, point: tuple[float, ...], rid: object) -> None:
        pid = self._search_data_page(point)
        page: _DataPage = self.store.read(pid)
        page.records.append((point, rid))
        if len(page.records) <= self._capacity:
            self.store.write(pid)
            if self.minimal_regions:
                self._grow_region(page.bits, point)
            return
        new_block = self._split_data_page(pid, page)
        if self.minimal_regions:
            self._refresh_region(page.bits)
            if new_block is not None:
                # The new entry may have landed in another leaf.
                self._recompute_regions_upward(self._locate_leaf_uncharged(new_block))

    def _split_data_page(self, pid: int, page: _DataPage) -> Bits | None:
        """Split an overfull page; returns the new block, if one was cut."""
        sub_block = self._choose_split_block(page)
        if sub_block is None:
            self.store.write(pid)  # duplicate-degenerate page: tolerate overflow
            return None
        prefix = blocks.code_of_bits(sub_block)
        shift = blocks.MAX_DEPTH - len(sub_block)
        inner, outer = [], []
        codes = page.records.view("codes", self._record_codes)
        for record, code in zip(page.records, codes):
            (inner if code >> shift == prefix else outer).append(record)
        page.records = outer
        new_page = _DataPage(sub_block)
        new_page.records = inner
        new_pid = self.store.allocate(PageKind.DATA, new_page)
        self._data_blocks[sub_block] = new_pid
        self.store.write(pid)
        self.store.write(new_pid)
        mbr = None
        if self.minimal_regions and inner:
            mbr = Rect.bounding_points([p for p, _ in inner])
        self._add_directory_entry(_Entry(sub_block, new_pid, mbr))
        return sub_block

    def _choose_split_block(self, page: _DataPage) -> Bits | None:
        """Best-balance proper sub-block of the page's block.

        Walks down the halving hierarchy, at each level following the
        fuller half, and keeps the candidate whose inside/outside record
        counts are most balanced.  Candidates equal to an existing data
        block are skipped (the block is already someone else's region).
        """
        total = len(page.records)
        current = page.bits
        depth = len(current)
        prefix = blocks.code_of_bits(current)
        shift = blocks.MAX_DEPTH - depth
        # Record codes inside the current block; only the chosen half
        # survives each level, so one bit per code per level is tested.
        codes = page.records.view("codes", self._record_codes)
        inside = [code for code in codes if code >> shift == prefix]
        best: Bits | None = None
        best_imbalance = total + 1
        while depth < blocks.MAX_DEPTH:
            bit = 1 << (blocks.MAX_DEPTH - 1 - depth)
            zeros = [code for code in inside if not code & bit]
            count0 = len(zeros)
            count1 = len(inside) - count0
            if count0 == 0 and count1 == 0:
                break
            if count0 >= count1:
                current, inside, inner = current + (0,), zeros, count0
            else:
                current, inner = current + (1,), count1
                inside = [code for code in inside if code & bit]
            depth += 1
            if 0 < inner < total and current not in self._data_blocks:
                imbalance = abs(inner - (total - inner))
                if imbalance < best_imbalance:
                    best_imbalance = imbalance
                    best = current
        return best

    def _add_directory_entry(self, entry: _Entry) -> None:
        leaf_pid = self._locate_leaf_charged(entry.bits)
        leaf: _DirNode = self.store.read(leaf_pid)
        leaf.entries.append(entry)
        self.store.write(leaf_pid)
        self._split_directory_if_needed(leaf_pid, leaf)

    def _split_directory_if_needed(self, pid: int, node: _DirNode) -> None:
        if not self._node_overflowed(node):
            return
        sub_block = self._choose_directory_split_block(pid, node)
        if sub_block is None:
            return  # cannot split (all entries share one block); tolerate
        inner = [e for e in node.entries if blocks.is_prefix(sub_block, e.bits)]
        node.entries = [
            e for e in node.entries if not blocks.is_prefix(sub_block, e.bits)
        ]
        new_node = _DirNode(sub_block, node.is_leaf)
        new_node.entries = inner
        new_pid = self.store.allocate(PageKind.DIRECTORY, new_node)
        self.store.write(pid)
        self.store.write(new_pid)
        if pid == self._root_pid:
            old_root = node
            new_root = _DirNode((), is_leaf=False)
            new_root.entries.append(_Entry(old_root.bits, pid, self._node_region(node)))
            new_root.entries.append(_Entry(sub_block, new_pid, self._node_region(new_node)))
            self.store.unpin(pid)
            root_pid = self.store.allocate(PageKind.DIRECTORY, new_root)
            self._root_pid = root_pid
            self.store.pin(root_pid)
            self.store.write(root_pid)
            self._height += 1
        else:
            parent_pid, parent = self._find_parent(pid)
            parent.entries.append(_Entry(sub_block, new_pid, self._node_region(new_node)))
            if self.minimal_regions:
                shrunk = next(e for e in parent.entries if e.pid == pid)
                shrunk.mbr = self._node_region(node)
                parent.entries.touch("mbrs:cover")
            self.store.write(parent_pid)
            self._split_directory_if_needed(parent_pid, parent)

    def _choose_directory_split_block(self, pid: int, node: _DirNode) -> Bits | None:
        """Best-balance sub-block over the entry blocks of page ``pid``."""
        total = len(node.entries)
        sibling_blocks = self._sibling_blocks(pid)
        current = node.bits
        depth = len(current)
        prefix = blocks.code_of_bits(current)
        shift = blocks.MAX_DEPTH - depth
        # Left-aligned codes of the entry blocks nested in the current
        # block, with their shifts (MAX_DEPTH - length): an entry survives
        # a level only if its block is *longer* than the candidate's
        # parent and carries the chosen bit there.
        inside = [
            (code << s, s)
            for code, s in node.entries.view("codes", _entry_codes)
            if s <= shift and code >> (shift - s) == prefix
        ]
        best: Bits | None = None
        best_imbalance = total + 1
        while depth < blocks.MAX_DEPTH:
            shift -= 1
            bit = 1 << shift
            zeros = [(a, s) for a, s in inside if s <= shift and not a & bit]
            count0 = len(zeros)
            # As in the tuple form, the upper count also takes the entries
            # whose block *is* the current block.
            count1 = len(inside) - count0
            if count0 == 0 and count1 == 0:
                break
            if count0 >= count1:
                current, inside, inner = current + (0,), zeros, count0
            else:
                current, inner = current + (1,), count1
                inside = [(a, s) for a, s in inside if s <= shift and a & bit]
            depth += 1
            if 0 < inner < total and current not in sibling_blocks:
                imbalance = abs(inner - (total - inner))
                if imbalance < best_imbalance:
                    best_imbalance = imbalance
                    best = current
        return best

    def _sibling_blocks(self, pid: int) -> set[Bits]:
        """Blocks of all directory nodes at the same level as page ``pid``."""
        level_nodes = [self.store.peek(self._root_pid)]
        depth = 0
        target_depth = self._node_depth(pid)
        while depth < target_depth:
            nxt = []
            for n in level_nodes:
                nxt.extend(self.store.peek(e.pid) for e in n.entries)
            level_nodes = nxt
            depth += 1
        return {n.bits for n in level_nodes}

    def _node_depth(self, target: int) -> int:
        def walk(pid: int, depth: int) -> int | None:
            if pid == target:
                return depth
            n: _DirNode = self.store.peek(pid)
            if n.is_leaf:
                return None
            for e in n.entries:
                found = walk(e.pid, depth + 1)
                if found is not None:
                    return found
            return None

        found = walk(self._root_pid, 0)
        if found is None:
            raise RuntimeError("node not reachable from root")
        return found

    def _find_parent(self, pid: int) -> tuple[int, _DirNode]:
        def walk(current: int) -> int | None:
            node: _DirNode = self.store.peek(current)
            if node.is_leaf:
                return None
            for e in node.entries:
                if e.pid == pid:
                    return current
                found = walk(e.pid)
                if found is not None:
                    return found
            return None

        parent_pid = walk(self._root_pid)
        if parent_pid is None:
            raise RuntimeError("parent not found")
        # Reading the parent is charged: a real split must fetch it.
        return parent_pid, self.store.read(parent_pid)


    # -- minimal regions (the §9 extension) --------------------------------------

    def _leaf_entry(self, block: Bits) -> tuple[int, "_DirNode", _Entry]:
        leaf_pid = self._locate_leaf_uncharged(block)
        leaf: _DirNode = self.store.held(leaf_pid)
        entry = next(e for e in leaf.entries if e.bits == block)
        return leaf_pid, leaf, entry

    def _grow_region(self, block: Bits, point: tuple[float, ...]) -> None:
        """Expand the region of ``block``, and those above it, to cover ``point``."""
        leaf_pid, leaf, entry = self._leaf_entry(block)
        if entry.mbr is not None and entry.mbr.contains_point(point):
            return
        entry.mbr = (
            Rect.from_point(point)
            if entry.mbr is None
            else entry.mbr.expanded_to_point(point)
        )
        leaf.entries.touch("mbrs:cover")
        self.store.write(leaf_pid)
        self._recompute_regions_upward(leaf_pid)

    def _refresh_region(self, block: Bits) -> None:
        """Recompute the region of ``block`` (after a split shrank it)."""
        leaf_pid, leaf, entry = self._leaf_entry(block)
        page: _DataPage = self.store.held(entry.pid)
        entry.mbr = (
            Rect.bounding_points([p for p, _ in page.records])
            if page.records
            else None
        )
        leaf.entries.touch("mbrs:cover")
        self.store.write(leaf_pid)
        self._recompute_regions_upward(leaf_pid)

    def _recompute_regions_upward(self, leaf_pid: int) -> None:
        path = self._path_to(self._root_pid, leaf_pid) or []
        for parent_pid, child_pid in zip(reversed(path[:-1]), reversed(path[1:])):
            parent: _DirNode = self.store.held(parent_pid)
            parent_entry = next(e for e in parent.entries if e.pid == child_pid)
            new_mbr = self._node_region(self.store.held(child_pid))
            # No early exit: a directory split below may have just set
            # this level while a stale one waits above it.
            if new_mbr != parent_entry.mbr:
                parent_entry.mbr = new_mbr
                parent.entries.touch("mbrs:cover")
                self.store.write(parent_pid)

    def _node_region(self, node: "_DirNode") -> Rect | None:
        regions = [e.mbr for e in node.entries if e.mbr is not None]
        return Rect.bounding(regions) if regions else None

    # -- queries ----------------------------------------------------------------

    def _build_blocks_cover(self, lst) -> "np.ndarray":
        """``[lo, -hi]`` fused rows over a page's entry block rectangles."""
        dims = self.dims
        rects_ = [blocks.block_rect(e.bits, dims) for e in lst]
        lo = np.array([r.lo for r in rects_])
        hi = np.array([r.hi for r in rects_])
        return np.concatenate([lo, -hi], axis=1)

    def _build_mbrs_cover(self, lst) -> "np.ndarray":
        """Fused rows over entry MBRs; entries without one are NaN rows,
        which compare false in every kernel (they can never match)."""
        lo = np.full((len(lst), self.dims), np.nan)
        hi = np.full((len(lst), self.dims), np.nan)
        for i, entry in enumerate(lst):
            if entry.mbr is not None:
                lo[i] = entry.mbr.lo
                hi[i] = entry.mbr.hi
        return np.concatenate([lo, -hi], axis=1)

    def _build_residual(self, lst) -> tuple:
        """``(nested, owner, rows)``: the residual column of a leaf page.

        The region of an entry with sibling blocks nested inside it is
        its block minus those blocks, tiled by disjoint dyadic *pieces*
        (:func:`repro.geometry.blocks.nested_residuals`); blocks are
        half-open, so a record of the entry lies in exactly one piece.
        ``rows`` holds each piece as one fused ``[lo, -hi]`` row with
        ``hi`` replaced by its float predecessor (``q.lo < hi`` iff
        ``q.lo <= pred(hi)``), except at 1.0, which the quantiser clamps
        inward.  ``owner[row]`` is the entry a row belongs to, ``nested``
        the set of entries with nested siblings at all.  Depends on the
        entry blocks only, so it lives until the entry list mutates.
        """
        dims = self.dims
        nested: set[int] = set()
        owner: list[int] = []
        pieces: list[Rect] = []
        for i, tiles in enumerate(blocks.nested_residuals([e.bits for e in lst])):
            if tiles is not None:
                nested.add(i)
                owner.extend([i] * len(tiles))
                pieces.extend([blocks.block_rect(t, dims) for t in tiles])
        rows = np.array([r.lo + r.hi for r in pieces]).reshape(len(pieces), 2 * dims)
        neg_hi = rows[:, dims:]
        np.negative(neg_hi, out=neg_hi)
        # In the fused encoding the predecessor of hi is one float *up*.
        np.nextafter(neg_hi, np.inf, out=neg_hi, where=neg_hi > -1.0)
        return nested, owner, rows

    def _build_residual_cover(self, lst) -> "np.ndarray":
        """The fused rows of :meth:`_build_residual`, as the kernels take them."""
        return lst.view("residual", self._build_residual)[2]

    def _keep_leaf_entries(self, entries, idx: list, r_row: list) -> list:
        """Filter a leaf's block/MBR hits by the nesting rule: an entry
        with sibling blocks nested inside it holds reachable records only
        where the query meets one of its residual pieces.  ``r_row`` is
        the query's intersection verdict over the residual rows."""
        nested, owner, _ = entries.view("residual", self._build_residual)
        if not nested:
            return idx
        kept = {owner[row] for row in r_row}
        return [i for i in idx if i not in nested or i in kept]

    def _range_query(self, rect: Rect) -> list[tuple[tuple[float, ...], object]]:
        store = self.store
        # One charged descent (see repro.query.traverse): the block and,
        # with minimal regions, MBR gates of the page just read, and on a
        # leaf the nesting-coverage gate over its residual rows; the
        # surviving data pages are read in entry order.
        read = store.read
        hits = traverse.RowSource(store.columnar, rect).hits
        minimal = self.minimal_regions
        result: list[tuple[tuple[float, ...], object]] = []
        stack = [self._root_pid]
        while stack:
            pid = stack.pop()
            node = read(pid)
            entries = node.entries
            if not entries:
                continue
            idx = hits(
                pid, "blocks:isect", "isect",
                entries, "blocks:cover", self._build_blocks_cover,
            )
            if minimal:
                inside = set(hits(
                    pid, "mbrs:isect", "isect",
                    entries, "mbrs:cover", self._build_mbrs_cover,
                ))
                idx = [i for i in idx if i in inside]
            if not node.is_leaf:
                stack.extend([entries[i].pid for i in idx])
                continue
            r_row = hits(
                pid, "residual:isect", "isect",
                entries, "residual:cover", self._build_residual_cover,
            )
            for i in self._keep_leaf_entries(entries, idx, r_row):
                dpid = entries[i].pid
                records = read(dpid).records
                if records:
                    row = hits(dpid, "pts", "pts", records, "pts", fused_points)
                    if row:
                        result.extend([records[j] for j in row])
        return result

    def _exact_match(self, point: tuple[float, ...]) -> list[object]:
        pid = self._search_data_page(point, prune=True)
        if pid < 0:
            return []
        page: _DataPage = self.store.read(pid)
        return [rid for p, rid in page.records if p == point]
