"""Per-structure invariant auditors for every PAM and SAM.

Each auditor walks its structure through the page store's uncharged
audit accessors (:meth:`~repro.storage.pagestore.PageStore.peek` and
friends) and checks the structural invariants documented in DESIGN.md.
Auditors are looked up through the MRO, so subclasses inherit their base
class's auditor (``MultilevelGridFile`` uses the BUDDY auditor,
``QuantileHashing`` the PLOP one).

Tolerated overflows — pages an implementation legitimately leaves over
capacity because no admissible split exists — are re-derived here by
calling the structure's own *pure* split chooser: a page may exceed its
capacity only if the chooser returns "no split possible" for its current
contents.
"""

from __future__ import annotations

from typing import Callable

from repro.geometry import blocks
from repro.geometry.rect import Rect
from repro.geometry.zorder import decompose_rect
from repro.pam.bang import BangFile
from repro.pam.buddytree import BuddyTree
from repro.pam.gridfile import GridFile
from repro.pam.hbtree import HBTree
from repro.pam.kdbtree import KdBTree
from repro.pam.plop import PlopHashing
from repro.pam.twingrid import TwinGridFile
from repro.pam.twolevelgrid import TwoLevelGridFile
from repro.pam.zbtree import ZOrderBTree
from repro.sam.clipping import _MAX_DEPTH as _CLIP_MAX_DEPTH
from repro.sam.clipping import ClippingSAM
from repro.sam.overlapping import OverlappingPlop
from repro.sam.rplustree import RPlusTree
from repro.sam.rtree import RTree
from repro.sam.transformation import TransformationSAM
from repro.storage.page import PageKind
from repro.verify.invariants import (
    Audit,
    Violation,
    check_bplus_tree,
    check_grid_layer,
    check_plop_grid,
)

__all__ = ["AUDITORS", "register", "run_audit"]

#: Structure class -> auditor; resolved through the MRO by `run_audit`.
AUDITORS: dict[type, Callable[[Audit], None]] = {}


def register(cls: type):
    def deco(fn: Callable[[Audit], None]):
        AUDITORS[cls] = fn
        return fn

    return deco


def run_audit(am) -> list[Violation]:
    """Audit ``am`` with the auditor registered for its closest class."""
    for klass in type(am).__mro__:
        fn = AUDITORS.get(klass)
        if fn is not None:
            audit = Audit(am)
            fn(audit)
            audit.check_record_count()
            return audit.violations
    return [
        Violation(
            "auditor.missing",
            f"no auditor registered for {type(am).__name__}",
        )
    ]


# -- shared geometric checks ----------------------------------------------

#: Absolute slack for volume bookkeeping of region partitions.
_AREA_EPS = 1e-9


def _check_partition(audit: Audit, region: Rect, rects, prefix: str) -> None:
    """``rects`` must tile ``region``: contained, interior-disjoint, complete."""
    total = 0.0
    for r in rects:
        audit.check(
            region.contains_rect(r),
            f"{prefix}.containment",
            f"child region {r} escapes its parent region {region}",
        )
        total += r.area()
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            inter = rects[i].intersection(rects[j])
            audit.check(
                inter is None or inter.area() <= _AREA_EPS,
                f"{prefix}.disjoint",
                f"sibling regions {rects[i]} and {rects[j]} overlap in "
                f"{inter}",
            )
    audit.check(
        abs(total - region.area()) <= _AREA_EPS,
        f"{prefix}.complete",
        f"child regions cover volume {total}, parent region has "
        f"{region.area()} (the partition must be complete)",
    )


def _half_extents_bounded(audit: Audit, am, rect: Rect, code: str) -> None:
    for axis in range(am.dims):
        half = (rect.hi[axis] - rect.lo[axis]) / 2.0
        audit.check(
            half <= am._max_extent[axis] + 1e-12,
            code,
            f"stored rect {rect} has half-extent {half} on axis {axis}, "
            f"above the recorded maximum {am._max_extent[axis]}",
        )


# -- BUDDY hash tree (and the balanced MLGF variant) ----------------------


@register(BuddyTree)
def _audit_buddy(a: Audit) -> None:
    am = a.am
    dims = am.dims
    pins = {am._root_pid}
    if am._root_is_data:
        a.check_kind(am._root_pid, PageKind.DATA, "buddy.kind")
        page = a.store.peek(am._root_pid)
        if len(page.records) > am._capacity:
            a.check(
                am._split_records(page.records) is None,
                "buddy.data-capacity",
                f"root data page holds {len(page.records)} records over "
                f"capacity {am._capacity} although a split is possible",
            )
        a.check_page_accounting({am._root_pid}, pins)
        return
    dir_pids: set[int] = set()
    data_refs: dict[int, list[tuple]] = {}  # pid -> [(entry, node pid, depth)]
    stack = [(am._root_pid, 1, None)]
    while stack:
        pid, depth, ref_rect = stack.pop()
        if not a.check(
            pid not in dir_pids,
            "buddy.dir-shared",
            f"directory page {pid} is referenced more than once",
        ):
            continue
        dir_pids.add(pid)
        a.check_kind(pid, PageKind.DIRECTORY, "buddy.kind")
        node = a.store.peek(pid)
        a.check(
            len(node.entries) <= am._fanout,
            "buddy.fanout",
            f"directory page {pid} holds {len(node.entries)} entries, "
            f"fanout {am._fanout}",
        )
        least = 1 if am.balanced and pid != am._root_pid else 2
        a.check(
            len(node.entries) >= least,
            "buddy.min-entries",
            f"directory page {pid} holds {len(node.entries)} entries, "
            f"minimum {least}",
        )
        if ref_rect is not None and node.entries:
            got = Rect.bounding([e.rect for e in node.entries])
            a.check(
                ref_rect == got,
                "buddy.mbr-exact",
                f"entry region {ref_rect} for directory page {pid} is not "
                f"the exact MBR {got} of its entries",
            )
        ref_block = (
            blocks.min_enclosing_block(ref_rect, dims)
            if ref_rect is not None
            else ()
        )
        for e in node.entries:
            a.check(
                blocks.is_prefix(ref_block, e.block(dims)),
                "buddy.nesting",
                f"entry block {e.block(dims)} in page {pid} is not nested "
                f"in the parent's buddy block {ref_block}",
            )
            if e.is_data:
                data_refs.setdefault(e.pid, []).append((e, pid, depth))
            else:
                stack.append((e.pid, depth + 1, e.rect))
    for pid, owners in data_refs.items():
        a.check_kind(pid, PageKind.DATA, "buddy.kind")
        page = a.store.peek(pid)
        points = [p for p, _ in page.records]
        a.check(
            bool(points),
            "buddy.data-empty",
            f"data page {pid} is empty (empty pages are freed)",
        )
        if len(owners) == 1:
            entry = owners[0][0]
            if points:
                got = Rect.bounding_points(points)
                a.check(
                    entry.rect == got,
                    "buddy.mbr-exact",
                    f"region {entry.rect} of data page {pid} is not the "
                    f"exact MBR {got} of its records",
                )
        else:
            holders = {npid for _, npid, _ in owners}
            a.check(
                len(holders) == 1,
                "buddy.share-node",
                f"data page {pid} is shared by entries of different "
                f"directory pages {sorted(holders)} (property 4 allows "
                "sharing only within one page)",
            )
            rects = [o[0].rect for o in owners]
            for p in points:
                a.check(
                    any(r.contains_point(p) for r in rects),
                    "buddy.share-cover",
                    f"record {p} on shared data page {pid} lies in no "
                    "sharing entry's region",
                )
        if len(page.records) > am._capacity:
            a.check(
                len(owners) == 1
                and am._split_records(page.records) is None,
                "buddy.data-capacity",
                f"data page {pid} holds {len(page.records)} records over "
                f"capacity {am._capacity} although a split is possible",
            )
        if am.balanced:
            for _, _, depth in owners:
                a.check(
                    depth == am._levels,
                    "buddy.balance",
                    f"data entry for page {pid} sits at directory level "
                    f"{depth}, expected {am._levels} (balanced variant)",
                )
    a.check_page_accounting(dir_pids | set(data_refs), pins)


# -- BANG file ------------------------------------------------------------


@register(BangFile)
def _audit_bang(a: Audit) -> None:
    am = a.am
    pins = {am._root_pid}
    dir_pids: set[int] = set()
    data_entries: dict[int, object] = {}  # data pid -> referencing entry
    leaf_blocks: dict[tuple, int] = {}
    stack = [(am._root_pid, 1, None)]
    while stack:
        pid, depth, ref_bits = stack.pop()
        if not a.check(
            pid not in dir_pids,
            "bang.dir-shared",
            f"directory page {pid} is referenced more than once",
        ):
            continue
        dir_pids.add(pid)
        a.check_kind(pid, PageKind.DIRECTORY, "bang.kind")
        node = a.store.peek(pid)
        if ref_bits is not None:
            a.check(
                node.bits == ref_bits,
                "bang.entry-block",
                f"directory page {pid} has block {node.bits}, its parent "
                f"entry says {ref_bits}",
            )
        if am._node_bytes(node) > am._dir_payload:
            a.check(
                am._choose_directory_split_block(pid, node) is None,
                "bang.dir-capacity",
                f"directory page {pid} overflows ({am._node_bytes(node)} "
                f"bytes > {am._dir_payload}) although a split is possible",
            )
        if node.is_leaf:
            a.check(
                depth == am._height,
                "bang.balance",
                f"leaf directory page {pid} sits at level {depth}, "
                f"expected {am._height} (the directory is balanced)",
            )
        for e in node.entries:
            a.check(
                blocks.is_prefix(node.bits, e.bits),
                "bang.nesting",
                f"entry block {e.bits} is not nested in its directory "
                f"page's block {node.bits}",
            )
            if node.is_leaf:
                a.check(
                    e.bits not in leaf_blocks,
                    "bang.block-dup",
                    f"block {e.bits} appears in two leaf entries",
                )
                leaf_blocks[e.bits] = e.pid
                a.check(
                    e.pid not in data_entries,
                    "bang.page-shared",
                    f"data page {e.pid} is referenced by two leaf entries",
                )
                data_entries[e.pid] = e
            else:
                if am.minimal_regions:
                    child = a.store.peek(e.pid)
                    want = am._node_region(child)
                    a.check(
                        e.mbr == want,
                        "bang.region",
                        f"inner entry for page {e.pid} carries region "
                        f"{e.mbr}, exact child region is {want}",
                    )
                stack.append((e.pid, depth + 1, e.bits))
    mirror = dict(am._data_blocks)
    a.check(
        leaf_blocks == mirror,
        "bang.mirror",
        f"in-core block mirror disagrees with the directory: "
        f"{len(leaf_blocks)} leaf entries vs {len(mirror)} mirror entries",
    )
    for pid, e in data_entries.items():
        a.check_kind(pid, PageKind.DATA, "bang.kind")
        page = a.store.peek(pid)
        a.check(
            page.bits == e.bits,
            "bang.page-block",
            f"data page {pid} carries block {page.bits}, its entry says "
            f"{e.bits}",
        )
        if len(page.records) > am._capacity:
            a.check(
                am._choose_split_block(page) is None,
                "bang.data-capacity",
                f"data page {pid} holds {len(page.records)} records over "
                f"capacity {am._capacity} although a split is possible",
            )
        if am.minimal_regions:
            want = (
                Rect.bounding_points([p for p, _ in page.records])
                if page.records
                else None
            )
            a.check(
                e.mbr == want,
                "bang.region",
                f"leaf entry for page {pid} carries region {e.mbr}, exact "
                f"MBR is {want}",
            )
        for point, _rid in page.records:
            best_pid, _ = am._best_data_entry(am._point_bits(point))
            a.check(
                best_pid == pid,
                "bang.placement",
                f"record {point} lives on page {pid} but its longest "
                f"enclosing data block routes to page {best_pid} (nested "
                "block exclusion)",
            )
    a.check_page_accounting(dir_pids | set(data_entries), pins)


# -- hB-tree --------------------------------------------------------------


def _hb_route(am: HBTree, point) -> int:
    pid, is_data = am._root_pid, am._root_is_data
    for _ in range(128):
        if is_data:
            return pid
        node = am.store.peek(pid)
        leaf = am._walk(node.kd, point)
        pid, is_data = leaf.pid, leaf.is_data
    raise RuntimeError("routing did not terminate (cycle in the index graph)")


@register(HBTree)
def _audit_hb(a: Audit) -> None:
    am = a.am
    pins = {am._root_pid}
    if am._root_is_data:
        a.check_kind(am._root_pid, PageKind.DATA, "hb.kind")
        page = a.store.peek(am._root_pid)
        if len(page.records) > am._capacity:
            a.check(
                am._choose_data_split(page.records) is None,
                "hb.data-capacity",
                f"root data page holds {len(page.records)} records over "
                f"capacity {am._capacity} although a split is possible",
            )
        a.check_page_accounting({am._root_pid}, pins)
        return
    index_pids: set[int] = set()
    data_pids: set[int] = set()
    refs: dict[int, set[int]] = {}
    stack = [am._root_pid]
    while stack:
        pid = stack.pop()
        if pid in index_pids:
            continue
        index_pids.add(pid)
        a.check_kind(pid, PageKind.DIRECTORY, "hb.kind")
        node = a.store.peek(pid)
        leaves = am._kd_leaves(node.kd)
        if am._kd_bytes(node.kd) > am._index_payload:
            a.check(
                len(leaves) < 3,
                "hb.index-capacity",
                f"index page {pid} overflows ({am._kd_bytes(node.kd)} "
                f"bytes > {am._index_payload}) with {len(leaves)} kd-tree "
                "leaves although a split needs only 3",
            )
        for leaf in leaves:
            refs.setdefault(leaf.pid, set()).add(pid)
            if leaf.is_data:
                data_pids.add(leaf.pid)
            else:
                stack.append(leaf.pid)
            if am.minimal_regions:
                want = am._node_mbr(leaf.pid, leaf.is_data)
                a.check(
                    leaf.mbr == want,
                    "hb.region",
                    f"kd-leaf for page {leaf.pid} carries region "
                    f"{leaf.mbr}, exact region is {want}",
                )
    for child, parents in refs.items():
        recorded = am._parents.get(child, set())
        a.check(
            recorded == parents,
            "hb.parents",
            f"parent registry for page {child} records {sorted(recorded)}, "
            f"the index graph references it from {sorted(parents)}",
        )
    stale = {c for c, ps in am._parents.items() if ps and c not in refs}
    a.check(
        not stale,
        "hb.parents-stale",
        f"parent registry holds entries for unreferenced pages "
        f"{sorted(stale)}",
    )
    for pid in data_pids:
        a.check_kind(pid, PageKind.DATA, "hb.kind")
        data = a.store.peek(pid)
        if len(data.records) > am._capacity:
            a.check(
                am._choose_data_split(data.records) is None,
                "hb.data-capacity",
                f"data page {pid} holds {len(data.records)} records over "
                f"capacity {am._capacity} although a split is possible",
            )
        for point, _rid in data.records:
            try:
                home = _hb_route(am, point)
            except RuntimeError as exc:
                a.check(False, "hb.routing", f"routing {point}: {exc}")
                continue
            a.check(
                home == pid,
                "hb.routing",
                f"record {point} lives on page {pid} but the kd-tree "
                f"cascade routes it to page {home}",
            )
    a.check_page_accounting(index_pids | data_pids, pins)


# -- kd-B-tree ------------------------------------------------------------


@register(KdBTree)
def _audit_kdb(a: Audit) -> None:
    am = a.am
    pins = {am._root_pid}
    reachable: set[int] = set()
    leaf_depths: set[int] = set()
    stack = [(am._root_pid, am._root_is_leaf, Rect.unit(am.dims), 1)]
    while stack:
        pid, is_leaf, region, depth = stack.pop()
        reachable.add(pid)
        if is_leaf:
            leaf_depths.add(depth)
            a.check_kind(pid, PageKind.DATA, "kdb.kind")
            page = a.store.peek(pid)
            if len(page.records) > am._capacity:
                a.check(
                    am._choose_point_plane(page.records, region) is None,
                    "kdb.data-capacity",
                    f"point page {pid} holds {len(page.records)} records "
                    f"over capacity {am._capacity} although a split is "
                    "possible",
                )
            for point, _rid in page.records:
                a.check(
                    am._region_contains(region, point),
                    "kdb.placement",
                    f"record {point} lies outside its page's region "
                    f"{region}",
                )
        else:
            a.check_kind(pid, PageKind.DIRECTORY, "kdb.kind")
            node = a.store.peek(pid)
            a.check(
                len(node.rects) == len(node.pids),
                "kdb.arity",
                f"region page {pid} has {len(node.rects)} regions for "
                f"{len(node.pids)} children",
            )
            a.check(
                len(node.pids) <= am._fanout,
                "kdb.fanout",
                f"region page {pid} holds {len(node.pids)} children, "
                f"fanout {am._fanout}",
            )
            _check_partition(a, region, node.rects, "kdb")
            for rect, child in zip(node.rects, node.pids):
                stack.append((child, node.leaf_children, rect, depth + 1))
    a.check(
        leaf_depths == {am._height + 1},
        "kdb.balance",
        f"point pages found at levels {sorted(leaf_depths)}, expected all "
        f"at {am._height + 1}",
    )
    a.check_page_accounting(reachable, pins)


# -- zkd-B-tree -----------------------------------------------------------


@register(ZOrderBTree)
def _audit_zb(a: Audit) -> None:
    am = a.am
    reachable = check_bplus_tree(a, am._tree, "zb")
    a.check_page_accounting(reachable, {am._tree.root_pid})
    for key, (point, _rid) in am._tree.iter_items():
        want = am._z(point)
        a.check(
            key == want,
            "zb.z-key",
            f"record {point} is stored under z-value {key}, its Morton "
            f"code is {want} (z-order monotonicity)",
        )


# -- PLOP hashing (and quantile hashing) ----------------------------------


@register(PlopHashing)
def _audit_plop(a: Audit) -> None:
    am = a.am
    reachable = check_plop_grid(a, am._grid, "plop")
    a.check_page_accounting(reachable, set())


# -- grid files -----------------------------------------------------------


def _audit_grid_pages(a: Audit, am, layer, prefix: str, where: str = "") -> set[int]:
    """Data-page checks shared by the grid-file family; returns pids."""
    tag = f" {where}" if where else ""
    pids = set(layer.boxes)
    for pid in pids:
        a.check_kind(pid, PageKind.DATA, f"{prefix}.kind")
        page = a.store.peek(pid)
        a.check(
            len(page.records) <= am._capacity,
            f"{prefix}.capacity",
            f"data page {pid}{tag} holds {len(page.records)} records, "
            f"capacity {am._capacity} (grid files always split on "
            "overflow)",
        )
        for point, _rid in page.records:
            home = layer.payload_of_point(point)
            a.check(
                home == pid,
                f"{prefix}.placement",
                f"record {point}{tag} lives on page {pid} but the grid "
                f"routes it to page {home}",
            )
    return pids


def _ceil_div(n: int, d: int) -> int:
    return -(-n // d)


@register(GridFile)
def _audit_gridfile(a: Audit) -> None:
    am = a.am
    layer = am._layer
    check_grid_layer(a, layer, "grid")
    data_pids = _audit_grid_pages(a, am, layer, "grid")
    want_dir = _ceil_div(layer.total_cells(), am._dir_cells_per_page)
    a.check(
        len(am._dir_pages) == want_dir,
        "grid.dir-count",
        f"{len(am._dir_pages)} directory pages for "
        f"{layer.total_cells()} cells, expected {want_dir}",
    )
    for pid in am._dir_pages:
        a.check_kind(pid, PageKind.DIRECTORY, "grid.kind")
    a.check_page_accounting(data_pids | set(am._dir_pages), set())


@register(TwinGridFile)
def _audit_twingrid(a: Audit) -> None:
    am = a.am
    reachable: set[int] = set()
    for which, layer in enumerate(am._layers):
        prefix = "twin.primary" if which == 0 else "twin.twin"
        check_grid_layer(a, layer, prefix)
        reachable |= _audit_grid_pages(a, am, layer, prefix)
        want_dir = _ceil_div(layer.total_cells(), am._dir_cells_per_page)
        a.check(
            len(am._dir_pages[which]) == want_dir,
            f"{prefix}.dir-count",
            f"{len(am._dir_pages[which])} directory pages for "
            f"{layer.total_cells()} cells, expected {want_dir}",
        )
        for pid in am._dir_pages[which]:
            a.check_kind(pid, PageKind.DIRECTORY, f"{prefix}.kind")
        reachable |= set(am._dir_pages[which])
    a.check_page_accounting(reachable, set())


@register(TwoLevelGridFile)
def _audit_twolevelgrid(a: Audit) -> None:
    am = a.am
    root = am._root
    check_grid_layer(a, root, "grid2.root")
    reachable: set[int] = set()
    for spid in root.boxes:
        reachable.add(spid)
        a.check_kind(spid, PageKind.DIRECTORY, "grid2.kind")
        sub = a.store.peek(spid)
        check_grid_layer(a, sub.layer, "grid2.sub", where=f"subgrid {spid}")
        a.check(
            root.box_rect(spid) == sub.layer.region,
            "grid2.region",
            f"root directory assigns subgrid {spid} the region "
            f"{root.box_rect(spid)}, the subgrid covers "
            f"{sub.layer.region}",
        )
        a.check(
            sub.layer.byte_size() <= am._subgrid_payload,
            "grid2.sub-size",
            f"subgrid {spid} needs {sub.layer.byte_size()} bytes, one "
            f"directory page holds {am._subgrid_payload}",
        )
        for dpid in _audit_grid_pages(
            a, am, sub.layer, "grid2", where=f"subgrid {spid}"
        ):
            reachable.add(dpid)
            page = a.store.peek(dpid)
            for point, _rid in page.records:
                a.check(
                    root.payload_of_point(point) == spid,
                    "grid2.routing",
                    f"record {point} lives under subgrid {spid} but the "
                    f"root directory routes it to subgrid "
                    f"{root.payload_of_point(point)}",
                )
    a.check_page_accounting(reachable, set())


# -- R-tree ---------------------------------------------------------------


@register(RTree)
def _audit_rtree(a: Audit) -> None:
    am = a.am
    pins = {am._root_pid}
    reachable: set[int] = set()
    leaf_depths: set[int] = set()
    stack = [(am._root_pid, 1, None)]
    while stack:
        pid, depth, ref_rect = stack.pop()
        reachable.add(pid)
        node = a.store.peek(pid)
        a.check_kind(
            pid,
            PageKind.DATA if node.is_leaf else PageKind.DIRECTORY,
            "rtree.kind",
        )
        a.check(
            len(node.rects) == len(node.children),
            "rtree.arity",
            f"node {pid} has {len(node.rects)} rectangles for "
            f"{len(node.children)} children",
        )
        a.check(
            len(node.rects) <= am._capacity,
            "rtree.capacity",
            f"node {pid} holds {len(node.rects)} entries, capacity "
            f"{am._capacity}",
        )
        if pid != am._root_pid:
            a.check(
                len(node.rects) >= am._min_entries,
                "rtree.min-fill",
                f"non-root node {pid} holds {len(node.rects)} entries, "
                f"minimum fill is {am._min_entries}",
            )
        elif not node.is_leaf:
            a.check(
                len(node.children) >= 2,
                "rtree.root",
                f"non-leaf root holds {len(node.children)} children "
                "(a one-child root is collapsed)",
            )
        if ref_rect is not None and node.rects:
            got = Rect.bounding(node.rects)
            a.check(
                ref_rect == got,
                "rtree.mbr-exact",
                f"parent entry for node {pid} carries {ref_rect}, the "
                f"exact MBR of the node is {got}",
            )
        if node.is_leaf:
            leaf_depths.add(depth)
        else:
            for rect, child in zip(node.rects, node.children):
                stack.append((child, depth + 1, rect))
    a.check(
        leaf_depths == {am._height + 1},
        "rtree.balance",
        f"leaves found at levels {sorted(leaf_depths)}, expected all at "
        f"{am._height + 1}",
    )
    a.check_page_accounting(reachable, pins)


# -- R+-tree --------------------------------------------------------------


def _rplus_requires(rect: Rect, region: Rect, dims: int) -> bool:
    """Whether clipping must place an entry for ``rect`` in ``region``.

    Open-overlap on every axis; a degenerate axis of the rectangle must
    lie strictly inside the region (boundary-touching degenerate rects
    are assigned to exactly one side by the split rule).
    """
    for axis in range(dims):
        if rect.lo[axis] == rect.hi[axis]:
            if not (region.lo[axis] < rect.lo[axis] < region.hi[axis]):
                return False
        elif not (
            rect.lo[axis] < region.hi[axis] and rect.hi[axis] > region.lo[axis]
        ):
            return False
    return True


def _rplus_required_leaves(am: RPlusTree, rect: Rect) -> list[int]:
    found: list[int] = []
    stack = [(am._root_pid, am._root_is_leaf, Rect.unit(am.dims))]
    while stack:
        pid, is_leaf, region = stack.pop()
        if not _rplus_requires(rect, region, am.dims):
            continue
        if is_leaf:
            found.append(pid)
        else:
            node = am.store.peek(pid)
            for child_region, child in zip(node.regions, node.pids):
                stack.append((child, node.leaf_children, child_region))
    return found


@register(RPlusTree)
def _audit_rplus(a: Audit) -> None:
    am = a.am
    pins = {am._root_pid}
    reachable: set[int] = set()
    leaf_depths: set[int] = set()
    leaf_rids: dict[int, set] = {}
    rid_rects: dict[object, Rect] = {}
    stack = [(am._root_pid, am._root_is_leaf, Rect.unit(am.dims), 1)]
    while stack:
        pid, is_leaf, region, depth = stack.pop()
        reachable.add(pid)
        if is_leaf:
            leaf_depths.add(depth)
            a.check_kind(pid, PageKind.DATA, "rplus.kind")
            leaf = a.store.peek(pid)
            a.check(
                len(leaf.rects) == len(leaf.rids),
                "rplus.arity",
                f"leaf {pid} has {len(leaf.rects)} rectangles for "
                f"{len(leaf.rids)} rids",
            )
            if len(leaf.rects) > am._capacity:
                a.check(
                    am._choose_leaf_plane(leaf, region) is None,
                    "rplus.capacity",
                    f"leaf {pid} holds {len(leaf.rects)} entries over "
                    f"capacity {am._capacity} although a split plane "
                    "exists",
                )
            leaf_rids[pid] = set(leaf.rids)
            for rect, rid in zip(leaf.rects, leaf.rids):
                a.check(
                    rect.intersects(region),
                    "rplus.entry-region",
                    f"entry {rect} in leaf {pid} does not meet the "
                    f"leaf's region {region}",
                )
                if rid in rid_rects:
                    a.check(
                        rid_rects[rid] == rect,
                        "rplus.rid-rect",
                        f"rid {rid!r} is stored with different rectangles "
                        f"({rid_rects[rid]} vs {rect})",
                    )
                else:
                    rid_rects[rid] = rect
        else:
            a.check_kind(pid, PageKind.DIRECTORY, "rplus.kind")
            node = a.store.peek(pid)
            a.check(
                len(node.regions) == len(node.pids),
                "rplus.arity",
                f"inner node {pid} has {len(node.regions)} regions for "
                f"{len(node.pids)} children",
            )
            a.check(
                len(node.pids) <= am._fanout,
                "rplus.fanout",
                f"inner node {pid} holds {len(node.pids)} children, "
                f"fanout {am._fanout}",
            )
            _check_partition(a, region, node.regions, "rplus")
            for child_region, child in zip(node.regions, node.pids):
                stack.append((child, node.leaf_children, child_region, depth + 1))
    a.check(
        leaf_depths == {am._height + 1},
        "rplus.balance",
        f"leaves found at levels {sorted(leaf_depths)}, expected all at "
        f"{am._height + 1}",
    )
    for rid, rect in rid_rects.items():
        for pid in _rplus_required_leaves(am, rect):
            a.check(
                rid in leaf_rids.get(pid, set()),
                "rplus.clipping",
                f"rid {rid!r} with rect {rect} must appear in leaf {pid} "
                "(its region open-overlaps the rect) but does not",
            )
    a.check_page_accounting(reachable, pins)


# -- transformation SAM ---------------------------------------------------


@register(TransformationSAM)
def _audit_transformation(a: Audit) -> None:
    am = a.am
    for v in run_audit(am.pam):
        a.violations.append(
            Violation(
                f"transform.{v.code}",
                f"(inner {type(am.pam).__name__}) {v.message}",
            )
        )
    a.check(
        len(am) == len(am.pam),
        "transform.count",
        f"SAM counts {len(am)} rectangles, the inner PAM holds "
        f"{len(am.pam)} points",
    )
    for point, _rid in am.pam.iter_records():
        try:
            rect = am._to_rect(point)
        except Exception as exc:  # noqa: BLE001 - an invalid point is a finding
            a.check(
                False,
                "transform.roundtrip",
                f"stored point {point} does not map back to a rectangle: "
                f"{exc!r}",
            )
            continue
        a.check(
            all(0.0 <= lo <= hi <= 1.0 for lo, hi in zip(rect.lo, rect.hi)),
            "transform.unit",
            f"stored point {point} maps to {rect}, outside the unit cube",
        )
        # _max_extent is maintained unconditionally (queries may use it),
        # so it must bound every stored rectangle either way.
        _half_extents_bounded(a, am, rect, "transform.extent")


# -- clipping SAM ---------------------------------------------------------


@register(ClippingSAM)
def _audit_clipping(a: Audit) -> None:
    am = a.am
    reachable = check_bplus_tree(a, am._tree, "clip")
    a.check_page_accounting(reachable, {am._tree.root_pid})
    pairs = list(am._tree.iter_items())
    a.check(
        len(pairs) == am._region_entries,
        "clip.region-count",
        f"tree holds {len(pairs)} region entries, the counter says "
        f"{am._region_entries}",
    )
    by_rid: dict[object, tuple[Rect, list]] = {}
    for key, (rect, rid) in pairs:
        if rid in by_rid:
            a.check(
                by_rid[rid][0] == rect,
                "clip.rid-rect",
                f"rid {rid!r} is stored with different rectangles "
                f"({by_rid[rid][0]} vs {rect})",
            )
            by_rid[rid][1].append(key)
        else:
            by_rid[rid] = (rect, [key])
    for rid, (rect, keys) in by_rid.items():
        a.check(
            1 <= len(keys) <= am.redundancy,
            "clip.redundancy",
            f"rid {rid!r} is stored under {len(keys)} z-regions, allowed "
            f"range is 1..{am.redundancy}",
        )
        want = {
            am._key(bits)
            for bits in decompose_rect(
                rect, am.dims, am.redundancy, _CLIP_MAX_DEPTH
            )
        }
        a.check(
            len(keys) == len(set(keys)) and set(keys) == want,
            "clip.decomposition",
            f"rid {rid!r} is stored under keys {sorted(keys)}, its "
            f"deterministic decomposition gives {sorted(want)}",
        )


# -- overlapping-regions SAM ----------------------------------------------


@register(OverlappingPlop)
def _audit_overlapping(a: Audit) -> None:
    am = a.am
    reachable = check_plop_grid(a, am._grid, "oplop")
    a.check_page_accounting(reachable, set())
    for rect, _rid in am._grid.iter_all():
        _half_extents_bounded(a, am, rect, "oplop.extent")
