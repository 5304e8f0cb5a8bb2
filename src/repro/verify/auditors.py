"""Per-structure invariant auditors for every PAM and SAM.

Each auditor starts with :func:`~repro.verify.invariants.check_walk`,
which consumes the structure's own ``_snapshot_pages()`` walk — the one
page model snapshots and explain also read — and checks what every
structure owes (reachability, kinds, pins, capacity, nesting, tiling,
exact MBRs, balance).  The auditor then loops over the views it returns
and checks only what a view cannot say: routing, placement, block
nesting, counters, the structure's own bookkeeping.  A data page's
records come from its view's ``entries``; any other page field is read
through the page store's uncharged audit accessors
(:meth:`~repro.storage.pagestore.PageStore.peek` and friends).  After
the auditor, ``records.count`` holds the walk's records to ``len()``.
Auditors are looked up through the MRO, so subclasses inherit their
base class's auditor (``MultilevelGridFile`` uses the BUDDY auditor,
``QuantileHashing`` the PLOP one).

Tolerated overflows — pages an implementation legitimately leaves over
capacity because no admissible split exists — are re-derived by the
``tolerated`` callback each auditor hands :func:`check_walk`, which
calls the structure's own *pure* split chooser: a page may exceed its
capacity only if the chooser returns "no split possible" for its
current contents.
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
from repro.verify.invariants import (
    Audit,
    Violation,
    WalkBroken,
    check_bplus_tree,
    check_grid_layer,
    check_plop_grid,
    check_walk,
)

__all__ = ["AUDITORS", "register", "run_audit"]

#: Structure class -> auditor; resolved through the MRO by `run_audit`.
AUDITORS: dict[type, Callable[[Audit], None]] = {}


def register(cls: type):
    def deco(fn: Callable[[Audit], None]):
        AUDITORS[cls] = fn
        return fn

    return deco


def _audit_into(audit: Audit) -> None:
    """Run the auditor of ``audit.am``'s closest class, then the record count.

    The count reads ``audit.records``, which the auditor's walk filled.
    A broken walk raises :class:`WalkBroken`, skipping the record count.
    """
    for klass in type(audit.am).__mro__:
        fn = AUDITORS.get(klass)
        if fn is not None:
            fn(audit)
            audit.check_record_count()
            return
    audit.check(
        False,
        "auditor.missing",
        f"no auditor registered for {type(audit.am).__name__}",
    )


def run_audit(am) -> list[Violation]:
    """Audit ``am`` with the auditor registered for its closest class."""
    audit = Audit(am)
    try:
        _audit_into(audit)
    except WalkBroken:
        pass  # already recorded; nothing after a broken walk is trusted
    return audit.violations


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
    holders: dict[int, set[int]] = {}  # data pid -> referencing directory pids

    def tolerated(view) -> bool:
        # A shared page is never tolerated: unsharing would split it.
        return (
            view.kind == "data"
            and len(view.regions) <= 1
            and am._split_records(view.entries) is None
        )

    for view in check_walk(
        a,
        {am._root_pid},
        leaf_depth=am._levels if am.balanced else None,
        exact=True,
        tolerated=tolerated,
    ):
        pid = view.pid
        if view.kind == "directory":
            page = a.store.peek(pid)
            least = 1 if am.balanced and pid != am._root_pid else 2
            a.check(
                len(page.entries) >= least,
                "buddy.min-entries",
                f"directory page {pid} holds {len(page.entries)} entries, "
                f"minimum {least}",
            )
            block = (
                blocks.min_enclosing_block(view.regions[0], dims)
                if view.regions
                else ()
            )
            for e in page.entries:
                a.check(
                    blocks.is_prefix(block, e.block(dims)),
                    "buddy.nesting",
                    f"entry block {e.block(dims)} in page {pid} is not "
                    f"nested in the parent's buddy block {block}",
                )
                if e.is_data:
                    holders.setdefault(e.pid, set()).add(pid)
            continue
        a.check(
            view.entries or pid == am._root_pid,
            "buddy.data-empty",
            f"data page {pid} is empty (empty pages are freed)",
        )
        if len(view.regions) > 1:
            a.check(
                len(holders[pid]) == 1,
                "buddy.share-node",
                f"data page {pid} is shared by entries of different "
                f"directory pages {sorted(holders[pid])} (property 4 allows "
                "sharing only within one page)",
            )
            for p, _rid in view.entries:
                a.check(
                    any(r.contains_point(p) for r in view.regions),
                    "buddy.share-cover",
                    f"record {p} on shared data page {pid} lies in no "
                    "sharing entry's region",
                )


# -- BANG file ------------------------------------------------------------


@register(BangFile)
def _audit_bang(a: Audit) -> None:
    am = a.am
    entry_of: dict[int, object] = {}  # child pid -> referencing entry
    leaf_blocks: dict[tuple, int] = {}
    for view in check_walk(
        a,
        {am._root_pid},
        leaf_depth=am._height,
        tolerated=lambda v: am._choose_split_block(a.store.peek(v.pid)) is None,
    ):
        pid = view.pid
        page = a.store.peek(pid)
        ref = entry_of.get(pid)
        if ref is not None:
            a.check(
                page.bits == ref.bits,
                "bang.entry-block",
                f"{view.kind} page {pid} has block {page.bits}, its parent "
                f"entry says {ref.bits}",
            )
        if view.kind == "data":
            if am.minimal_regions:
                a.check(
                    ref.mbr == view.content,
                    "bang.region",
                    f"leaf entry for page {pid} carries region {ref.mbr}, "
                    f"exact MBR is {view.content}",
                )
            for point, _rid in view.entries:
                best_pid, _ = am._best_data_entry(am._point_bits(point))
                a.check(
                    best_pid == pid,
                    "bang.placement",
                    f"record {point} lives on page {pid} but its longest "
                    f"enclosing data block routes to page {best_pid} "
                    "(nested block exclusion)",
                )
            continue
        if ref is not None and am.minimal_regions:
            want = am._node_region(page)
            a.check(
                ref.mbr == want,
                "bang.region",
                f"inner entry for page {pid} carries region {ref.mbr}, "
                f"exact child region is {want}",
            )
        if am._node_bytes(page) > am._dir_payload:
            a.check(
                am._choose_directory_split_block(pid, page) is None,
                "bang.dir-capacity",
                f"directory page {pid} overflows ({am._node_bytes(page)} "
                f"bytes > {am._dir_payload}) although a split is possible",
            )
        for e in page.entries:
            entry_of[e.pid] = e
            a.check(
                blocks.is_prefix(page.bits, e.bits),
                "bang.nesting",
                f"entry block {e.bits} is not nested in its directory "
                f"page's block {page.bits}",
            )
            if page.is_leaf:
                a.check(
                    e.bits not in leaf_blocks,
                    "bang.block-dup",
                    f"block {e.bits} appears in two leaf entries",
                )
                leaf_blocks[e.bits] = e.pid
    mirror = dict(am._data_blocks)
    a.check(
        leaf_blocks == mirror,
        "bang.mirror",
        f"in-core block mirror disagrees with the directory: "
        f"{len(leaf_blocks)} leaf entries vs {len(mirror)} mirror entries",
    )


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
    refs: dict[int, set[int]] = {}
    kd_leaves = []
    views = check_walk(
        a,
        {am._root_pid},
        tolerated=lambda v: am._choose_data_split(v.entries) is None,
    )
    for view in views:
        pid = view.pid
        if view.kind == "directory":
            page = a.store.peek(pid)
            leaves = am._kd_leaves(page.kd)
            if am._kd_bytes(page.kd) > am._index_payload:
                a.check(
                    len(leaves) < 3,
                    "hb.index-capacity",
                    f"index page {pid} overflows ({am._kd_bytes(page.kd)} "
                    f"bytes > {am._index_payload}) with {len(leaves)} "
                    "kd-tree leaves although a split needs only 3",
                )
            for leaf in leaves:
                refs.setdefault(leaf.pid, set()).add(pid)
            kd_leaves.extend(leaves)
            continue
        for point, _rid in view.entries:
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
    if am.minimal_regions:
        content = {v.pid: v.content for v in views if v.kind == "data"}
        for leaf in kd_leaves:
            if leaf.is_data:
                want = content.get(leaf.pid)
            else:
                want = am._node_mbr(leaf.pid, False)
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


# -- kd-B-tree ------------------------------------------------------------


@register(KdBTree)
def _audit_kdb(a: Audit) -> None:
    am = a.am
    for view in check_walk(
        a,
        {am._root_pid},
        leaf_depth=am._height,
        partition=True,
        tolerated=lambda v: v.kind == "data"
        and am._choose_point_plane(v.entries, v.regions[0]) is None,
    ):
        if view.kind == "directory":
            page = a.store.peek(view.pid)
            a.check(
                len(page.rects) == len(page.pids),
                "kdb.arity",
                f"region page {view.pid} has {len(page.rects)} regions for "
                f"{len(page.pids)} children",
            )
            continue
        for point, _rid in view.entries:
            a.check(
                am._region_contains(view.regions[0], point),
                "kdb.placement",
                f"record {point} lies outside its page's region "
                f"{view.regions[0]}",
            )


# -- zkd-B-tree -----------------------------------------------------------


@register(ZOrderBTree)
def _audit_zb(a: Audit) -> None:
    am = a.am
    for key, (point, _rid) in check_bplus_tree(a, am._tree, "zb"):
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
    check_plop_grid(a, a.am._grid, "plop")


# -- grid files -----------------------------------------------------------


def _check_grid_placement(
    a: Audit, layer, view, prefix: str, where: str = ""
) -> None:
    tag = f" {where}" if where else ""
    for point, _rid in view.entries:
        home = layer.payload_of_point(point)
        a.check(
            home == view.pid,
            f"{prefix}.placement",
            f"record {point}{tag} lives on page {view.pid} but the grid "
            f"routes it to page {home}",
        )


def _check_dir_count(a: Audit, am, layer, dir_pages, prefix: str) -> None:
    want = -(-layer.total_cells() // am._dir_cells_per_page)
    a.check(
        len(dir_pages) == want,
        f"{prefix}.dir-count",
        f"{len(dir_pages)} directory pages for {layer.total_cells()} "
        f"cells, expected {want}",
    )


@register(GridFile)
def _audit_gridfile(a: Audit) -> None:
    am = a.am
    check_grid_layer(a, am._layer, "grid")
    _check_dir_count(a, am, am._layer, am._dir_pages, "grid")
    for view in check_walk(a, set()):
        if view.kind == "data":
            _check_grid_placement(a, am._layer, view, "grid")


@register(TwinGridFile)
def _audit_twingrid(a: Audit) -> None:
    am = a.am
    prefixes = ("twin.primary", "twin.twin")
    for which, layer in enumerate(am._layers):
        check_grid_layer(a, layer, prefixes[which])
        _check_dir_count(a, am, layer, am._dir_pages[which], prefixes[which])
    # The walk puts grid ``which``'s data pages at depth 2 * which + 1.
    for view in check_walk(a, set()):
        if view.kind == "data":
            which = view.depth // 2
            _check_grid_placement(a, am._layers[which], view, prefixes[which])


@register(TwoLevelGridFile)
def _audit_twolevelgrid(a: Audit) -> None:
    am = a.am
    root = am._root
    check_grid_layer(a, root, "grid2.root")
    # The walk yields each subgrid's directory page, then its data pages.
    for view in check_walk(a, set()):
        if view.kind == "directory":
            spid = view.pid
            sub = a.store.peek(spid).layer
            check_grid_layer(a, sub, "grid2.sub", where=f"subgrid {spid}")
            a.check(
                view.regions[0] == sub.region,
                "grid2.region",
                f"root directory assigns subgrid {spid} the region "
                f"{view.regions[0]}, the subgrid covers {sub.region}",
            )
            a.check(
                sub.byte_size() <= am._subgrid_payload,
                "grid2.sub-size",
                f"subgrid {spid} needs {sub.byte_size()} bytes, one "
                f"directory page holds {am._subgrid_payload}",
            )
            continue
        _check_grid_placement(a, sub, view, "grid2", where=f"subgrid {spid}")
        for point, _rid in view.entries:
            a.check(
                root.payload_of_point(point) == spid,
                "grid2.routing",
                f"record {point} lives under subgrid {spid} but the root "
                f"directory routes it to subgrid {root.payload_of_point(point)}",
            )


# -- R-tree ---------------------------------------------------------------


@register(RTree)
def _audit_rtree(a: Audit) -> None:
    am = a.am
    for view in check_walk(a, {am._root_pid}, leaf_depth=am._height, exact=True):
        pid = view.pid
        node = a.store.peek(pid)
        a.check(
            len(node.rects) == len(node.children),
            "rtree.arity",
            f"node {pid} has {len(node.rects)} rectangles for "
            f"{len(node.children)} children",
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
    leaf_rids: dict[int, set] = {}
    rid_rects: dict[object, Rect] = {}
    for view in check_walk(
        a,
        {am._root_pid},
        leaf_depth=am._height,
        partition=True,
        tolerated=lambda v: v.kind == "data"
        and am._choose_leaf_plane(a.store.peek(v.pid), v.regions[0]) is None,
    ):
        pid = view.pid
        page = a.store.peek(pid)
        if view.kind == "directory":
            a.check(
                len(page.regions) == len(page.pids),
                "rplus.arity",
                f"inner node {pid} has {len(page.regions)} regions for "
                f"{len(page.pids)} children",
            )
            continue
        a.check(
            len(page.rects) == len(page.rids),
            "rplus.arity",
            f"leaf {pid} has {len(page.rects)} rectangles for "
            f"{len(page.rids)} rids",
        )
        leaf_rids[pid] = {rid for _, rid in view.entries}
        region = view.regions[0]
        for rect, rid in view.entries:
            a.check(
                rect.intersects(region),
                "rplus.entry-region",
                f"entry {rect} in leaf {pid} does not meet the leaf's "
                f"region {region}",
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
    a.records = [(rect, rid) for rid, rect in rid_rects.items()]
    for rid, rect in rid_rects.items():
        for pid in _rplus_required_leaves(am, rect):
            a.check(
                rid in leaf_rids.get(pid, set()),
                "rplus.clipping",
                f"rid {rid!r} with rect {rect} must appear in leaf {pid} "
                "(its region open-overlaps the rect) but does not",
            )


# -- transformation SAM ---------------------------------------------------


@register(TransformationSAM)
def _audit_transformation(a: Audit) -> None:
    am = a.am
    inner = Audit(am.pam)
    try:  # a broken inner walk ends this audit too
        _audit_into(inner)
    finally:
        a.violations.extend(
            Violation(
                f"transform.{v.code}",
                f"(inner {type(am.pam).__name__}) {v.message}",
            )
            for v in inner.violations
        )
    a.check(
        len(am) == len(am.pam),
        "transform.count",
        f"SAM counts {len(am)} rectangles, the inner PAM holds "
        f"{len(am.pam)} points",
    )
    a.records = inner.records
    for point, _rid in inner.records:
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
    pairs = check_bplus_tree(a, am._tree, "clip")
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
    a.records = [(rect, rid) for rid, (rect, _keys) in by_rid.items()]
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
    for view in check_plop_grid(a, am._grid, "oplop"):
        for rect, _rid in view.entries:
            _half_extents_bounded(a, am, rect, "oplop.extent")
