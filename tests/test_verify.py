"""The verification subsystem itself: auditors, oracle, fuzzer, wiring.

Three angles: (1) every structure's auditor is green on honest builds,
(2) auditors actually *detect* injected page-level corruption, and
(3) the differential fuzzer finds, shrinks and replays a planted bug.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import re
import signal

import pytest

from repro.geometry.rect import Rect
from repro.pam.buddytree import BuddyTree
from repro.pam.gridfile import GridFile, _GridLayer
from repro.pam.mlgf import MultilevelGridFile
from repro.pam.plop import QuantileHashing
from repro.sam.rtree import RTree
from repro.storage.disk import DiskPageStore
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore
from repro.verify import Audit, AuditError, Violation, run_audit
from repro.verify.barrier import WriteBarrier
from repro.verify.fuzz import (
    STRUCTURES,
    fuzz_structure,
    make_ops,
    replay,
    run_ops,
    shrink_ops,
    structure_seed,
)
from repro.verify.oracle import PamOracle, SamOracle

from tests.conftest import make_clustered_points, make_points, make_rects


class TestAuditorsGreen:
    """Honest builds across every structure carry zero violations."""

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_audit_green_after_build(self, name):
        spec = STRUCTURES[name]
        am = spec["factory"](PageStore())
        if spec["kind"] == "pam":
            for rid, point in enumerate(make_points(150, seed=7)):
                am.insert(point, rid)
        else:
            for rid, rect in enumerate(make_rects(150, seed=7)):
                am.insert(rect, rid)
        if spec["pack_every"]:
            am.pack()
        assert run_audit(am) == []
        am.audit()  # must not raise

    @pytest.mark.parametrize("name", ["BUDDY", "BANG", "HB", "GRID", "KDB"])
    def test_audit_green_on_clustered_data(self, name):
        am = STRUCTURES[name]["factory"](PageStore())
        for rid, point in enumerate(make_clustered_points(200, seed=3)):
            am.insert(point, rid)
        assert run_audit(am) == []

    def test_audit_green_after_deletions(self):
        tree = BuddyTree(PageStore(), 2)
        points = make_points(120, seed=11)
        for rid, point in enumerate(points):
            tree.insert(point, rid)
        for rid, point in enumerate(points[::2]):
            assert tree.delete(point, 2 * rid)
        assert run_audit(tree) == []

    def test_buddy_plus_mixed_pack_insert_sequence(self):
        """Regression: directory splits after pack() used to separate
        entries sharing a data page (violating property 4) and to leave
        stale MBRs behind after unsharing.  This replays the seeded fuzz
        sequence that found both."""
        from repro.verify.fuzz import make_ops, run_ops, structure_seed

        spec = STRUCTURES["BUDDY+"]
        ops = make_ops(spec, 400, structure_seed("BUDDY+", 0))
        assert run_ops(spec, ops, audit_every=10) is None

    def test_mro_dispatch_covers_subclasses(self):
        """MLGF and QUANTILE have no auditor of their own; the base
        class auditor must be found through the MRO, not reported
        missing."""
        for cls in (MultilevelGridFile, QuantileHashing):
            am = cls(PageStore(), 2)
            for rid, point in enumerate(make_points(60, seed=5)):
                am.insert(point, rid)
            violations = run_audit(am)
            assert violations == []

    def test_unregistered_type_reports_missing_auditor(self):
        class NotAnAccessMethod:
            store = PageStore()

            def __len__(self):
                return 0

        violations = run_audit(NotAnAccessMethod())
        assert [v.code for v in violations] == ["auditor.missing"]


class TestCorruptionDetection:
    """Auditors flag page-level corruption injected behind the API."""

    def _data_pages(self, store):
        return [
            pid for pid in store.page_ids() if store.kind(pid) == PageKind.DATA
        ]

    def test_buddy_detects_misplaced_record(self):
        tree = BuddyTree(PageStore(), 2)
        for rid, point in enumerate(make_points(120, seed=1)):
            tree.insert(point, rid)
        pages = self._data_pages(tree.store)
        assert len(pages) >= 2
        src = tree.store.peek(pages[0])
        dst = tree.store.peek(pages[1])
        dst.records.append(src.records.pop())
        codes = {v.code for v in run_audit(tree)}
        assert "pages.mbr-exact" in codes
        with pytest.raises(AuditError) as err:
            tree.audit()
        assert err.value.violations

    def test_buddy_detects_lost_record(self):
        tree = BuddyTree(PageStore(), 2)
        for rid, point in enumerate(make_points(80, seed=2)):
            tree.insert(point, rid)
        page = tree.store.peek(self._data_pages(tree.store)[0])
        page.records.pop()
        codes = {v.code for v in run_audit(tree)}
        assert "records.count" in codes

    def test_rtree_detects_stale_mbr(self):
        tree = RTree(PageStore(), 2)
        for rid, rect in enumerate(make_rects(80, seed=1)):
            tree.insert(rect, rid)
        root = tree.store.peek(tree._root_pid)
        assert not root.is_leaf, "need a directory root for this test"
        lo, hi = root.rects[0].lo, root.rects[0].hi
        root.rects[0] = Rect(lo, tuple(min(1.0, h + 0.25) for h in hi))
        codes = {v.code for v in run_audit(tree)}
        assert "pages.mbr-exact" in codes

    def test_audit_error_message_lists_codes(self):
        tree = BuddyTree(PageStore(), 2)
        for rid, point in enumerate(make_points(120, seed=1)):
            tree.insert(point, rid)
        pages = self._data_pages(tree.store)
        dst = tree.store.peek(pages[1])
        dst.records.append(tree.store.peek(pages[0]).records.pop())
        with pytest.raises(AuditError, match=r"pages\.mbr-exact"):
            tree.audit()

    def test_violation_is_hashable_value_object(self):
        a = Violation("x.code", "message")
        b = Violation("x.code", "message")
        assert a == b and hash(a) == hash(b)

    def test_audit_object_collects_checks(self):
        tree = BuddyTree(PageStore(), 2)
        audit = Audit(tree)
        assert audit.check(True, "ok", "never recorded")
        assert not audit.check(False, "bad", "recorded")
        assert [v.code for v in audit.violations] == ["bad"]


# -- one planted defect per violation code -----------------------------------


def _built(name: str, n: int, page_size: int):
    spec = STRUCTURES[name]
    am = spec["factory"](PageStore(page_size=page_size))
    items = make_points(n, seed=3) if spec["kind"] == "pam" else make_rects(n, seed=3)
    for rid, item in enumerate(items):
        am.insert(item, rid)
    return am


def _views(am, kind: str) -> list:
    return [v for v in am._snapshot_pages() if v.kind == kind]


def _leaves(am) -> list:
    return [am.store.peek(v.pid) for v in _views(am, "data")]


def _root(am):
    return am.store.peek(am._root_pid)


def _first_child(am):
    return am.store.peek(_views(am, "directory")[0].children[0])


def _move(src, dst) -> None:
    dst.records.append(src.records.pop())


def _move_record(am) -> None:
    _move(_leaves(am)[0], _leaves(am)[1])


def _set(path: str, change):
    """Rebind one attribute, e.g. ``_set("_grid._pages", lambda v: v + 1)``."""

    def corrupt(am) -> None:
        *owners, attr = path.split(".")
        for owner in owners:
            am = getattr(am, owner)
        setattr(am, attr, change(getattr(am, attr)))

    return corrupt


def _shrunk(rect: Rect) -> Rect:
    return Rect(rect.lo, tuple((lo + hi) / 2 for lo, hi in zip(rect.lo, rect.hi)))


def _grown(rect: Rect) -> Rect:
    return Rect(rect.lo, tuple(min(1.0, hi + 1e-3) for hi in rect.hi))


def _truncate(*lists, keep: int) -> None:
    for lst in lists:
        del lst[keep:]


def _overfill(am) -> None:
    leaf = _leaves(am)[0]
    leaf.rects.extend(list(leaf.rects) * 3)
    leaf.children.extend(list(leaf.children) * 3)


def _buddy_share(across_nodes: bool):
    """Point a second data entry at the first entry's data page."""

    def corrupt(am) -> None:
        nodes = [am.store.peek(v.pid) for v in _views(am, "directory")[1:3]]
        first = nodes[0].entries[0]
        second = nodes[1].entries[0] if across_nodes else nodes[0].entries[1]
        second.pid = first.pid
        if not across_nodes:  # and a record from a third entry's region
            third = am.store.peek(nodes[0].entries[2].pid)
            am.store.peek(first.pid).records.append(third.records[0])

    return corrupt


def _buddy_nesting(am) -> None:
    child = _views(am, "directory")[1].pid
    entry = next(e for e in _root(am).entries if e.pid == child)
    entry.rect = Rect((0.0, 0.0), (1e-3, 1e-3))


def _rplus_copy(am):
    """(leaf, index) of an entry whose rid has another copy."""
    seen = set()
    for leaf in _leaves(am):
        for i, rid in enumerate(leaf.rids):
            if rid in seen:
                return leaf, i
            seen.add(rid)
    raise AssertionError("no clipped entry")


def _rplus_drop_copy(am) -> None:
    leaf, i = _rplus_copy(am)
    del leaf.rects[i], leaf.rids[i]


def _rplus_rid_rect(am) -> None:
    leaf, i = _rplus_copy(am)
    leaf.rects[i] = _grown(leaf.rects[i])


def _rplus_far_entry(am) -> None:
    leaves = _views(am, "data")
    home = leaves[0].regions[0]
    far = next(v.regions[0] for v in leaves if not v.regions[0].intersects(home))
    am.store.peek(leaves[0].pid).rects[0] = Rect(far.lo, far.lo)


def _bplus_unsorted(am) -> None:
    leaf = next(leaf for leaf in _leaves(am) if leaf.keys[0] != leaf.keys[1])
    leaf.keys[0], leaf.keys[1] = leaf.keys[1], leaf.keys[0]


def _bplus_low_key(am) -> None:
    first, second = _leaves(am)[:2]
    second.keys[0] = first.keys[0]


def _bplus_link(source: int, target: int):
    def corrupt(am) -> None:
        leaves = _views(am, "data")
        am.store.peek(leaves[source].pid).next_pid = leaves[target].pid

    return corrupt


def _zb_z_key(am) -> None:
    leaf = _leaves(am)[0]
    point, rid = leaf.values[0]
    leaf.values[0] = (tuple(1.0 - c for c in point), rid)


def _clip_rid_rect(am) -> None:
    counts: dict = {}
    for leaf in _leaves(am):
        for _rect, rid in leaf.values:
            counts[rid] = counts.get(rid, 0) + 1
    leaf, i = next(
        (leaf, i)
        for leaf in _leaves(am)
        for i, (_rect, rid) in enumerate(leaf.values)
        if counts[rid] > 1
    )
    rect, rid = leaf.values[i]
    leaf.values[i] = (_grown(rect), rid)


def _clip_decomposition(am) -> None:
    leaf = _leaves(am)[0]
    leaf.values[0] = (Rect.unit(2), leaf.values[0][1])


def _plop_buckets(am) -> list:
    return list(am._grid.buckets.values())


def _plop_bucket_index(am) -> None:
    grid = am._grid
    # Indexed from the end, the slices still give the walk a region.
    grid.buckets[(-2,) * grid.dims] = grid.buckets.pop(next(iter(grid.buckets)))


def _plop_placement(am) -> None:
    first, second = _plop_buckets(am)[:2]
    _move(am.store.peek(first.chain[0]), am.store.peek(second.chain[0]))


def _transformed_record(point):
    """Replace one stored 4-d point of a transformation SAM's inner PAM."""

    def corrupt(am) -> None:
        page = next(p for p in _leaves(am.pam) if p.records)
        page.records[0] = (point, page.records[0][1])

    return corrupt


def _twin_placement(am) -> None:
    first, second = [am.store.peek(v.pid) for v in _views(am, "data") if v.depth == 3][:2]
    _move(first, second)


def _grid2_routing(am) -> None:
    first, second = (am.store.peek(s).layer for s in list(am._root.boxes)[:2])
    _move(
        am.store.peek(next(iter(first.boxes))),
        am.store.peek(next(iter(second.boxes))),
    )


def _grid2_region(am) -> None:
    layer = am.store.peek(next(iter(am._root.boxes))).layer
    layer.region = _shrunk(layer.region)


def _dir_page(which=None):
    def corrupt(am) -> None:
        pages = am._dir_pages if which is None else am._dir_pages[which]
        pages.append(10**6)

    return corrupt


#: Grid layers by violation-code prefix: (structure, layer of a build).
_GRID_LAYERS = {
    "grid": ("GRID-1", lambda am: am._layer),
    "twin.primary": ("TWIN", lambda am: am._layers[0]),
    "twin.twin": ("TWIN", lambda am: am._layers[1]),
    "grid2.root": ("GRID", lambda am: am._root),
    "grid2.sub": ("GRID", lambda am: am.store.peek(next(iter(am._root.boxes))).layer),
}


def _layer_scales(layer) -> None:
    layer.scales[0][0] -= 1e-3


def _layer_coverage(layer) -> None:
    layer.cells[(10**6,) * layer.dims] = next(iter(layer.boxes))


def _layer_box_range(layer) -> None:
    # The last cell, indexed from the end: box_rect() still resolves it.
    layer.boxes[next(iter(layer.boxes))] = ([-2] * layer.dims, [-2] * layer.dims)


def _layer_box_cells(layer) -> None:
    first, second = list(layer.boxes)[:2]
    layer.cells[tuple(layer.boxes[first][0])] = second


def _layer_partition(layer) -> None:
    pid, (lo, _hi) = next((p, b) for p, b in layer.boxes.items() if b[0] != b[1])
    layer.boxes[pid] = (lo, list(lo))


def _on_layer(layer_of, corrupt):
    return lambda am: corrupt(layer_of(am))


_LAYER_DEFECTS = {
    "scales": _layer_scales,
    "coverage": _layer_coverage,
    "box-range": _layer_box_range,
    "box-cells": _layer_box_cells,
    "partition": _layer_partition,
}


def _r_cycle(am) -> None:
    _root(am).children[0] = am._root_pid


def _kdb_entry_at_directory(am) -> None:
    _first_child(am).pids[0] = am._root_pid


def _buddy_entry_at_directory(am) -> None:
    next(e for e in _first_child(am).entries if e.is_data).pid = am._root_pid


def _orphan(am) -> None:
    am.store.allocate(PageKind.DATA, _leaves(am)[0])


def _retype(am) -> None:
    am.store._kinds[_views(am, "data")[0].pid] = PageKind.DIRECTORY


def _pin_data_page(am) -> None:
    am.store.pin(_views(am, "data")[0].pid)


def _grow_entry(am) -> None:
    _first_child(am).rects[0] = Rect.unit(2)


def _kdb_overlap(am) -> None:
    rects = _root(am).rects
    rects[1] = rects[0]


def _kdb_gap(am) -> None:
    rects = _root(am).rects
    rects[0] = _shrunk(rects[0])


def _lose_record(am) -> None:
    _leaves(am)[0].records.pop()


def _roomy_leaf(am):
    """A data page holding records with room for one more."""
    return next(
        am.store.peek(v.pid) for v in _views(am, "data") if 0 < v.records < v.capacity
    )


def _duplicate_record(am) -> None:
    page = _roomy_leaf(am)
    page.records.append(page.records[0])


def _bplus_duplicate_record(am) -> None:
    leaf = _roomy_leaf(am)
    leaf.keys.insert(0, leaf.keys[0])
    leaf.values.insert(0, leaf.values[0])


def _planted(name, n, page_size, corrupt, code):
    return pytest.param(name, n, page_size, corrupt, code, id=f"{code}@{name}")




def _set_root_bits(am) -> None:
    _root(am).bits = (1,)


def _extend_data_bits(am) -> None:
    page = _leaves(am)[0]
    page.bits = page.bits + (0,)


def _bang_dup_block(am) -> None:
    entries = _root(am).entries
    entries[1].bits = entries[0].bits


def _bang_mirror(am) -> None:
    am._data_blocks.pop(next(bits for bits in am._data_blocks if bits))


def _bang_region(am) -> None:
    _root(am).entries[0].mbr = Rect.unit(2)


def _hb_leaf(am):
    return am._kd_leaves(_root(am).kd)[0]


def _hb_region(am) -> None:
    _hb_leaf(am).mbr = Rect.unit(2)


def _hb_parents(am) -> None:
    am._parents[_hb_leaf(am).pid] = {10**6}


def _hb_parents_stale(am) -> None:
    am._parents[10**6] = {am._root_pid}


def _kdb_arity(am) -> None:
    _root(am).rects.pop()


def _r_arity(am) -> None:
    _leaves(am)[0].children.pop()


def _r_min_fill(am) -> None:
    leaf = _leaves(am)[0]
    _truncate(leaf.rects, leaf.children, keep=1)


def _r_root(am) -> None:
    root = _root(am)
    _truncate(root.rects, root.children, keep=1)


def _rplus_arity(am) -> None:
    _leaves(am)[0].rids.pop()


def _max_extent_zero(am) -> None:
    am._max_extent = [0.0] * am.dims


#: (structure, records, page size, one corruption, the code it must fire).
#: Each code an auditor reports has a row.  The first three rows are
#: corrupt links: before the page model the first looped forever and
#: the other two crashed the audit with an AttributeError.
PLANTED = [
    # -- the page model (check_walk) and the record count
    _planted("R", 400, 512, _r_cycle, "pages.repeated"),
    _planted("KDB", 300, 256, _kdb_entry_at_directory, "pages.walk"),
    _planted("BUDDY", 300, 256, _buddy_entry_at_directory, "pages.walk"),
    _planted("R", 200, 512, _orphan, "pages.orphan"),
    _planted("GRID-1", 200, 512, _dir_page(), "pages.dangling"),
    _planted("PLOP", 200, 512, _pin_data_page, "pages.pins"),
    _planted("PLOP", 200, 512, _retype, "pages.kind"),
    _planted("R", 200, 512, _overfill, "pages.capacity"),
    _planted("R", 300, 256, _grow_entry, "pages.nesting"),
    _planted("KDB", 200, 512, _kdb_overlap, "pages.disjoint"),
    _planted("KDB", 200, 512, _kdb_gap, "pages.complete"),
    _planted("BUDDY", 200, 512, _move_record, "pages.mbr-exact"),
    _planted("R", 200, 512, _set("_height", lambda h: h + 1), "pages.balance"),
    _planted("BUDDY", 200, 512, _lose_record, "records.count"),
    # A record stored twice where each object is stored once: the shared
    # record walk must count the copy, not fold it.
    _planted("GRID-1", 200, 512, _duplicate_record, "records.count"),
    _planted("ZB", 300, 256, _bplus_duplicate_record, "records.count"),
    # -- BUDDY / MLGF
    _planted("BUDDY", 200, 512, lambda am: _truncate(_root(am).entries, keep=1), "buddy.min-entries"),
    _planted("BUDDY", 300, 256, _buddy_nesting, "buddy.nesting"),
    _planted("BUDDY", 200, 512, lambda am: _leaves(am)[0].records.clear(), "buddy.data-empty"),
    _planted("BUDDY", 300, 256, _buddy_share(across_nodes=True), "buddy.share-node"),
    _planted("BUDDY", 300, 256, _buddy_share(across_nodes=False), "buddy.share-cover"),
    # -- BANG
    _planted("BANG", 200, 512, _set("_dir_payload", lambda v: 1), "bang.dir-capacity"),
    _planted("BANG", 200, 512, _set_root_bits, "bang.nesting"),
    _planted("BANG", 200, 512, _extend_data_bits, "bang.entry-block"),
    _planted("BANG", 200, 512, _bang_dup_block, "bang.block-dup"),
    _planted("BANG", 200, 512, _bang_mirror, "bang.mirror"),
    _planted("BANG-MBR", 200, 512, _bang_region, "bang.region"),
    _planted("BANG", 200, 512, _move_record, "bang.placement"),
    # -- hB-tree
    _planted("HB", 200, 512, _set("_index_payload", lambda v: 1), "hb.index-capacity"),
    _planted("HB-MBR", 200, 512, _hb_region, "hb.region"),
    _planted("HB", 200, 512, _hb_parents, "hb.parents"),
    _planted("HB", 200, 512, _hb_parents_stale, "hb.parents-stale"),
    _planted("HB", 200, 512, _move_record, "hb.routing"),
    # -- k-d-B-tree
    _planted("KDB", 200, 512, _kdb_arity, "kdb.arity"),
    _planted("KDB", 200, 512, _move_record, "kdb.placement"),
    # -- R-tree
    _planted("R", 200, 512, _r_arity, "rtree.arity"),
    _planted("R", 200, 512, _r_min_fill, "rtree.min-fill"),
    _planted("R", 200, 512, _r_root, "rtree.root"),
    # -- R+-tree
    _planted("R+", 300, 256, _rplus_arity, "rplus.arity"),
    _planted("R+", 300, 256, _rplus_far_entry, "rplus.entry-region"),
    _planted("R+", 300, 256, _rplus_rid_rect, "rplus.rid-rect"),
    _planted("R+", 300, 256, _rplus_drop_copy, "rplus.clipping"),
    # -- grid files (the layer checks follow, one row per layer)
    _planted("GRID-1", 200, 512, _move_record, "grid.placement"),
    _planted("GRID-1", 200, 512, _dir_page(), "grid.dir-count"),
    _planted("TWIN", 300, 128, _move_record, "twin.primary.placement"),
    _planted("TWIN", 300, 128, _twin_placement, "twin.twin.placement"),
    _planted("TWIN", 300, 128, _dir_page(0), "twin.primary.dir-count"),
    _planted("TWIN", 300, 128, _dir_page(1), "twin.twin.dir-count"),
    _planted("GRID", 300, 128, _move_record, "grid2.placement"),
    _planted("GRID", 300, 128, _grid2_routing, "grid2.routing"),
    _planted("GRID", 300, 128, _grid2_region, "grid2.region"),
    _planted("GRID", 300, 128, _set("_subgrid_payload", lambda v: 1), "grid2.sub-size"),
    *(
        _planted(name, 300, 128, _on_layer(layer_of, corrupt), f"{prefix}.{check}")
        for prefix, (name, layer_of) in _GRID_LAYERS.items()
        for check, corrupt in _LAYER_DEFECTS.items()
    ),
    # -- PLOP grids: PLOP / QUANTILE ("plop"), overlapping regions ("oplop")
    *(
        row
        for name, prefix in (("PLOP", "plop"), ("PLOP-SAM", "oplop"))
        for row in (
            _planted(name, 200, 512, _set("_grid.slices", lambda s: [s[0][:-1] + [0.999], *s[1:]]), f"{prefix}.slices"),
            _planted(name, 200, 512, _plop_bucket_index, f"{prefix}.bucket-index"),
            _planted(name, 200, 512, lambda am: _plop_buckets(am)[0].chain.clear(), f"{prefix}.chain-empty"),
            _planted(name, 200, 512, _plop_placement, f"{prefix}.placement"),
            _planted(name, 200, 512, _set("_grid._pages", lambda v: v + 1), f"{prefix}.page-count"),
            _planted(name, 200, 512, _set("_grid._records", lambda v: v + 1), f"{prefix}.record-count"),
        )
    ),
    _planted("PLOP-SAM", 200, 512, _max_extent_zero, "oplop.extent"),
    # -- B+-trees: z-order ("zb"), clipping ("clip")
    *(
        row
        for name, prefix in (("ZB", "zb"), ("CLIP", "clip"))
        for row in (
            _planted(name, 300, 256, _bplus_unsorted, f"{prefix}.sorted"),
            _planted(name, 300, 256, lambda am: _leaves(am)[0].values.pop(), f"{prefix}.arity"),
            _planted(name, 300, 256, _bplus_low_key, f"{prefix}.separators"),
            _planted(name, 300, 256, _bplus_low_key, f"{prefix}.chain-sorted"),
            _planted(name, 300, 256, _bplus_link(-1, 0), f"{prefix}.chain-cycle"),
            _planted(name, 300, 256, _bplus_link(0, 2), f"{prefix}.chain-coverage"),
        )
    ),
    _planted("ZB", 300, 256, _zb_z_key, "zb.z-key"),
    _planted("CLIP", 200, 512, _set("_region_entries", lambda v: v + 1), "clip.region-count"),
    _planted("CLIP", 200, 512, _clip_rid_rect, "clip.rid-rect"),
    _planted("CLIP", 200, 512, _set("redundancy", lambda v: 1), "clip.redundancy"),
    _planted("CLIP", 200, 512, _clip_decomposition, "clip.decomposition"),
    # -- transformation SAM (the inner PAM's codes come prefixed)
    _planted("T-BUDDY", 200, 512, lambda am: _move_record(am.pam), "transform.pages.mbr-exact"),
    _planted("T-BUDDY", 200, 512, _set("_records", lambda v: v + 1), "transform.count"),
    _planted("T-BUDDY", 200, 512, _transformed_record((0.5, 0.5, 0.4, 0.6)), "transform.roundtrip"),
    _planted("T-BUDDY", 200, 512, _transformed_record((0.2, 0.2, 1.5, 0.3)), "transform.unit"),
    _planted("T-BUDDY", 200, 512, _max_extent_zero, "transform.extent"),
]


@contextlib.contextmanager
def _time_bound(seconds: int):
    """Fail, instead of hanging the suite, if the block outlives ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"the audit did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestPlantedDefects:
    """One corruption per violation code: the audit reports that code."""

    @pytest.mark.parametrize("name, n, page_size, corrupt, code", PLANTED)
    def test_the_audit_reports_the_planted_defect(self, name, n, page_size, corrupt, code):
        am = _built(name, n, page_size)
        assert run_audit(am) == []
        corrupt(am)
        with _time_bound(10):
            codes = {v.code for v in run_audit(am)}
        assert code in codes, sorted(codes)


class TestOracles:
    def test_pam_oracle_round_trip(self):
        oracle = PamOracle()
        oracle.insert((0.1, 0.2), 0)
        oracle.insert((0.3, 0.4), 1)
        assert oracle.exact_match((0.1, 0.2)) == [0]
        assert oracle.partial_match({0: 0.3}) == [((0.3, 0.4), 1)]
        assert oracle.delete((0.1, 0.2), 0)
        assert not oracle.delete((0.1, 0.2), 0)
        assert oracle.range_query(Rect.unit(2)) == [((0.3, 0.4), 1)]

    def test_sam_oracle_query_types(self):
        oracle = SamOracle()
        oracle.insert(Rect((0.1, 0.1), (0.4, 0.4)), "a")
        oracle.insert(Rect((0.2, 0.2), (0.3, 0.3)), "b")
        probe = Rect((0.15, 0.15), (0.35, 0.35))
        assert oracle.intersection(probe) == ["a", "b"]
        assert oracle.containment(probe) == ["b"]
        assert oracle.enclosure(Rect((0.25, 0.25), (0.26, 0.26))) == ["a", "b"]
        assert oracle.point_query((0.25, 0.25)) == ["a", "b"]
        assert oracle.delete(Rect((0.2, 0.2), (0.3, 0.3)), "b")
        assert oracle.intersection(probe) == ["a"]


class TestFuzzer:
    def test_ops_are_deterministic(self):
        for name in ("BUDDY", "R"):
            spec = STRUCTURES[name]
            seed = structure_seed(name, 0)
            assert make_ops(spec, 80, seed) == make_ops(spec, 80, seed)

    def test_structure_seeds_are_distinct(self):
        seeds = {structure_seed(name, 0) for name in STRUCTURES}
        assert len(seeds) == len(STRUCTURES)

    @pytest.mark.parametrize(
        "name",
        ["GRID-1", "BUDDY", "BUDDY+", "R", "CLIP", "R+", "ZB", "PLOP-SAM", "T-BUDDY"],
    )
    def test_run_ops_green_smoke(self, name):
        spec = STRUCTURES[name]
        ops = make_ops(spec, 150, structure_seed(name, 0))
        assert run_ops(spec, ops, audit_every=25) is None

    def test_fuzz_structure_green_writes_nothing(self, tmp_path):
        assert fuzz_structure("ZB", 100, 0, 20, tmp_path) is None
        assert list(tmp_path.iterdir()) == []

    def test_fuzzer_finds_shrinks_and_replays_planted_bug(
        self, tmp_path, monkeypatch
    ):
        class _LyingBuddy(BuddyTree):
            """Drops every rid >= 3 from exact-match answers."""

            def exact_match(self, point):
                return [
                    rid
                    for rid in super().exact_match(point)
                    if not (isinstance(rid, int) and rid >= 3)
                ]

        spec = {
            "kind": "pam",
            "factory": lambda s: _LyingBuddy(s, 2),
            "deletes": False,
            "pack_every": None,
        }
        points = make_points(6, seed=9)
        ops = [["insert", list(p), rid] for rid, p in enumerate(points)]
        ops += [["exact", list(p)] for p in points]
        failure = run_ops(spec, ops, audit_every=0)
        assert failure is not None and failure["code"] == "mismatch"

        shrunk = shrink_ops(
            lambda candidate: run_ops(spec, candidate, 0) is not None, ops
        )
        # Minimal reproducer: one insert with rid >= 3, one exact query.
        assert len(shrunk) == 2
        assert shrunk[0][0] == "insert" and shrunk[0][2] >= 3
        assert shrunk[1] == ["exact", shrunk[0][1]]

        monkeypatch.setitem(STRUCTURES, "LYING", spec)
        report = fuzz_structure("LYING", 40, 0, 10, tmp_path)
        assert report is not None and report["code"] == "mismatch"
        path = tmp_path / "LYING-seed0.json"
        assert report["reproducer"] == str(path)
        blob = json.loads(path.read_text())
        assert blob["structure"] == "LYING"
        assert blob["ops"] and blob["failure"]["code"] == "mismatch"
        assert replay(path) is not None

    def test_reproducer_filenames_escape_shell_chars(self, tmp_path, monkeypatch):
        class _Broken(BuddyTree):
            def exact_match(self, point):
                return []

        spec = {
            "kind": "pam",
            "factory": lambda s: _Broken(s, 2),
            "deletes": False,
            "pack_every": None,
        }
        monkeypatch.setitem(STRUCTURES, "BAD*", spec)
        report = fuzz_structure("BAD*", 40, 0, 0, tmp_path)
        assert report is not None
        assert (tmp_path / "BADstar-seed0.json").is_file()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_run_ops_closes_every_disk_store(self, tmp_path):
        """Green runs and failed ones: a scribbled page is still in the
        WAL only, so the failed run's checkpoint raises on close."""
        green = STRUCTURES["GRID-1"], make_ops(STRUCTURES["GRID-1"], 40, 0)
        failed = _SCRIBBLER, make_ops(_SCRIBBLER, 40, 0)
        stores = _stores(tmp_path)["disk"]
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(10):
            assert run_ops(*green, 0, stores) is None
            assert run_ops(*failed, 0, stores)["code"] == "audit"
        assert len(os.listdir("/proc/self/fd")) - before < 5  # two files a store

    def test_a_close_that_raises_never_replaces_the_failure(self, tmp_path):
        class _LostDisk(DiskPageStore):
            def close(self):
                super().close()
                raise OSError("disk gone")

        class _Broken(BuddyTree):
            def exact_match(self, point):
                return []

        dirs = itertools.count()
        store = lambda: _LostDisk(tmp_path / str(next(dirs)), pool_pages=8)  # noqa: E731
        ops = [["insert", [0.5, 0.5], 0], ["exact", [0.5, 0.5]]]
        failure = run_ops(STRUCTURES["BUDDY"], ops, 0, store)
        assert failure["code"] == "exception" and "disk gone" in failure["detail"]
        assert failure["op_index"] == 1
        broken = {**STRUCTURES["BUDDY"], "factory": lambda s: _Broken(s, 2)}
        assert run_ops(broken, ops, 0, store)["code"] == "mismatch"

    def test_cli_green_run(self, tmp_path, capsys):
        from repro.verify.fuzz import main

        rc = main(
            [
                "--ops",
                "80",
                "--seed",
                "0",
                "--structures",
                "GRID,BUDDY",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "GRID" in out and "ok" in out

    def test_cli_rejects_unknown_structure(self, tmp_path):
        from repro.verify.fuzz import main

        with pytest.raises(SystemExit):
            main(["--structures", "NOPE", "--out", str(tmp_path)])


def _pack_without_directory_write(self):
    """``BuddyTree.pack`` as it was before it wrote the directory pages
    whose entries ``_fuse`` repoints."""
    write = self.store.write
    self.store.write = lambda pid: (
        write(pid) if self.store.kind(pid) is PageKind.DATA else None
    )
    try:
        return _REAL_PACK(self)
    finally:
        del self.store.write


_REAL_PACK = BuddyTree.pack


class _Scribbler(BuddyTree):
    """Reorders the records of a data page on every range query: the
    answers stay right, the image moves, nobody calls write()."""

    def _range_query(self, rect):
        store = self.store
        for pid in store.page_ids():
            if store.kind(pid) is PageKind.DATA and len(store.peek(pid).records) > 1:
                store.read(pid).records.reverse()
                break
        return super()._range_query(rect)


_SCRIBBLER = {
    "kind": "pam",
    "factory": lambda s: _Scribbler(s, 2),
    "deletes": False,
    "pack_every": None,
}


def _stores(tmp_path, page_size: int = 512, pool_pages: int = 8) -> dict:
    """Store factories for both backends: the simulated store and a
    small-pool durable one in a fresh directory per call."""
    dirs = itertools.count()
    return {
        "sim": lambda: PageStore(page_size),
        "disk": lambda: DiskPageStore(
            tmp_path / f"store-{next(dirs)}", page_size, pool_pages=pool_pages, fsync=False
        ),
    }


class _Hoarder(GridFile):
    """GRID-1 keeping every data page object it reads across operations,
    and inserting into the kept object."""

    def _kept(self, point):
        pid = self._locate(point)
        return pid, self.__dict__.setdefault("_pages", {}).setdefault(pid, self.store.read(pid))

    def _insert(self, point, rid):
        pid, page = self._kept(point)
        page.records.append((point, rid))
        if len(page.records) > self._capacity:
            self._split_data_page(pid, page)
        else:
            self.store.write(pid)


class _KeptReader(_Hoarder):
    """GRID-1 answering exact matches from page objects kept across
    operations; its inserts are the real ones."""

    _insert = GridFile._insert

    def _exact_match(self, point):
        _, page = self._kept(point)
        return [rid for p, rid in page.records if p == point]


class TestWriteBarrier:
    """The page-mutation contract: a page image changes only inside an
    operation that calls write()/allocate()/free() on it."""

    @pytest.mark.parametrize("name", list(STRUCTURES))
    def test_every_structure_keeps_the_contract(self, name):
        spec = STRUCTURES[name]
        ops = make_ops(spec, 300, structure_seed(name, 7))
        assert run_ops(spec, ops, audit_every=0, store_factory=PageStore) is None

    def test_the_barrier_sees_windows_not_calls(self):
        store = PageStore()
        barrier = WriteBarrier(store)
        store.begin_operation()  # operation 0
        pid = store.allocate(PageKind.DATA, [1])
        store.read(pid).append(2)  # allocated in this window: no write needed
        store.begin_operation()  # operation 1
        store.read(pid).append(3)  # ahead of its write, in the same window
        store.write(pid)
        store.begin_operation()  # operation 2
        doomed = store.allocate(PageKind.DIRECTORY, {})
        store.begin_operation()  # operation 3
        store.read(doomed)["x"] = 1
        store.free(doomed)
        store.begin_operation()  # operation 4
        store.read(pid).append(4)  # and nobody calls write()
        with pytest.raises(AuditError) as err:
            store.begin_operation()
        (violation,) = err.value.violations
        assert violation.code == "contract.unwritten"
        assert "page 0 (data, list)" in violation.message
        assert "during operation 4 " in violation.message
        barrier.check()  # reported once: the new image is the baseline now

    def test_held_pages_are_paid_for_by_their_operation(self):
        store = PageStore()
        barrier = WriteBarrier(store)
        root = store.allocate(PageKind.DIRECTORY, {})
        store.pin(root)
        page = store.allocate(PageKind.DATA, [1])
        store.held(page)  # allocated in this window
        store.begin_operation()  # operation 0
        store.held(root)  # pinned: resident by definition, never read
        store.held(page)  # a lookahead at a page the operation then reads
        store.read(page)
        store.begin_operation()  # operation 1
        store.held(page).append(2)  # ahead of its write
        store.write(page)
        store.begin_operation()  # operation 2
        store.held(page)  # and nothing reads, writes or allocates it
        with pytest.raises(AuditError) as err:
            store.begin_operation()
        (violation,) = err.value.violations
        assert violation.code == "contract.uncharged"
        assert violation.message.startswith("page 1 (data, list) reached through held()")
        assert "during operation 2," in violation.message
        barrier.check()  # a window of its own

    def test_a_method_that_reaches_past_its_reads_is_shrunk(self, tmp_path, monkeypatch):
        class _Lookahead(RTree):
            """Holds children of the root ahead of a point query: all of
            them, or only those whose rectangle the replay descends into."""

            everything = True

            def _point_query(self, point):
                root = self.store.held(self._root_pid)  # pinned
                if not root.is_leaf:
                    for rect, child in zip(root.rects, root.children):
                        if self.everything or rect.contains_point(point):
                            self.store.held(child)
                return super()._point_query(point)

        spec = {
            "kind": "sam",
            "factory": lambda s: _Lookahead(s),
            "deletes": False,
            "pack_every": None,
        }
        monkeypatch.setitem(STRUCTURES, "LOOKAHEAD", spec)
        small = lambda: PageStore(128)  # noqa: E731 - a root split within a few inserts
        report = fuzz_structure("LOOKAHEAD", 300, 0, 0, tmp_path, small)
        assert report["code"] == "audit" and "contract.uncharged" in report["detail"]
        assert "(data, _Node) reached through held()" in report["detail"]
        ops = json.loads((tmp_path / "LOOKAHEAD-seed0.json").read_text())["ops"]
        assert report["shrunk_ops"] == len(ops) < 40
        op = int(re.search(r"during operation (\d+),", report["detail"])[1])
        assert ops[op][0] == "point"
        # A lookahead at exactly what the replay reads is the plan's contract.
        monkeypatch.setattr(_Lookahead, "everything", False)
        stream = make_ops(spec, 300, structure_seed("LOOKAHEAD", 0))
        assert run_ops(spec, stream, audit_every=0, store_factory=small) is None

    def test_the_barrier_keeps_the_observer_it_replaced(self):
        from repro.obs.tracer import Tracer

        store = PageStore()
        tracer = Tracer().attach(store)
        WriteBarrier(store)
        store.begin_operation()
        store.write(store.allocate(PageKind.DATA, [1]))
        store.begin_operation()
        assert len(tracer.finish()) == 2 and tracer.stats() == store.stats

    def test_a_forgetful_method_is_shrunk_to_a_reproducer(self, tmp_path, monkeypatch):
        monkeypatch.setitem(STRUCTURES, "SCRIBBLER", _SCRIBBLER)
        for backend, stores in _stores(tmp_path).items():
            report = fuzz_structure("SCRIBBLER", 60, 0, 0, tmp_path / backend, stores)
            assert report["code"] == "audit", backend
            assert "contract.unwritten" in report["detail"]
            blob = json.loads((tmp_path / backend / "SCRIBBLER-seed0.json").read_text())
            kinds = [op[0] for op in blob["ops"]]  # a partial match runs as a range query
            assert kinds[:2] == ["insert", "insert"] and kinds[2:] in (["range"], ["pm"])

    def test_grid_without_its_getstate_is_caught(self, tmp_path, monkeypatch):
        monkeypatch.delattr(_GridLayer, "__getstate__")
        for backend, stores in _stores(tmp_path).items():
            report = fuzz_structure("GRID", 300, 7, 0, tmp_path / backend, stores)
            assert report["code"] == "audit" and report["shrunk_ops"] < 100, backend
            assert "contract.unwritten" in report["detail"] and "_SubGrid" in report["detail"]

    def test_pack_without_its_directory_write_is_caught(self, tmp_path, monkeypatch):
        monkeypatch.setattr(BuddyTree, "pack", _pack_without_directory_write)
        # Small pages: the root was written by the insert whose window
        # pack() shares, so it takes a second directory level to show.
        for backend, stores in _stores(tmp_path, 192).items():
            report = fuzz_structure("BUDDY+", 300, 7, 0, tmp_path / backend, stores)
            assert report["code"] == "audit" and report["op"] == ["pack"], backend
            assert "contract.unwritten" in report["detail"] and "_DirNode" in report["detail"]

    @pytest.mark.parametrize("cls", [_Hoarder, _KeptReader], ids=lambda c: c.__name__)
    def test_a_page_kept_across_operations_fails_on_disk_only(self, tmp_path, cls):
        """A page object kept past its operation is the live one on the
        simulated store.  On disk it goes stale once the pool evicts it:
        the barrier sees nothing (the store holds no trace of the kept
        object), and the oracle or the audit fails the run."""
        spec = {**STRUCTURES["GRID-1"], "factory": cls}
        ops = make_ops(spec, 300, structure_seed("GRID-1", 0))
        stores = _stores(tmp_path, pool_pages=4)
        assert run_ops(spec, ops, 0, stores["sim"]) is None
        assert run_ops(spec, ops, 0, stores["disk"])["code"] == "mismatch"

    def test_a_mutation_through_peek_is_caught(self):
        """On the simulated store a peek is the live object.  On disk the
        same defect, evicted from a current slot in its own operation,
        leaves no trace for the barrier: this backend is the one that
        kills it."""
        store = PageStore()
        WriteBarrier(store)
        store.begin_operation()
        pid = store.allocate(PageKind.DATA, [1])
        store.begin_operation()
        store.peek(pid).append(2)
        with pytest.raises(AuditError, match=r"contract\.unwritten\] page 0 \(data, list\)"):
            store.begin_operation()

    def test_unbracketed_pack_is_attributed_to_the_window_it_ran_in(self, monkeypatch):
        points = make_clustered_points(150, seed=3)

        def packed(pack):
            monkeypatch.setattr(BuddyTree, "pack", pack)
            store = PageStore(192)  # two directory levels by 150 records
            WriteBarrier(store)
            tree = BuddyTree(store, 2)
            for rid, point in enumerate(points):
                tree.insert(point, rid)  # operations 0 .. 149
            assert tree.pack() > 0  # no bracket of its own: still operation 149
            return tree

        assert len(packed(_REAL_PACK).range_query(Rect.unit(2))) == 150
        with pytest.raises(AuditError, match=r"_DirNode\) changed during operation 149 "):
            packed(_pack_without_directory_write).range_query(Rect.unit(2))


class TestExperimentWiring:
    def test_build_pam_audit_flag(self):
        from repro.core.comparison import build_pam

        pam = build_pam(
            lambda s, dims=2: BuddyTree(s, dims),
            make_points(60, seed=4),
            audit=True,
        )
        assert len(pam) == 60

    def test_build_sam_audit_flag(self):
        from repro.core.comparison import build_sam

        sam = build_sam(
            lambda s, dims=2: RTree(s, dims), make_rects(60, seed=4), audit=True
        )
        assert len(sam) == 60

    def test_audit_env_variable(self, monkeypatch):
        from repro.core.comparison import build_pam, run_experiment

        audits = []
        monkeypatch.setattr(BuddyTree, "audit", lambda self: audits.append(self))
        factories = {"BUDDY": lambda s, dims=2: BuddyTree(s, dims)}
        points = make_points(40, seed=4)
        monkeypatch.setenv("REPRO_AUDIT", "1")
        build_pam(factories["BUDDY"], points)  # builders take values only
        run_experiment("pam", factories, points, audit=False)  # and so do drivers
        run_experiment("pam", factories, points)  # the default is off, not the env
        assert audits == []

    def test_audit_reaches_cells_run_by_name(self, monkeypatch):
        """An explicit ``audit=True`` travels to every job, whether the
        cell's structure comes from a factory or a registered name."""
        from repro.core.comparison import run_experiment

        audits = []
        monkeypatch.setattr(BuddyTree, "audit", lambda self: audits.append(self))
        run_experiment("pam", ["BUDDY"], make_points(40, seed=4), audit=True)
        assert len(audits) == 1

    def test_audit_leaves_experiment_costs_unchanged(self):
        from repro.core.comparison import run_experiment
        from repro.core.testbed import standard_pam_factories, standard_sam_factories

        points, rects = make_points(80, seed=6), make_rects(60, seed=6)
        for kind, names, data in (
            ("pam", list(standard_pam_factories())[:2], points),
            ("sam", list(standard_sam_factories())[:2], rects),
        ):
            audited = run_experiment(kind, names, data, audit=True).results
            plain = run_experiment(kind, names, data).results
            for name in names:
                assert audited[name].query_costs == plain[name].query_costs

    def test_experiment_with_audit_enabled(self):
        from repro.core.comparison import run_experiment

        outcome = run_experiment(
            "pam",
            {"BUDDY": lambda s, dims=2: BuddyTree(s, dims)},
            make_points(80, seed=6),
            audit=True,
        )
        assert outcome.results["BUDDY"].metrics.records == 80
