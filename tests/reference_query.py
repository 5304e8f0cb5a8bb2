"""Scalar reference descents of the query path.

The package answers every query through the batched traversal
(:mod:`repro.query.traverse`).  These are the descents it replaced, kept
as the references the tests compare it against access for access: one
Python predicate per entry, one charged ``store.read`` per page, in the
original visit order.  Each takes the structure as its first argument;
:func:`reference` binds the right one onto one instance, and
:func:`scalar_only` fails a block that still reaches the batched path.

Run as a script (``PYTHONPATH=src:. python tests/reference_query.py``) it
is the at-scale check: for nine representative structures, the explain
traces (visited pages, per-page hits, prunes) of one 800-record build
must be byte-equal between the reference descent and the production
traversal, and so must every query's trace in one interleaved
insert / delete / query stream each for BUDDY, GRID-1, R, R+ and
PLOP-SAM (:data:`_STREAMS`), where a query reads coordinate views that mutations spliced
(or, on PLOP-SAM's ``(rect, rid)`` pages, dropped); exit status 1
otherwise.  Tier-1 compares full access streams at small scale.
"""

from __future__ import annotations

import contextlib
import sys
import types

from repro.geometry import blocks, kernels
from repro.geometry.rect import Rect
from repro.geometry.zorder import decompose_rect, z_interval
from repro.pam.bang import BangFile
from repro.pam.buddytree import BuddyTree
from repro.pam.gridfile import GridFile
from repro.pam.hbtree import HBTree
from repro.pam.kdbtree import KdBTree
from repro.pam.plop import PlopHashing
from repro.pam.twingrid import TwinGridFile
from repro.pam.twolevelgrid import TwoLevelGridFile
from repro.pam.zbtree import Z_BITS_PER_AXIS, ZOrderBTree
from repro.query import traverse
from repro.query.traverse import SCALAR_PRED
from repro.sam.clipping import _MAX_DEPTH, _Z_BITS, ClippingSAM
from repro.sam.overlapping import OverlappingPlop
from repro.sam.rplustree import RPlusTree
from repro.sam.rtree import RTree
from repro.sam.transformation import TransformationSAM

# -- shared scans ------------------------------------------------------------


def _cells(first, last):
    """Cell indices from ``first`` to ``last`` inclusive, axis 0 fastest —
    the odometer every grid scan runs (``first`` is always visited)."""
    idx = list(first)
    while True:
        yield tuple(idx)
        axis = 0
        while axis < len(idx):
            idx[axis] += 1
            if idx[axis] <= last[axis]:
                break
            idx[axis] = first[axis]
            axis += 1
        if axis == len(idx):
            return


def _ranges(grid, lo, hi, dims):
    """First and last slice index per axis of a PLOP grid window."""
    ranges = [grid.index_range(axis, lo[axis], hi[axis]) for axis in range(dims)]
    return ranges, [r.start for r in ranges], [r.stop - 1 for r in ranges]


def _payloads_in_rect(layer, rect: Rect) -> list:
    """A grid layer's payloads whose box meets ``rect``, in boxes order."""
    return [pid for pid in layer.boxes if layer.box_rect(pid).intersects(rect)]


def _scan(store, rect: Rect, pids) -> list:
    """Read each data page in order and keep the records inside ``rect``."""
    result = []
    for pid in pids:
        result.extend(r for r in store.read(pid).records if rect.contains_point(r[0]))
    return result


# -- point access methods ----------------------------------------------------


def _meets_half_open(piece: Rect, rect: Rect) -> bool:
    """Closed ``rect`` meets ``piece`` taken half-open: strict on the upper
    face, except at 1.0, which the quantiser clamps inward."""
    return all(
        lo <= q_hi and (q_lo < hi or q_lo == hi == 1.0)
        for lo, hi, q_lo, q_hi in zip(piece.lo, piece.hi, rect.lo, rect.hi)
    )


def _bang_entry_meets(bang, entry, rect: Rect) -> bool:
    """An inner or leaf entry's block — and, with minimal regions, its
    MBR — meets the query."""
    if bang.minimal_regions and (entry.mbr is None or not entry.mbr.intersects(rect)):
        return False
    return blocks.block_rect(entry.bits, bang.dims).intersects(rect)


def bang_range_query(bang, rect: Rect) -> list:
    result = []
    stack = [bang._root_pid]
    while stack:
        node = bang.store.read(stack.pop())
        entries = node.entries
        if not node.is_leaf:
            # Inner entries cannot be pruned by nesting: a data block
            # shorter than a nested sibling may keep records inside the
            # sibling's rectangle in a different subtree.
            stack.extend(e.pid for e in entries if _bang_entry_meets(bang, e, rect))
            continue
        # Where sibling data blocks are nested inside an entry's block,
        # the query must also meet one of the half-open pieces left over.
        residuals = blocks.nested_residuals([e.bits for e in entries])
        pids = [
            entry.pid
            for entry, tiles in zip(entries, residuals)
            if _bang_entry_meets(bang, entry, rect)
            and (
                tiles is None
                or any(
                    _meets_half_open(blocks.block_rect(t, bang.dims), rect)
                    for t in tiles
                )
            )
        ]
        result.extend(_scan(bang.store, rect, pids))
    return result


def buddy_range_query(buddy, rect: Rect) -> list:
    result = []
    seen_data: set[int] = set()

    def visit(pid: int, is_data: bool) -> None:
        if is_data:
            if pid not in seen_data:
                seen_data.add(pid)
                result.extend(_scan(buddy.store, rect, [pid]))
            return
        for entry in buddy.store.read(pid).entries:
            if entry.rect.intersects(rect):
                visit(entry.pid, entry.is_data)

    visit(buddy._root_pid, buddy._root_is_data)
    return result


def hb_range_query(hb, rect: Rect) -> list:
    result = []
    seen: set[int] = set()

    def visit(pid: int, is_data: bool) -> None:
        if pid in seen:
            return
        seen.add(pid)
        if is_data:
            result.extend(_scan(hb.store, rect, [pid]))
            return
        for child in hb._kd_children(hb.store.read(pid).kd, rect):
            visit(*child)

    visit(hb._root_pid, hb._root_is_data)
    return result


def kdb_range_query(kdb, rect: Rect) -> list:
    result = []
    stack = [(kdb._root_pid, kdb._root_is_leaf)]
    while stack:
        pid, is_leaf = stack.pop()
        if is_leaf:
            result.extend(_scan(kdb.store, rect, [pid]))
            continue
        node = kdb.store.read(pid)
        for region, child in zip(node.rects, node.pids):
            if region.intersects(rect):
                stack.append((child, node.leaf_children))
    return result


def grid_range_query(grid, rect: Rect) -> list:
    layer = grid._layer
    cells = _cells(layer.cell_of_point(rect.lo), layer.cell_of_point(rect.hi))
    for dpid in {grid._dir_page_of_cell(cell) for cell in cells}:
        grid.store.read(dpid)
    return _scan(grid.store, rect, _payloads_in_rect(layer, rect))


def twin_range_query(twin, rect: Rect) -> list:
    result = []
    for i, layer in enumerate(twin._layers):
        cells = _cells(layer.cell_of_point(rect.lo), layer.cell_of_point(rect.hi))
        for dpid in {twin._dir_page_of_cell(i, cell) for cell in cells}:
            twin.store.read(dpid)
        result.extend(_scan(twin.store, rect, _payloads_in_rect(layer, rect)))
    return result


def twolevel_range_query(grid, rect: Rect) -> list:
    result = []
    for spid in _payloads_in_rect(grid._root, rect):
        layer = grid.store.read(spid).layer
        result.extend(_scan(grid.store, rect, _payloads_in_rect(layer, rect)))
    return result


def plop_range_query(plop, rect: Rect) -> list:
    _, first, last = _ranges(plop._grid, rect.lo, rect.hi, plop.dims)
    result = []
    for idx in _cells(first, last):
        for _, records in plop._grid.iter_chain_pages(idx):
            result.extend(r for r in records if rect.contains_point(r[0]))
    return result


def zb_range_query(zb, rect: Rect) -> list:
    max_depth = min(zb.dims * Z_BITS_PER_AXIS, 20)
    result = []
    for bits in decompose_rect(rect, zb.dims, zb.query_regions, max_depth):
        lo, hi = z_interval(bits, zb.dims, Z_BITS_PER_AXIS)
        for _, leaf, start, stop in zb._tree.scan_pages(lo, hi):
            rows = leaf.values[start:stop]
            result.extend(r for r in rows if rect.contains_point(r[0]))
    return result


# -- spatial access methods --------------------------------------------------


def rtree_collect(rtree, inner_op: str, leaf_op: str, query: Rect) -> list:
    result = []
    stack = [rtree._root_pid]
    while stack:
        node = rtree.store.read(stack.pop())
        pred = SCALAR_PRED[leaf_op if node.is_leaf else inner_op]
        out = result if node.is_leaf else stack
        out.extend(c for r, c in zip(node.rects, node.children) if pred(r, query))
    return result


def rplus_collect(rplus, region_op: str, entry_op: str, query: Rect) -> list:
    result = []
    seen: set[object] = set()
    stack = [(rplus._root_pid, rplus._root_is_leaf)]
    while stack:
        pid, is_leaf = stack.pop()
        node = rplus.store.read(pid)
        if is_leaf:
            pred = SCALAR_PRED[entry_op]
            for rect, rid in zip(node.rects, node.rids):
                if rid not in seen and pred(rect, query):
                    seen.add(rid)
                    result.append(rid)
            continue
        pred = SCALAR_PRED[region_op]
        for region, child in zip(node.regions, node.pids):
            if pred(region, query):
                stack.append((child, node.leaf_children))
    return result


def clip_query(clip, query: Rect, op: str) -> list:
    seen: set[object] = set()
    result = []
    predicate = SCALAR_PRED[op]

    def offer(items) -> None:
        for rect, rid in items:
            if rid not in seen and predicate(rect, query):
                seen.add(rid)
                result.append(rid)

    probed: set = set()
    for bits in decompose_rect(query, clip.dims, 8, _MAX_DEPTH):
        lo, hi = z_interval(bits, clip.dims, _Z_BITS)
        for _, leaf, start, stop in clip._tree.scan_pages((lo, 0), (hi, 0)):
            offer(leaf.values[start:stop])
        # Ancestor blocks start before `lo`; probe each exactly once.
        for depth in range(len(bits)):
            if bits[:depth] not in probed:
                probed.add(bits[:depth])
                offer(clip._tree.lookup(clip._key(bits[:depth])))
    return result


def plop_sam_scan_window(sam, lo, hi, op: str, query: Rect) -> list:
    if any(l > h for l, h in zip(lo, hi)):
        return []
    ranges, first, last = _ranges(sam._grid, lo, hi, sam.dims)
    if any(r.start >= r.stop for r in ranges):
        return []
    pred = SCALAR_PRED[op]
    result = []
    for idx in _cells(first, last):
        bucket = sam._grid.buckets.get(idx)
        for pid in bucket.chain if bucket is not None else ():
            result.extend(i for r, i in sam.store.read(pid).records if pred(r, query))
    return result


def transformed_query(sam, query_box: Rect | None, op: str, query: Rect) -> list:
    if query_box is None:
        return []
    pred = SCALAR_PRED[op]
    candidates = sam.pam._range_query(query_box)
    return [rid for point, rid in candidates if pred(sam._to_rect(point), query)]


# -- binding -----------------------------------------------------------------

#: Access-method class -> (the query hook its reference replaces, the
#: reference).  Subclasses (MLGF, quantile hashing) inherit their row.
REFERENCES = {
    BangFile: ("_range_query", bang_range_query),
    BuddyTree: ("_range_query", buddy_range_query),
    HBTree: ("_range_query", hb_range_query),
    KdBTree: ("_range_query", kdb_range_query),
    GridFile: ("_range_query", grid_range_query),
    TwinGridFile: ("_range_query", twin_range_query),
    TwoLevelGridFile: ("_range_query", twolevel_range_query),
    PlopHashing: ("_range_query", plop_range_query),
    ZOrderBTree: ("_range_query", zb_range_query),
    RTree: ("_collect", rtree_collect),
    RPlusTree: ("_collect", rplus_collect),
    ClippingSAM: ("_query", clip_query),
    OverlappingPlop: ("_scan_window", plop_sam_scan_window),
    TransformationSAM: ("_transformed_query", transformed_query),
}


def reference(method):
    """Put this one instance — and a transformation SAM's inner PAM — on
    its scalar reference descent and return it.  Builds, charging and
    observer hooks stay the production ones."""
    cls = next(c for c in type(method).__mro__ if c in REFERENCES)
    name, descent = REFERENCES[cls]
    setattr(method, name, types.MethodType(descent, method))
    if isinstance(method, TransformationSAM):
        reference(method.pam)
    return method


@contextlib.contextmanager
def scalar_only():
    """Fail the block if it reaches the batched path: ``traverse.RowSource``,
    ``traverse.data_hit_rows`` and every :mod:`repro.geometry.kernels`
    function (also as the transformation SAM holds them) are swapped for
    call-counting spies."""
    reached: list[str] = []

    def spy(name, fn):
        return lambda *args, **kwargs: reached.append(name) or fn(*args, **kwargs)

    names = [(traverse, "RowSource"), (traverse, "data_hit_rows")]
    names += [(kernels, name) for name in kernels.__all__]
    saved = [(module, name, getattr(module, name)) for module, name in names]
    held, held_saved = TransformationSAM._KERNELS, dict(TransformationSAM._KERNELS)
    try:
        for module, name, fn in saved:
            setattr(module, name, spy(name, fn))
        held.update({op: getattr(kernels, f.__name__) for op, f in held_saved.items()})
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)
        held.update(held_saved)
    assert not reached, f"a reference pass reached the batched path: {set(reached)}"


def _explain_identity() -> list[str]:
    """Failures of the at-scale explain-trace comparison (see the module
    docstring); prints one line per structure that matches."""
    from repro.obs.explain import ExplainRecorder, validate_explain
    from repro.query.driver import run_query_file
    from repro.storage.pagestore import PageStore
    from repro.verify.fuzz import STRUCTURES, _point_pool, _rect_pool
    from repro.workloads import queries as q

    data = {"pam": _point_pool(800, 4242), "sam": _rect_pool(800, 4243)}
    rect_qs = q.generate_rect_query_workload(seed=107)["rectangles"]
    files = {
        "pam": ("range", q.generate_range_queries(0.01, seed=101), "range_query"),
        "sam": ("intersection", rect_qs, "intersection"),
    }
    failures = []
    for name in ("GRID", "BANG", "BUDDY", "HB", "KDB", "R", "R+", "T-BANG", "PLOP-SAM"):
        spec = STRUCTURES[name]
        kind, queries, op = files[spec["kind"]]
        traces = {}
        for scalar in (True, False):
            method = spec["factory"](PageStore(512))
            for rid, item in enumerate(data[spec["kind"]]):
                method.insert(item, rid)
            if scalar:
                reference(method)
            rec = ExplainRecorder(name)
            with scalar_only() if scalar else contextlib.nullcontext():
                run_query_file(method, kind, queries, getattr(method, op), explain=rec)
            trace = traces[scalar] = rec.to_trace()
            failures += [f"{name}/{scalar}: {p}" for p in validate_explain(trace)]
        if traces[True] != traces[False]:
            failures.append(f"{name}: explain traces diverge")
        else:
            n = sum(len(f["queries"]) for f in trace["files"])
            print(f"{name}: {n} queries, traces bit-identical")
    return failures


#: Interleaved-stream op tag -> (public method, explain kind); an exact
#: match reads rows, not columns, and runs untraced.
_STREAM_QUERIES = {
    "exact": ("exact_match", None),
    "range": ("range_query", "range"),
    "pm": ("partial_match", "pm"),
    "point": ("point_query", "point"),
    "intersection": ("intersection", "intersection"),
    "containment": ("containment", "containment"),
    "enclosure": ("enclosure", "enclosure"),
}


def _stream_op(kind: str, op: list):
    """``(method name, explain kind or None, argument)`` of a fuzz op."""
    tag = op[0]
    if tag in ("insert", "delete"):
        geom = tuple(op[1]) if kind == "pam" else Rect(tuple(op[1]), tuple(op[2]))
        return tag, None, (geom, op[-1])
    name, explain = _STREAM_QUERIES[tag]
    if tag == "pm":
        return name, explain, ({axis: value for axis, value in op[1]},)
    if tag in ("exact", "point"):
        return name, explain, (tuple(op[1]),)
    return name, explain, (Rect(tuple(op[1]), tuple(op[2])),)


#: Interleaved-stream lengths.  R+ tolerates an overflow on nearly every
#: leaf, so its stream slows superlinearly (2 000 ops take ~110 s, 600
#: under 1 s) and runs shorter.
_STREAMS = {"BUDDY": 2000, "GRID-1": 2000, "R": 2000, "R+": 600, "PLOP-SAM": 2000}


def _interleaved_identity() -> list[str]:
    """Failures of the interleaved check: one fuzz stream of inserts,
    deletes and single queries each for BUDDY, GRID-1, R, R+ and
    PLOP-SAM, so that queries — containment among them — read pages
    whose coordinate views mutations spliced; every query's explain
    trace must be byte-equal between the reference descent and the
    production traversal."""
    from repro.obs.explain import ExplainRecorder, validate_explain
    from repro.storage.pagestore import PageStore
    from repro.verify.fuzz import STRUCTURES, make_ops, structure_seed

    failures = []
    for name, n_ops in _STREAMS.items():
        spec = STRUCTURES[name]
        ops = make_ops(spec, n_ops, structure_seed(name, 0))
        traces = {}
        for scalar in (True, False):
            method = spec["factory"](PageStore(512))
            if scalar:
                reference(method)
            rec = ExplainRecorder(name)
            stats = method.store.stats
            for op in ops:
                attr, kind, args = _stream_op(spec["kind"], op)
                call = getattr(method, attr)
                if kind is None:
                    call(*args)
                    continue
                rec.start_file(method, kind)
                try:
                    with scalar_only() if scalar else contextlib.nullcontext():
                        before = stats.total
                        result = call(*args)
                    rec.finish_query(0, args[0], stats.total - before, result)
                finally:
                    rec.end_file()
            trace = traces[scalar] = rec.to_trace()
            failures += [f"{name}/{scalar}: {p}" for p in validate_explain(trace)]
        if traces[True] != traces[False]:
            failures.append(f"{name}: interleaved explain traces diverge")
        else:
            n = len(trace["files"])
            print(f"{name}: {n} queries among {len(ops)} ops, traces bit-identical")
    return failures


if __name__ == "__main__":
    failures = _explain_identity() + _interleaved_identity()
    for failure in failures:
        print(f"FAIL {failure}")
    sys.exit(1 if failures else 0)
