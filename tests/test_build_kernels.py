"""Reference identity of the build path.

The integer Morton kernel of :mod:`repro.geometry.blocks` and the split
choosers of BANG, BUDDY and the R-tree that run on packed codes and
fused page columns must decide *exactly* what their pure-Python
predecessors (``tests/reference_build.py``) decide — same address, same
split block, same entry, same partition in the same order — on ordinary
pages and on the degenerate ones where every candidate ties.  BUDDY's
descent, which grows directory regions, must leave the same tree at the
same cost as the one that rebuilt every region from its entries.
"""

import functools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.geometry import blocks
from repro.geometry.blocks import MAX_DEPTH
from repro.geometry.rect import Rect
from repro.geometry.zorder import z_interval, z_value
from repro.obs import structure as obs_structure
from repro.pam import bang as bang_mod
from repro.pam import buddytree as buddy_mod
from repro.pam.bang import BangFile
from repro.pam.buddytree import BuddyTree
from repro.query import traverse
from repro.sam import rtree as rtree_mod
from repro.sam.rtree import RTree
from repro.sam.transformation import TransformationSAM
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore
from repro.storage.soa import fused_cover_boxes

from tests import reference_build as ref
from tests.test_pagestore import RecordingObserver

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Coordinates on and next to halving boundaries, where the half-open
#: addressing and the closed rectangles disagree, plus arbitrary floats.
coordinate = st.one_of(
    st.sampled_from(
        [0.0, 0.5, 1.0, 0.25, 0.75]
        + [1.0 - 2.0**-k for k in (1, 2, 8, 23, 24, 25, 47, 48, 53)]
        + [2.0**-k for k in (8, 24, 25, 48, 60)]
    ),
    st.floats(0.0, 1.0, allow_nan=False),
)
dims_st = st.integers(1, 4)


def points_of(dims: int):
    return st.tuples(*[coordinate] * dims)


@st.composite
def dims_and_point(draw):
    dims = draw(dims_st)
    return dims, draw(points_of(dims))


@st.composite
def dims_and_rect(draw):
    dims = draw(dims_st)
    a, b = draw(points_of(dims)), draw(points_of(dims))
    return dims, Rect(tuple(map(min, a, b)), tuple(map(max, a, b)))


# -- the kernel ------------------------------------------------------------


class TestMortonKernel:
    @SETTINGS
    @given(dims_and_point(), st.integers(0, MAX_DEPTH))
    def test_bits_of_point_matches_per_bit_loop(self, dp, depth):
        dims, point = dp
        expected = ref.bits_of_point(point, dims, depth)
        assert blocks.bits_of_point(point, dims, depth) == expected
        code = blocks.point_code(point, dims, depth)
        assert code == blocks.code_of_bits(expected)
        assert blocks.bits_of_code(code, depth) == expected

    @SETTINGS
    @given(dims_and_point(), st.integers(0, MAX_DEPTH))
    def test_shallower_code_is_a_shift(self, dp, depth):
        dims, point = dp
        deep = blocks.point_code(point, dims)
        assert blocks.point_code(point, dims, depth) == deep >> (MAX_DEPTH - depth)

    @SETTINGS
    @given(dims_and_rect(), st.integers(0, MAX_DEPTH))
    def test_min_enclosing_block_matches_reference(self, dr, max_depth):
        dims, rect = dr
        expected = ref.min_enclosing_block(rect, dims, max_depth)
        assert blocks.min_enclosing_block(rect, dims, max_depth) == expected
        code, depth = blocks.enclosing_code(rect, dims, max_depth)
        assert (code, depth) == (blocks.code_of_bits(expected), len(expected))

    @SETTINGS
    @given(dims_and_point(), st.integers(1, 12))
    def test_z_value_is_the_same_code(self, dp, bits_per_axis):
        dims, point = dp
        bits = ref.bits_of_point(point, dims, dims * bits_per_axis)
        z = z_value(point, dims, bits_per_axis)
        assert z == blocks.code_of_bits(bits)
        assert z_interval(bits, dims, bits_per_axis) == (z, z + 1)

    @pytest.mark.parametrize("dims", [1, 2, 3, 4])
    def test_errors_match_reference(self, dims):
        inside = (0.5,) * dims
        outside = (0.5,) * (dims - 1) + (-0.25,)
        for fn in (ref.bits_of_point, blocks.bits_of_point, blocks.point_code):
            with pytest.raises(ValueError):
                fn(inside, dims, MAX_DEPTH + 1)
            for depth in (0, 1, MAX_DEPTH):
                with pytest.raises(ValueError):
                    fn(outside, dims, depth)
        for fn in (ref.min_enclosing_block, blocks.min_enclosing_block):
            with pytest.raises(ValueError):
                fn(Rect.from_point(outside), dims)

    def test_wrong_arity_is_rejected(self):
        with pytest.raises(ValueError):
            blocks.point_code((0.5,), 2)
        with pytest.raises(ValueError):
            blocks.point_code((0.5, 0.5, 0.5), 2)

    def test_one_spread_table(self):
        """z-order and block addressing share the kernel, not a copy."""
        import repro.geometry.zorder as zorder

        assert not hasattr(zorder, "_SPREAD_TABLES")
        assert zorder.morton_code is blocks.morton_code


# -- BANG ----------------------------------------------------------------------

unit = st.floats(0.0, 1.0, exclude_max=True, allow_nan=False)

#: Small pages, so a few hundred records already build a three-level
#: directory and every chooser sees many overfull pages.
PAGE = 128


@st.composite
def point_files(draw, max_size=400):
    """A point file drawn from a seed: big enough to split directories,
    and in the shapes where counts tie — duplicates, and dyadic grids whose
    points sit exactly on halving boundaries."""
    kind = draw(st.sampled_from(["uniform", "clustered", "dyadic", "duplicates"]))
    n = draw(st.integers(1, max_size))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        return [(rng.random(), rng.random()) for _ in range(n)]
    if kind == "clustered":
        cx, cy = rng.random(), rng.random()
        return [
            (min(max(rng.gauss(cx, 0.01), 0.0), 0.999999),
             min(max(rng.gauss(cy, 0.01), 0.0), 0.999999))
            for _ in range(n)
        ]
    if kind == "dyadic":
        return [(rng.randrange(32) / 32, rng.randrange(32) / 32) for _ in range(n)]
    few = [(rng.random(), rng.random()) for _ in range(3)]
    return [rng.choice(few) for _ in range(n)]


bang_points = st.one_of(
    point_files(),
    st.lists(st.tuples(unit, unit), min_size=1, max_size=40),
)


def built_bang(points, **kwargs) -> BangFile:
    bang = BangFile(PageStore(PAGE), **kwargs)
    for i, p in enumerate(points):
        bang.insert(p, i)
    return bang


def bang_pages(bang):
    """``(directory (pid, node) pairs, data pages)`` reachable from the root."""
    nodes, pages = [], []
    stack = [bang._root_pid]
    while stack:
        pid = stack.pop()
        node = bang.store.peek(pid)
        nodes.append((pid, node))
        for entry in node.entries:
            if node.is_leaf:
                pages.append(bang.store.peek(entry.pid))
            else:
                stack.append(entry.pid)
    return nodes, pages


class TestBangChoosers:
    @SETTINGS
    @given(bang_points, st.booleans())
    def test_split_choosers_match_reference(self, points, variable):
        bang = built_bang(points, variable_length_entries=variable)
        nodes, pages = bang_pages(bang)
        for page in pages:
            assert bang._choose_split_block(page) == ref.bang_choose_split_block(bang, page)
        for pid, node in nodes:
            assert bang._choose_directory_split_block(
                pid, node
            ) == ref.bang_choose_directory_split_block(bang, pid, node)

    @SETTINGS
    @given(bang_points, st.lists(st.tuples(coordinate, coordinate), max_size=8))
    def test_overfull_page_matches_reference(self, points, extra):
        """A page holding the whole file at once, under every block that
        contains its first record, against whatever mirror the build left."""
        bang = built_bang(points)
        records = [(p, i) for i, p in enumerate(points + extra)]
        address = ref.bits_of_point(points[0], 2, MAX_DEPTH)
        for depth in (0, 1, 2, 5, 17, MAX_DEPTH - 1, MAX_DEPTH):
            page = bang_mod._DataPage(address[:depth])
            page.records = records
            assert bang._choose_split_block(page) == ref.bang_choose_split_block(bang, page)

    @SETTINGS
    @given(
        bang_points,
        st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=8),
        st.booleans(),
    )
    def test_search_matches_reference(self, points, probes, minimal):
        """Same page, and the same pages read to find it."""
        bang = built_bang(points, minimal_regions=minimal)
        store = bang.store

        def charged(search) -> tuple[int, int]:
            store.begin_operation()
            store.begin_operation()  # twice: nothing left on the buffered path
            before = store.stats.total
            pid = search(bang, point, prune=prune)
            return pid, store.stats.total - before

        for point in points[:10] + probes:
            for prune in (False, True):
                assert charged(BangFile._search_data_page) == charged(
                    ref.bang_search_data_page
                )

    def test_entry_code_view_follows_the_entry_list(self):
        bang = built_bang([(i / 97.0, (i * 31 % 97) / 97.0) for i in range(97)])
        leaf = next(n for _, n in bang_pages(bang)[0] if n.is_leaf)

        def indexed():
            """The ``"code_index"`` view flattened to ``(index, code, shift)``."""
            index = leaf.entries.view("code_index", bang_mod._entry_code_index)
            assert [s for s, _ in index] == sorted({s for s, _ in index})
            return sorted(
                (i, prefix, shift)
                for shift, owners in index
                for prefix, indices in owners.items()
                for i in indices
            )

        codes = leaf.entries.view("codes", bang_mod._entry_codes)
        assert codes == [
            (blocks.code_of_bits(e.bits), MAX_DEPTH - len(e.bits)) for e in leaf.entries
        ]
        assert indexed() == [(i, prefix, shift) for i, (prefix, shift) in enumerate(codes)]
        leaf.entries.append(bang_mod._Entry((1, 1, 1), -1))
        assert len(leaf.entries.view("codes", bang_mod._entry_codes)) == len(leaf.entries)
        assert indexed()[-1] == (len(leaf.entries) - 1, 0b111, MAX_DEPTH - 3)


#: The BANG variants whose insert descent is the indexed one.
BANG_VARIANTS = {
    "BANG": {},
    "BANG*": {"variable_length_entries": True},
    "BANG-MBR": {"minimal_regions": True},
}


@st.composite
def bang_insert_streams(draw):
    """``(variant, dims, page size, points)``: dyadic grids (points on the
    halving boundaries, blocks of every length side by side), duplicate-
    heavy files, clusters and uniform files, in 2-D and 4-D."""
    variant = draw(st.sampled_from(sorted(BANG_VARIANTS)))
    dims = draw(st.sampled_from([2, 4]))
    page = draw(st.sampled_from([128, 512])) if dims == 2 else 512
    kind = draw(st.sampled_from(["dyadic", "duplicates", "clustered", "uniform"]))
    n = draw(st.integers(1, 500))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    center = [rng.random() for _ in range(dims)]
    few = [tuple(rng.randrange(8) / 8 for _ in range(dims)) for _ in range(4)]

    def point():
        if kind == "dyadic":
            return tuple(rng.randrange(16) / 16 for _ in range(dims))
        if kind == "duplicates":
            return rng.choice(few)
        if kind == "clustered":
            return tuple(min(max(rng.gauss(c, 0.01), 0.0), 1.0) for c in center)
        return tuple(rng.random() for _ in range(dims))

    return variant, dims, page, [point() for _ in range(n)]


def bang_dump(bang):
    """Every directory page as ``(bits, leaf, [(bits, pid, mbr)])`` and every
    data page's block and records, in one root-first walk."""
    out = []
    stack = [bang._root_pid]
    while stack:
        pid = stack.pop()
        node = bang.store.peek(pid)
        out.append((pid, node.bits, node.is_leaf, [(e.bits, e.pid, e.mbr) for e in node.entries]))
        for entry in node.entries:
            if node.is_leaf:
                page = bang.store.peek(entry.pid)
                out.append((entry.pid, page.bits, list(page.records)))
            else:
                stack.append(entry.pid)
    return out


class TestBangIndexedDescent:
    """The insert descent probes each page's ``"code_index"`` view; the
    reference compares the point with every entry in page order.  Both
    must build the same file at the same cost."""

    @SETTINGS
    @given(bang_insert_streams())
    def test_indexed_descent_builds_what_the_scan_built(self, stream):
        variant, dims, page, points = stream
        shipped = BangFile(PageStore(page), dims=dims, **BANG_VARIANTS[variant])
        reference = BangFile(PageStore(page), dims=dims, **BANG_VARIANTS[variant])
        reference._search_data_page = functools.partial(
            ref.bang_search_data_page_scan, reference
        )
        shipped.store.observer = RecordingObserver()
        reference.store.observer = RecordingObserver()
        for rid, p in enumerate(points):
            shipped.insert(p, rid)
            reference.insert(p, rid)
        for p in points[:20]:
            assert shipped.exact_match(p) == reference.exact_match(p)
        # Same pages touched in the same order: the path buffer keeps the
        # last pages by first touch, so order is part of the cost.
        assert shipped.store.observer.events == reference.store.observer.events
        assert shipped.store.observer.operations == reference.store.observer.operations
        assert bang_dump(shipped) == bang_dump(reference)
        assert shipped._data_blocks == reference._data_blocks
        assert shipped.store.stats.as_dict() == reference.store.stats.as_dict()
        assert shipped.check_invariants() == []


# -- BUDDY ---------------------------------------------------------------------

buddy_points = st.one_of(
    point_files(),
    st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=40),
)


def built_buddy(points) -> BuddyTree:
    tree = BuddyTree(PageStore(PAGE))
    for i, p in enumerate(points):
        tree.insert(p, i)
    return tree


def buddy_pages(tree):
    nodes, pages = [], []
    stack = [(tree._root_pid, tree._root_is_data)]
    while stack:
        pid, is_data = stack.pop()
        page = tree.store.peek(pid)
        if is_data:
            pages.append(page)
        else:
            nodes.append(page)
            stack.extend((e.pid, e.is_data) for e in page.entries)
    return nodes, pages


class TestBuddyChoosers:
    @SETTINGS
    @given(buddy_points, st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=12))
    def test_choose_entry_matches_reference(self, points, probes):
        tree = built_buddy(points)
        for node in buddy_pages(tree)[0]:
            for point in probes:
                assert tree._choose_entry(node, point) is ref.buddy_choose_entry(
                    tree, node, point
                )

    @SETTINGS
    @given(buddy_points)
    def test_splits_match_reference(self, points):
        tree = built_buddy(points)
        nodes, pages = buddy_pages(tree)
        for page in pages:
            records = list(page.records)
            assert tree._split_records(records) == ref.buddy_split_records(tree, records)
        for node in nodes:
            got = tree._split_entries(list(node.entries))
            want = ref.buddy_split_entries(tree, list(node.entries))
            assert [list(map(id, side)) for side in got] == [
                list(map(id, side)) for side in want
            ]

    @SETTINGS
    @given(st.lists(st.tuples(coordinate, coordinate), min_size=2, max_size=40))
    def test_split_records_on_arbitrary_pages(self, points):
        """Duplicate-degenerate pages (block at MAX_DEPTH) and pages whose
        records sit on the halving line."""
        tree = BuddyTree(PageStore())
        records = [(p, i) for i, p in enumerate(points)]
        assert tree._split_records(records) == ref.buddy_split_records(tree, records)

    @SETTINGS
    @given(
        st.lists(
            st.tuples(coordinate, coordinate, coordinate, coordinate),
            min_size=2,
            max_size=30,
        )
    )
    def test_split_entries_on_arbitrary_entries(self, corners):
        """Equal, nested and point-sized regions: blocks that tie, blocks
        equal to the common block, blocks at MAX_DEPTH."""
        tree = BuddyTree(PageStore())
        entries = [
            buddy_mod._Entry(Rect((min(a, b), min(c, d)), (max(a, b), max(c, d))), i, True)
            for i, (a, b, c, d) in enumerate(corners)
        ]
        got = tree._split_entries(list(entries))
        want = ref.buddy_split_entries(tree, list(entries))
        assert [[e.pid for e in side] for side in got] == [
            [e.pid for e in side] for side in want
        ]


@st.composite
def buddy_op_streams(draw):
    """``(dims, page size, balanced, ops)``: inserts of a drawn point file,
    at most one ``pack()``, and deletes of live records in between — for
    the balanced variant (MLGF) too, whose deletes keep one-entry pages
    below the root and lower the level count when the root collapses."""
    dims = draw(st.sampled_from([2, 4]))
    page = draw(st.sampled_from([128, 512])) if dims == 2 else 512
    balanced = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "clustered", "dyadic", "duplicates"]))
    n = draw(st.integers(1, 500))
    center = [rng.random() for _ in range(dims)]
    few = [tuple(rng.random() for _ in range(dims)) for _ in range(3)]

    def point():
        if kind == "uniform":
            return tuple(rng.random() for _ in range(dims))
        if kind == "clustered":
            return tuple(min(max(rng.gauss(c, 0.02), 0.0), 0.999999) for c in center)
        if kind == "dyadic":
            return tuple(rng.randrange(16) / 16 for _ in range(dims))
        return rng.choice(few)

    delete_rate = draw(st.sampled_from([0.0, 0.1, 0.4]))
    pack_at = draw(st.one_of(st.none(), st.integers(0, n)))
    ops, live = [], []
    for i in range(n):
        if i == pack_at:
            ops.append(("pack",))
        p = point()
        ops.append(("insert", p, i))
        live.append((p, i))
        if rng.random() < delete_rate:
            ops.append(("delete",) + live.pop(rng.randrange(len(live))))
    return dims, page, balanced, ops


def buddy_dump(tree):
    """Every directory entry as ``(rect, pid, is_data)`` and every data
    page's records, in one root-first walk."""
    out = []
    stack = [(tree._root_pid, tree._root_is_data)]
    while stack:
        pid, is_data = stack.pop()
        page = tree.store.peek(pid)
        if is_data:
            out.append((pid, list(page.records)))
            continue
        out.append((pid, [(e.rect, e.pid, e.is_data) for e in page.entries]))
        stack.extend((e.pid, e.is_data) for e in page.entries)
    return out


def assert_descents_agree(dims, page, balanced, ops):
    """Replay ``ops`` on a tree with the shipped descent and one with the
    reference descent; both must end equal, pay equal, and audit clean."""
    shipped = BuddyTree(PageStore(page), dims=dims, balanced=balanced)
    reference = BuddyTree(PageStore(page), dims=dims, balanced=balanced)
    reference._insert_descend = functools.partial(ref.buddy_insert_descend, reference)
    for op in ops:
        for tree in (shipped, reference):
            if op[0] == "insert":
                tree.insert(op[1], op[2])
            elif op[0] == "delete":
                assert tree.delete(op[1], op[2])
            else:
                tree.pack()
    assert buddy_dump(shipped) == buddy_dump(reference)
    assert shipped.store.stats.as_dict() == reference.store.stats.as_dict()
    assert shipped.check_invariants() == []


class TestBuddyGrownRegions:
    """The shipped descent grows each directory entry to the inserted
    point; the reference rebuilt the MBR from the entries at every level."""

    @SETTINGS
    @given(buddy_op_streams())
    def test_grown_mbrs_match_rebuilt_ones(self, stream):
        assert_descents_agree(*stream)

    def test_packed_file_after_deletes(self):
        """A delete leaves a sharer's region larger than its own records;
        unsharing that page on a later insert shrinks it, and with it the
        MBR of every directory page above — which the descent of a
        packed file therefore rebuilds."""
        rng = random.Random(116)
        ops, live = [], []
        for i in range(80):
            if i == 40:
                ops.append(("pack",))
            if i > 40 and rng.random() < 0.5:
                ops.append(("delete",) + live.pop(rng.randrange(len(live))))
            p = (rng.random(), rng.random())
            ops.append(("insert", p, i))
            live.append((p, i))
        assert_descents_agree(2, 128, False, ops)


# -- R-tree ----------------------------------------------------------------------


@st.composite
def rect_2d(draw):
    a, b, c, d = (draw(coordinate) for _ in range(4))
    return Rect((min(a, b), min(c, d)), (max(a, b), max(c, d)))


tenths = st.sampled_from([k / 10 for k in range(11)])

rect_pages = st.one_of(
    st.lists(rect_2d(), min_size=2, max_size=30),
    # decimal corners: wastes and enlargements that tie on paper and differ
    # in the last float digit with the order of the subtractions
    st.lists(
        st.builds(
            lambda a, b, c, d: Rect((min(a, b), min(c, d)), (max(a, b), max(c, d))),
            tenths, tenths, tenths, tenths,
        ),
        min_size=2,
        max_size=12,
    ),
    # all-equal rectangles: every waste and every enlargement ties
    st.builds(lambda r, n: [r] * n, rect_2d(), st.integers(2, 30)),
    # zero-area rectangles: points and segments
    st.lists(
        st.builds(lambda x, y, z: Rect((x, min(y, z)), (x, max(y, z))), coordinate, coordinate, coordinate),
        min_size=2,
        max_size=30,
    ),
    # a grid of congruent squares: many exact ties between distinct pairs
    st.builds(
        lambda n: [
            Rect((i / 8, j / 8), ((i + 1) / 8, (j + 1) / 8))
            for i in range(n)
            for j in range(n)
        ],
        st.integers(2, 5),
    ),
)


@st.composite
def rect_of(draw, dims, corner=coordinate):
    a, b = draw(st.tuples(*[corner] * dims)), draw(st.tuples(*[corner] * dims))
    return Rect(tuple(map(min, a, b)), tuple(map(max, a, b)))


def node_of(rects):
    node = rtree_mod._Node(is_leaf=True)
    node.rects = rects
    node.children = list(range(len(rects)))
    return node


class TestRTreeChoosers:
    @SETTINGS
    @given(rect_pages, rect_2d())
    def test_choose_subtree_matches_reference(self, rects, rect):
        tree = RTree(PageStore())
        node = node_of(rects)
        assert tree._choose_subtree(node, rect) == ref.rtree_choose_subtree(node, rect)

    @SETTINGS
    @given(rect_pages)
    def test_pick_seeds_matches_reference(self, rects):
        tree = RTree(PageStore())
        node = node_of(rects)
        entries = list(zip(node.rects, node.children))
        assert tree._pick_seeds(fused_cover_boxes(node.rects)) == ref.rtree_pick_seeds(entries)

    @SETTINGS
    @given(rect_pages, st.sampled_from([0.1, 0.3, 0.5]))
    def test_split_guttman_matches_reference(self, rects, min_fill):
        tree = RTree(PageStore(), min_fill=min_fill)
        tree._min_entries = max(1, int(len(rects) * min_fill))
        node = node_of(rects)
        entries = list(zip(node.rects, node.children))
        got = tree._split_guttman(entries, fused_cover_boxes(node.rects))
        assert got == ref.rtree_split_guttman(tree, entries)

    def test_decimal_corner_pages(self):
        """Float order, pinned: with corners on tenths, pairs whose waste
        ties on paper differ in the last digit, and ``U - a - b`` picks
        another first maximum than ``U - (a + b)`` on about 3 % of pages."""
        rng = random.Random(13)
        tree = RTree(PageStore())
        tenth = [k / 10 for k in range(11)]
        for _ in range(400):
            rects = []
            for _ in range(rng.randint(3, 9)):
                (a, b), (c, d) = sorted(rng.sample(tenth, 2)), sorted(rng.sample(tenth, 2))
                rects.append(Rect((a, c), (b, d)))
            node = node_of(rects)
            entries = list(zip(node.rects, node.children))
            cover = fused_cover_boxes(node.rects)
            assert tree._pick_seeds(cover) == ref.rtree_pick_seeds(entries)
            tree._min_entries = max(1, len(rects) // 3)
            assert tree._split_guttman(entries, cover) == ref.rtree_split_guttman(tree, entries)
            probe = rects[rng.randrange(len(rects))]
            assert tree._choose_subtree(node, probe) == ref.rtree_choose_subtree(node, probe)

    @pytest.mark.parametrize("block", [1, 7, 40, 1 << 14])
    def test_pick_seeds_blocks_keep_the_first_maximum(self, monkeypatch, block):
        """Large pages are scanned a block of rows at a time; the first
        maximal pair must win across block borders too."""
        monkeypatch.setattr(rtree_mod, "_PAIR_BLOCK", block)
        rng = random.Random(block)
        tree = RTree(PageStore())
        grid = [Rect((i / 8, j / 8), ((i + 1) / 8, (j + 1) / 8)) for i in range(4) for j in range(4)]
        pages = [grid, grid[::-1], [grid[0]] * 9]
        for _ in range(40):
            rects = []
            for _ in range(rng.randint(2, 20)):
                (a, b), (c, d) = sorted(rng.sample(range(11), 2)), sorted(rng.sample(range(11), 2))
                rects.append(Rect((a / 10, c / 10), (b / 10, d / 10)))
            pages.append(rects)
        for rects in pages:
            entries = [(r, i) for i, r in enumerate(rects)]
            assert tree._pick_seeds(fused_cover_boxes(rects)) == ref.rtree_pick_seeds(entries)

    @SETTINGS
    @given(st.data(), st.sampled_from([1, 3, 4]), st.sampled_from([0.1, 0.3, 0.5]))
    def test_choosers_match_reference_in_d_dims(self, data, dims, min_fill):
        """The chooser loops over the axes of any dimensionality, and the
        seed pick and PickNext evaluate per-axis columns."""
        corner = data.draw(st.sampled_from([coordinate, tenths]))
        box = rect_of(dims, corner)
        rects = data.draw(
            st.one_of(
                st.lists(box, min_size=2, max_size=30),
                st.builds(lambda r, n: [r] * n, box, st.integers(2, 30)),
            )
        )
        tree = RTree(PageStore(), dims=dims, min_fill=min_fill)
        tree._min_entries = max(1, int(len(rects) * min_fill))
        node = node_of(rects)
        entries = list(zip(node.rects, node.children))
        cover = fused_cover_boxes(node.rects)
        for probe in (data.draw(box), rects[0]):
            assert tree._choose_subtree(node, probe) == ref.rtree_choose_subtree(node, probe)
        assert tree._pick_seeds(cover) == ref.rtree_pick_seeds(entries)
        assert tree._split_guttman(entries, cover) == ref.rtree_split_guttman(tree, entries)

    def test_only_the_split_builds_the_page_view(self):
        """ChooseSubtree reads the rows; a split builds the one fused
        ``boxes`` view the queries read too."""
        tree = RTree(PageStore())
        node = node_of([Rect((0.1, 0.1), (0.2, 0.2)), Rect((0.5, 0.5), (0.9, 0.9))])
        node.is_leaf = False
        tree._choose_subtree(node, Rect((0.15, 0.15), (0.16, 0.16)))
        assert node.rects.view_builds == 0
        rng = random.Random(3)
        full = node_of([Rect.from_point((rng.random(), rng.random())) for _ in range(tree._capacity + 1)])
        pid = tree.store.allocate(PageKind.DATA, full)
        rects = full.rects
        tree._split(pid, full)
        assert rects.view_builds == 1
        rects.view(*traverse.BOXES)  # the queries' view: no second one
        assert rects.view_builds == 1


# -- snapshot overlap ----------------------------------------------------------

#: Corners on a coarse grid (faces and corners shared, boxes nested, equal
#: or flat) mixed with arbitrary floats.
grid_or_float = st.one_of(
    st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0)
)


@st.composite
def region_lists(draw):
    dims = draw(st.integers(1, 4))
    return draw(st.lists(rect_of(dims, grid_or_float), max_size=60))


def same_float(a: float, b: float) -> bool:
    return a.hex() == b.hex()


class TestSnapshotOverlap:
    """The vectorised sibling overlap must add the same volumes in the same
    order as the pair loop: the snapshot's ``overlap_volume`` is rounded
    from it, so one different last bit can move a committed snapshot."""

    @SETTINGS
    @given(region_lists())
    def test_matches_the_pair_loop_bit_for_bit(self, regions):
        got = obs_structure._pairwise_overlap(regions)
        assert same_float(got, ref.pairwise_overlap(regions))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 13, 40, 120])
    @pytest.mark.parametrize("dims", [2, 4])
    def test_every_size_and_shape(self, n, dims):
        rng = random.Random(n * 10 + dims)
        shapes = [
            # touching on a face or a corner, and zero-area slivers
            lambda i: Rect(
                tuple(float(i % 4) / 4 for _ in range(dims)),
                tuple(float(i % 4 + 1) / 4 for _ in range(dims)),
            ),
            lambda i: Rect((i / max(n, 1),) * dims, (i / max(n, 1),) * dims),
            # nested boxes around one center
            lambda i: Rect((0.5 - i / (2 * n + 2),) * dims, (0.5 + i / (2 * n + 2),) * dims),
            # arbitrary boxes with decimal corners
            lambda i: Rect(
                *zip(*(sorted((round(rng.random(), 1), round(rng.random(), 1))) for _ in range(dims)))
            ),
        ]
        for shape in shapes:
            regions = [shape(i) for i in range(n)]
            got = obs_structure._pairwise_overlap(regions)
            assert same_float(got, ref.pairwise_overlap(regions))


# -- corner transformation ---------------------------------------------------

#: Corners where the transformed box's faces and the stored points meet.
corner = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
corner_rects = st.one_of(rect_of(2, corner), rect_of(2, grid_or_float))


class TestCornerQueriesAreExact:
    """In the corner representation each of the four query boxes is the
    query predicate read out per coordinate, so the post-filter the
    queries no longer run would keep every candidate."""

    @SETTINGS
    @given(
        st.sampled_from(["BANG", "BUDDY"]),
        st.lists(corner_rects, min_size=1, max_size=150),
        st.lists(corner_rects, min_size=1, max_size=12),
    )
    def test_every_candidate_satisfies_the_predicate(self, pam, rects, queries):
        factory = (
            (lambda s, dims: BangFile(s, dims=dims, variable_length_entries=True))
            if pam == "BANG"
            else (lambda s, dims: BuddyTree(s, dims=dims))
        )
        sam = TransformationSAM(PageStore(256), factory)
        for rid, rect in enumerate(rects):
            sam.insert(rect, rid)
        for query in queries:
            for kind, op, target, public in (
                ("point", "encl", Rect.from_point(query.lo), sam.point_query),
                ("intersection", "isect", query, sam.intersection),
                ("containment", "within", query, sam.containment),
                ("enclosure", "encl", query, sam.enclosure),
            ):
                probe = query.lo if kind == "point" else query
                candidates = sam.pam._range_query(sam._query_box(kind, probe))
                predicate = traverse.SCALAR_PRED[op]
                assert all(predicate(sam._to_rect(p), target) for p, _ in candidates)
                want = [rid for rid, rect in enumerate(rects) if predicate(rect, target)]
                assert sorted(public(probe)) == want
