"""Tests for the BUDDY hash tree, including its paper-stated invariants."""

import pickle

from repro.geometry import blocks
from repro.geometry.rect import Rect
from repro.pam.buddytree import BuddyTree, _DirNode, _Entry
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore
from tests.conftest import (
    STANDARD_QUERIES,
    check_pam_against_oracle,
    make_clustered_points,
    make_points,
)


def build(points, store=None):
    tree = BuddyTree(store or PageStore(), 2)
    for i, p in enumerate(points):
        tree.insert(p, i)
    return tree


def walk_nodes(tree):
    """Yield every directory node object."""
    if tree._root_is_data:
        return
    stack = [tree._root_pid]
    while stack:
        node = tree.store._objects[stack.pop()]
        yield node
        stack.extend(e.pid for e in node.entries if not e.is_data)


class TestCorrectness:
    def test_uniform(self):
        points = make_points(900)
        check_pam_against_oracle(build(points), points, STANDARD_QUERIES)

    def test_clusters(self):
        points = make_clustered_points(700, seed=1)
        check_pam_against_oracle(build(points), points, STANDARD_QUERIES)

    def test_diagonal_sorted_insertion(self):
        points = [(i / 800.0, i / 800.0) for i in range(800)]
        check_pam_against_oracle(build(points), points, STANDARD_QUERIES)

    def test_tiny_file_root_is_data_page(self):
        tree = build(make_points(5))
        assert tree._root_is_data
        assert tree.directory_height == 0


class TestPaperInvariants:
    def test_sibling_regions_pairwise_disjoint(self):
        """Condition (i) of the paper: S_i ∩ S_j has no interior."""
        tree = build(make_clustered_points(1200, seed=2))
        for node in walk_nodes(tree):
            for i, a in enumerate(node.entries):
                for b in node.entries[i + 1 :]:
                    inter = a.rect.intersection(b.rect)
                    assert inter is None or inter.area() == 0.0

    def test_minimal_bounding_rectangles(self):
        """Property (2): every region is the exact MBR of its contents."""
        tree = build(make_points(1000, seed=3))

        def verify(pid, is_data, expected_rect):
            obj = tree.store._objects[pid]
            if is_data:
                mbr = Rect.bounding_points([p for p, _ in obj.records])
            else:
                mbr = Rect.bounding([e.rect for e in obj.entries])
                for e in obj.entries:
                    verify(e.pid, e.is_data, e.rect)
            assert mbr == expected_rect

        root = tree.store._objects[tree._root_pid]
        for e in root.entries:
            verify(e.pid, e.is_data, e.rect)

    def test_at_least_two_entries_per_node(self):
        """Property (1) of the paper."""
        tree = build(make_clustered_points(1500, seed=4))
        for node in walk_nodes(tree):
            assert len(node.entries) >= 2

    def test_single_pointer_per_directory_page(self):
        """Property (3): the directory is a tree."""
        tree = build(make_points(1500, seed=5))
        seen = set()
        for node in walk_nodes(tree):
            for e in node.entries:
                if not e.is_data:
                    assert e.pid not in seen
                    seen.add(e.pid)

    def test_empty_space_is_not_partitioned(self):
        """Queries in empty space read no data pages at all."""
        points = make_clustered_points(800, seed=6)
        empty = Rect((0.001, 0.001), (0.002, 0.002))
        points = [p for p in points if not empty.contains_point(p)]
        tree = build(points)
        tree.store.begin_operation()
        tree.store.begin_operation()
        before = tree.store.stats.data_reads
        assert tree.range_query(empty) == []
        assert tree.store.stats.data_reads - before == 0

    def test_fanout_never_exceeded(self):
        tree = build(make_points(2000, seed=7))
        for node in walk_nodes(tree):
            assert len(node.entries) <= tree._fanout

    def test_data_capacity_never_exceeded(self):
        tree = build(make_points(1000, seed=8))
        for pid in tree.store.page_ids():
            if tree.store.kind(pid) is PageKind.DATA:
                assert len(tree.store._objects[pid].records) <= tree.record_capacity


class TestPacking:
    def test_pack_raises_storage_utilization(self):
        points = make_clustered_points(1500, seed=9)
        tree = build(points)
        before = tree.metrics().storage_utilization
        saved = tree.pack()
        after = tree.metrics().storage_utilization
        assert tree.is_packed
        if saved:
            assert after > before
        assert len(tree) == len(points)

    def test_pack_preserves_query_results(self):
        points = make_clustered_points(900, seed=10)
        tree = build(points)
        expected = sorted(tree.range_query(Rect((0.1, 0.1), (0.8, 0.8))))
        tree.pack()
        assert sorted(tree.range_query(Rect((0.1, 0.1), (0.8, 0.8)))) == expected
        check_pam_against_oracle(tree, points, STANDARD_QUERIES)

    def test_insert_after_pack_still_correct(self):
        points = make_clustered_points(600, seed=11)
        tree = build(points)
        tree.pack()
        extra = make_points(300, seed=12)
        fresh = [p for p in extra if p not in set(points)]
        for j, p in enumerate(fresh):
            tree.insert(p, len(points) + j)
        everything = points + fresh
        got = sorted(tree.range_query(Rect.unit(2)))
        assert got == sorted((p, i) for i, p in enumerate(everything))


class TestDeletion:
    def test_delete_roundtrip(self):
        points = make_points(500, seed=13)
        tree = build(points)
        for i, p in enumerate(points[:400]):
            assert tree.delete(p, i)
        assert len(tree) == 100
        got = sorted(tree.range_query(Rect.unit(2)))
        assert got == sorted((p, i + 400) for i, p in enumerate(points[400:]))

    def test_delete_missing(self):
        tree = build(make_points(50, seed=14))
        assert not tree.delete((0.123456, 0.654321), 999)

    def test_delete_keeps_invariants(self):
        points = make_points(600, seed=15)
        tree = build(points)
        for i, p in enumerate(points[:300]):
            tree.delete(p, i)
        for node in walk_nodes(tree):
            assert len(node.entries) >= 2

    def test_delete_everything_then_reinsert(self):
        points = make_points(120, seed=16)
        tree = build(points)
        for i, p in enumerate(points):
            assert tree.delete(p, i)
        assert len(tree) == 0
        for i, p in enumerate(points):
            tree.insert(p, i)
        check_pam_against_oracle(tree, points, STANDARD_QUERIES)


class TestChooseEntryOnBuddyBoundaries:
    """Step (b) of ``_choose_entry`` tests the *closed* buddy rectangle.

    A point exactly on a halving line lies in the closed rectangles of
    the buddies on both sides, while its half-open address (prefix
    containment) puts it in the upper one only.  Which sibling takes the
    point decides the page it is stored on, so a rewrite of (b) in terms
    of ``is_prefix`` / shifted codes changes placement; these pin it.
    """

    LEFT = Rect((0.1, 0.1), (0.4, 0.9))  # buddy block (0,)  = [0, .5] x [0, 1]
    RIGHT = Rect((0.6, 0.1), (0.9, 0.9))  # buddy block (1,) = [.5, 1] x [0, 1]
    DEEP_LEFT = Rect((0.3, 0.3), (0.45, 0.45))  # (0, 0, 1, 1) = [.25, .5]^2

    def node(self, *rects):
        return _DirNode([_Entry(r, pid, True) for pid, r in enumerate(rects)])

    def test_fixture_blocks(self):
        tree = BuddyTree(PageStore(), 2)
        node = self.node(self.LEFT, self.RIGHT, self.DEEP_LEFT)
        assert [e.block(2) for e in node.entries] == [(0,), (1,), (0, 0, 1, 1)]
        # The half-open address of a point on x = 0.5 starts with 1.
        assert blocks.bits_of_point((0.5, 0.4), 2, 1) == (1,)
        assert tree._choose_entry(node, (0.5, 0.4)) is not None

    def test_equal_depth_siblings_first_wins(self):
        tree = BuddyTree(PageStore(), 2)
        node = self.node(self.LEFT, self.RIGHT)
        assert tree._choose_entry(node, (0.5, 0.5)).rect is self.LEFT
        node = self.node(self.RIGHT, self.LEFT)
        assert tree._choose_entry(node, (0.5, 0.5)).rect is self.RIGHT

    def test_deeper_lower_sibling_wins(self):
        tree = BuddyTree(PageStore(), 2)
        for rects in ((self.DEEP_LEFT, self.RIGHT), (self.RIGHT, self.DEEP_LEFT)):
            node = self.node(*rects)
            assert tree._choose_entry(node, (0.5, 0.4)).rect is self.DEEP_LEFT

    def test_point_off_the_boundary_goes_by_address(self):
        tree = BuddyTree(PageStore(), 2)
        node = self.node(self.DEEP_LEFT, self.RIGHT)
        assert tree._choose_entry(node, (0.5000001, 0.4)).rect is self.RIGHT
        assert tree._choose_entry(node, (0.4999999, 0.4)).rect is self.DEEP_LEFT


class TestEntryBlockCache:
    def test_rebinding_rect_invalidates(self):
        entry = _Entry(Rect((0.1, 0.1), (0.4, 0.9)), 7, True)
        assert entry.block(2) == (0,)
        assert entry.block(2) is entry.block(2)
        entry.rect = entry.rect.expanded_to_point((0.6, 0.5))
        assert entry.block(2) == ()
        entry.rect = Rect.from_point((0.3, 0.3))
        assert len(entry.block(2)) == blocks.MAX_DEPTH

    def test_cache_is_shed_from_pickles(self):
        entry = _Entry(Rect((0.1, 0.1), (0.4, 0.9)), 7, True)
        cold = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        entry.block(2)
        assert pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL) == cold
        back = pickle.loads(cold)
        assert (back.rect, back.pid, back.is_data) == (entry.rect, 7, True)
        assert back.block(2) == (0,)
