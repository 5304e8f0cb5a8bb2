"""Tests for the R-tree, its three split policies, and deletion."""

import json
from pathlib import Path

import pytest

from repro.geometry.rect import Rect
from repro.sam.rtree import RTree
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore
from repro.verify.fuzz import STRUCTURES, run_ops
from tests.conftest import (
    STANDARD_POINTS,
    STANDARD_QUERIES,
    check_sam_against_oracle,
    make_rects,
)

REPRODUCERS = Path(__file__).parent / "reproducers"


def build(rects, **kwargs):
    tree = RTree(PageStore(), 2, **kwargs)
    for i, r in enumerate(rects):
        tree.insert(r, i)
    return tree


def walk(tree):
    """Yield (pid, node, depth) for every node."""
    stack = [(tree._root_pid, 0)]
    while stack:
        pid, depth = stack.pop()
        node = tree.store._objects[pid]
        yield pid, node, depth
        if not node.is_leaf:
            stack.extend((child, depth + 1) for child in node.children)


class TestCorrectness:
    @pytest.mark.parametrize("policy", ["guttman", "greene", "margin"])
    def test_all_query_types(self, policy):
        rects = make_rects(700, seed=1)
        tree = build(rects, split_policy=policy)
        check_sam_against_oracle(tree, rects, STANDARD_QUERIES, STANDARD_POINTS)

    def test_large_rectangles(self):
        rects = make_rects(400, seed=2, max_extent=0.4)
        tree = build(rects)
        check_sam_against_oracle(tree, rects, STANDARD_QUERIES, STANDARD_POINTS)

    def test_degenerate_rectangles(self):
        rects = [Rect.from_point((i / 300.0, (i * 7 % 300) / 300.0)) for i in range(300)]
        tree = build(rects)
        check_sam_against_oracle(tree, rects, STANDARD_QUERIES, STANDARD_POINTS)


class TestInvariants:
    def test_inner_rects_bound_children(self):
        tree = build(make_rects(900, seed=3))
        for _, node, _ in walk(tree):
            if node.is_leaf:
                continue
            for rect, child in zip(node.rects, node.children):
                child_node = tree.store._objects[child]
                assert rect == Rect.bounding(child_node.rects)

    def test_balanced_leaf_depth(self):
        tree = build(make_rects(900, seed=4))
        depths = {d for _, node, d in walk(tree) if node.is_leaf}
        assert len(depths) == 1
        assert depths == {tree.directory_height}

    def test_capacity_and_min_fill(self):
        tree = build(make_rects(1200, seed=5))
        for pid, node, _ in walk(tree):
            assert len(node.rects) <= tree.record_capacity
            if pid != tree._root_pid:
                assert len(node.rects) >= tree._min_entries

    def test_min_fill_default_is_30_percent(self):
        """§7: best retrieval at 30 % minimum storage utilisation."""
        tree = RTree(PageStore(), 2)
        assert tree._min_entries == int(0.3 * tree.record_capacity)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RTree(PageStore(), 2, split_policy="bogus")
        with pytest.raises(ValueError):
            RTree(PageStore(), 2, min_fill=0.9)


class TestPaperBehaviour:
    def test_containment_costs_equal_intersection(self):
        """The paper's R-tree rows: containment == intersection accesses."""
        rects = make_rects(1500, seed=6)
        tree = build(rects)
        query = Rect((0.2, 0.2), (0.6, 0.6))
        tree.store.begin_operation()
        tree.store.begin_operation()
        before = tree.store.stats.total
        tree.intersection(query)
        intersection_cost = tree.store.stats.total - before
        tree.store.begin_operation()
        tree.store.begin_operation()
        before = tree.store.stats.total
        tree.containment(query)
        containment_cost = tree.store.stats.total - before
        assert containment_cost == intersection_cost

    def test_enclosure_prunes_hard(self):
        rects = make_rects(1500, seed=7)
        tree = build(rects)
        query = Rect((0.4, 0.4), (0.42, 0.42))
        tree.store.begin_operation()
        tree.store.begin_operation()
        before = tree.store.stats.total
        tree.enclosure(query)
        enclosure_cost = tree.store.stats.total - before
        tree.store.begin_operation()
        tree.store.begin_operation()
        before = tree.store.stats.total
        tree.intersection(query)
        intersection_cost = tree.store.stats.total - before
        assert enclosure_cost <= intersection_cost


class TestDeletion:
    def test_delete_roundtrip(self):
        rects = make_rects(500, seed=8)
        tree = build(rects)
        for i, r in enumerate(rects[:400]):
            assert tree.delete(r, i)
        assert len(tree) == 100
        got = sorted(tree.intersection(Rect.unit(2)))
        assert got == list(range(400, 500))

    def test_delete_missing(self):
        tree = build(make_rects(50, seed=9))
        assert not tree.delete(Rect((0.0, 0.0), (0.001, 0.001)), 999)

    def test_delete_maintains_bounding_invariant(self):
        rects = make_rects(600, seed=10)
        tree = build(rects)
        for i, r in enumerate(rects[:300]):
            tree.delete(r, i)
        for _, node, _ in walk(tree):
            if not node.is_leaf:
                for rect, child in zip(node.rects, node.children):
                    child_node = tree.store._objects[child]
                    assert rect.contains_rect(Rect.bounding(child_node.rects))

    def test_delete_to_empty_and_reuse(self):
        rects = make_rects(120, seed=11)
        tree = build(rects)
        for i, r in enumerate(rects):
            assert tree.delete(r, i)
        assert tree.intersection(Rect.unit(2)) == []
        for i, r in enumerate(rects):
            tree.insert(r, i)
        check_sam_against_oracle(tree, rects, STANDARD_QUERIES, STANDARD_POINTS)

    def test_an_emptied_only_child_is_condensed(self):
        """``R-128-empty-leaf.json`` (10 inserts and a delete at 128-byte
        pages, minimum fill 1): the delete emptied a leaf that was its
        parent's only child, and condensing kept it — an empty non-root
        leaf under a stale parent rectangle."""
        blob = json.loads((REPRODUCERS / "R-128-empty-leaf.json").read_text())
        failure = run_ops(
            STRUCTURES[blob["structure"]],
            blob["ops"],
            audit_every=1,
            store_factory=lambda: PageStore(blob["page_size"]),
        )
        assert failure is None, failure


class TestSplitPolicies:
    def test_policies_produce_different_trees(self):
        rects = make_rects(800, seed=12)
        overlap = {}
        for policy in ("guttman", "greene", "margin"):
            tree = build(rects, split_policy=policy)
            total = 0.0
            for _, node, _ in walk(tree):
                if node.is_leaf:
                    continue
                for i, a in enumerate(node.rects):
                    for b in node.rects[i + 1 :]:
                        inter = a.intersection(b)
                        total += inter.area() if inter else 0.0
            overlap[policy] = total
        assert len({round(v, 12) for v in overlap.values()}) > 1
