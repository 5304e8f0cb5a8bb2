"""Tests for the hB-tree (kd-tree nodes, holey bricks, duplicate entries)."""

import json
import random
from pathlib import Path

import pytest

from repro.geometry.rect import Rect
from repro.pam.hbtree import _EXT, _INTERNAL, _LEAF, HBTree
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore
from repro.verify.fuzz import STRUCTURES, run_ops
from tests.conftest import (
    STANDARD_QUERIES,
    check_pam_against_oracle,
    make_clustered_points,
    make_points,
)


def build(points):
    tree = HBTree(PageStore(), 2)
    for i, p in enumerate(points):
        tree.insert(p, i)
    return tree


def kd_slots(tree, pid):
    node = tree.store._objects[pid]
    out, stack = [], [node.kd]
    while stack:
        kd = stack.pop()
        out.append(kd)
        if kd.kind == _INTERNAL:
            stack.extend((kd.left, kd.right))
    return out


def index_pids(tree):
    if tree._root_is_data:
        return []
    seen, stack = set(), [tree._root_pid]
    while stack:
        pid = stack.pop()
        if pid in seen:
            continue
        seen.add(pid)
        for kd in kd_slots(tree, pid):
            if kd.kind == _LEAF and not kd.is_data:
                stack.append(kd.pid)
    return list(seen)


class TestCorrectness:
    def test_uniform(self):
        points = make_points(900)
        check_pam_against_oracle(build(points), points, STANDARD_QUERIES)

    def test_clusters(self):
        points = make_clustered_points(800, seed=1)
        check_pam_against_oracle(build(points), points, STANDARD_QUERIES)

    def test_diagonal(self):
        points = [(i / 700.0, i / 700.0) for i in range(700)]
        check_pam_against_oracle(build(points), points, STANDARD_QUERIES)

    def test_x_parallel_duplicate_coordinates(self):
        # Many identical y values stress the median split's axis choice.
        points = [((i % 97) / 97.0 + i * 1e-9, 0.5) for i in range(500)]
        points = list(dict.fromkeys(points))
        check_pam_against_oracle(build(points), points, STANDARD_QUERIES)

    def test_tiny_file(self):
        points = make_points(7)
        tree = build(points)
        assert tree._root_is_data
        check_pam_against_oracle(tree, points, STANDARD_QUERIES[:3])


class TestStructure:
    def test_exact_match_walk_is_single_path(self):
        points = make_points(2000, seed=2)
        tree = build(points)
        for p in points[::401]:
            tree.store.begin_operation()
            tree.store.begin_operation()
            before = tree.store.stats.total
            tree.exact_match(p)
            assert tree.store.stats.total - before <= tree.directory_height + 1

    def test_index_nodes_fit_their_page(self):
        tree = build(make_points(2500, seed=3))
        for pid in index_pids(tree):
            node = tree.store._objects[pid]
            assert tree._kd_bytes(node.kd) <= tree._index_payload

    def test_duplicate_references_appear(self):
        """The hB-tree 'is actually a graph': some child is referenced twice.

        Sorted (diagonal) insertions degenerate the intra-node kd-trees,
        so split extraction posts multi-comparison chains whose off-chain
        sides duplicate the donor reference.
        """
        points = [(i / 3000.0, i / 3000.0) for i in range(3000)]
        tree = build(points)
        duplicated = False
        for pid in index_pids(tree):
            refs = [kd.pid for kd in kd_slots(tree, pid) if kd.kind == _LEAF]
            if len(refs) != len(set(refs)):
                duplicated = True
        multi_parent = any(len(ps) > 1 for ps in tree._parents.values())
        assert duplicated or multi_parent

    def test_ext_markers_unreachable_by_point_walks(self):
        points = make_clustered_points(2500, seed=5)
        tree = build(points)
        probes = make_points(500, seed=6)
        for p in probes:
            tree.exact_match(p)  # raises RuntimeError on a bad walk

    def test_kd_leaf_counts(self):
        tree = build(make_points(1500, seed=7))
        for pid in index_pids(tree):
            slots = kd_slots(tree, pid)
            internals = sum(1 for k in slots if k.kind == _INTERNAL)
            leaves = sum(1 for k in slots if k.kind != _INTERNAL)
            assert leaves == internals + 1

    def test_data_capacity_never_exceeded(self):
        tree = build(make_points(1200, seed=8))
        for pid in tree.store.page_ids():
            if tree.store.kind(pid) is PageKind.DATA:
                assert len(tree.store._objects[pid].records) <= tree.record_capacity

    def test_parent_map_is_consistent(self):
        tree = build(make_points(2000, seed=9))
        actual_parents: dict[int, set[int]] = {}
        for pid in index_pids(tree):
            for kd in kd_slots(tree, pid):
                if kd.kind == _LEAF:
                    actual_parents.setdefault(kd.pid, set()).add(pid)
        for child, parents in actual_parents.items():
            assert parents <= tree._parents.get(child, set()) | {tree._root_pid}

    def test_empty_space_still_partitioned(self):
        """The paper's criticism of HB: it partitions empty data space,
        so a query in an empty corner still descends into data pages."""
        points = [p for p in make_clustered_points(900, seed=10)
                  if p[0] > 0.05 or p[1] > 0.05]
        tree = build(points)
        tree.store.begin_operation()
        tree.store.begin_operation()
        before = tree.store.stats.total
        assert tree.range_query(Rect((0.0, 0.0), (0.01, 0.01))) == []
        assert tree.store.stats.total - before >= 1


class TestMinimalRegions:
    """The §5 prescription: HB + not partitioning empty space."""

    def test_correctness(self):
        points = make_clustered_points(900, seed=20)
        tree = HBTree(PageStore(), 2, minimal_regions=True)
        for i, p in enumerate(points):
            tree.insert(p, i)
        check_pam_against_oracle(tree, points, STANDARD_QUERIES)

    def test_correctness_diagonal_sorted(self):
        points = [(i / 800.0, i / 800.0) for i in range(800)]
        tree = HBTree(PageStore(), 2, minimal_regions=True)
        for i, p in enumerate(points):
            tree.insert(p, i)
        check_pam_against_oracle(tree, points, STANDARD_QUERIES)

    def test_leaf_mbrs_bound_their_subtrees(self):
        points = make_clustered_points(1500, seed=21)
        tree = HBTree(PageStore(), 2, minimal_regions=True)
        for i, p in enumerate(points):
            tree.insert(p, i)
        for pid in index_pids(tree):
            for kd in kd_slots(tree, pid):
                if kd.kind == _LEAF:
                    assert kd.mbr == tree._node_mbr(kd.pid, kd.is_data)

    def test_regions_reach_the_grandparent_after_a_split(self):
        """A split posts kd-leaves that already carry exact regions, so
        the refresh found nothing to change one level up and never told
        the level above it: uniform inserts lost records from the third
        index level on (here insert 196; at 512 B insert 1 477) until a
        later insert happened to refresh the path."""
        rng = random.Random(0)
        tree = HBTree(PageStore(256), 2, minimal_regions=True)
        for i in range(400):
            point = (rng.random(), rng.random())
            tree.insert(point, i)
            assert tree.exact_match(point) == [i]
        tree.audit()

    def test_empty_space_queries_become_cheap(self):
        from repro.geometry.rect import Rect

        points = make_clustered_points(900, seed=22)
        empty = Rect((0.001, 0.001), (0.004, 0.004))
        points = [p for p in points if not empty.contains_point(p)]

        def cost(minimal):
            tree = HBTree(PageStore(), 2, minimal_regions=minimal)
            for i, p in enumerate(points):
                tree.insert(p, i)
            tree.store.begin_operation()
            tree.store.begin_operation()
            before = tree.store.stats.data_reads
            assert tree.range_query(empty) == []
            return tree.store.stats.data_reads - before

        assert cost(True) == 0  # the §5 prediction: no data page touched
        assert cost(False) >= 1

    def test_region_entries_cost_directory_space(self):
        points = make_points(2000, seed=23)
        plain = HBTree(PageStore(), 2)
        minimal = HBTree(PageStore(), 2, minimal_regions=True)
        for i, p in enumerate(points):
            plain.insert(p, i)
            minimal.insert(p, i)
        from repro.storage.page import PageKind

        assert minimal.store.count_pages(PageKind.DIRECTORY) >= plain.store.count_pages(
            PageKind.DIRECTORY
        )


class TestSmallPages:
    """128-byte pages: four region-carrying kd-leaves per index page, so
    posted chains overflow their parents by more than one split takes
    off, and the dead branches chains leave behind dominate the page."""

    @pytest.mark.parametrize(
        "name",
        [
            # A split extracted a branch no parent routes to (dead under
            # the page's own reach): the new page was an orphan from birth.
            "HB-MBR-dead-branch",
            # Several chains posted into one page; one split left a half
            # still over its payload and nothing looked at it again.
            "HB-MBR-overfull-half",
            # A data split at plane 1.0 extracts the zero-area upper face;
            # "overlap area > 0" never posted it and five records vanished.
            "HB-upper-face",
        ],
    )
    def test_shrunk_reproducers(self, name):
        blob = json.loads((Path(__file__).parent / "reproducers" / f"{name}.json").read_text())
        failure = run_ops(
            STRUCTURES[blob["structure"]],
            blob["ops"],
            audit_every=1,
            store_factory=lambda: PageStore(blob["page_size"]),
        )
        assert failure is None, failure

    def test_a_page_that_cannot_hold_a_posted_chain_is_refused(self):
        """Below four region-carrying kd-leaves per index page the split
        cascade posts faster than it drains; the constructor says which
        size works, and that size does."""
        with pytest.raises(ValueError, match="smallest usable page size is 116 bytes"):
            HBTree(PageStore(115), 2, minimal_regions=True)
        tree = HBTree(PageStore(116), 2, minimal_regions=True)
        rng = random.Random(4)
        for i in range(160):
            tree.insert((rng.randrange(17) / 16, rng.random()), i)
        tree.audit()
        assert len(tree.range_query(Rect.unit(2))) == 160
