"""Tests for the multilevel grid file (the balanced buddy variant)."""

import json
from pathlib import Path

import pytest

from repro.geometry.rect import Rect
from repro.pam.buddytree import BuddyTree
from repro.pam.mlgf import MultilevelGridFile
from repro.storage.pagestore import PageStore
from repro.verify.fuzz import STRUCTURES, run_ops
from tests.conftest import (
    STANDARD_QUERIES,
    check_pam_against_oracle,
    make_clustered_points,
    make_points,
)

REPRODUCERS = Path(__file__).parent / "reproducers"


def build(points):
    mlgf = MultilevelGridFile(PageStore(), 2)
    for i, p in enumerate(points):
        mlgf.insert(p, i)
    return mlgf


def data_entry_depths(tree):
    """Depths (root = 1) of the nodes holding data entries."""
    depths = set()
    if tree._root_is_data:
        return depths
    stack = [(tree._root_pid, 1)]
    while stack:
        pid, depth = stack.pop()
        node = tree.store._objects[pid]
        for entry in node.entries:
            if entry.is_data:
                depths.add(depth)
            else:
                stack.append((entry.pid, depth + 1))
    return depths


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


class TestBalance:
    def test_all_data_entries_at_one_level(self):
        for seed in (2, 3):
            mlgf = build(make_clustered_points(1500, seed=seed))
            assert len(data_entry_depths(mlgf)) == 1

    def test_one_entry_nodes_are_permitted(self):
        """The 'artificial balancing' that BUDDY's property (1) removes.

        One-entry chain pages are created when a new region appears in
        empty space above the data level; later splits may absorb them,
        so only their legality (never emptiness) is asserted here.
        """
        mlgf = build(make_clustered_points(2500, seed=4))
        sizes = []
        stack = [mlgf._root_pid]
        while stack:
            node = mlgf.store._objects[stack.pop()]
            sizes.append(len(node.entries))
            stack.extend(e.pid for e in node.entries if not e.is_data)
        assert min(sizes) >= 1

    def test_same_answers_as_buddy(self):
        points = make_clustered_points(2000, seed=5)
        buddy = BuddyTree(PageStore(), 2)
        for i, p in enumerate(points):
            buddy.insert(p, i)
        mlgf = build(points)
        for rect in STANDARD_QUERIES:
            assert sorted(buddy.range_query(rect)) == sorted(mlgf.range_query(rect))

    def test_unsupported_operations(self):
        mlgf = build(make_points(100, seed=6))
        with pytest.raises(NotImplementedError):
            mlgf.pack()

    @pytest.mark.parametrize(
        "name",
        [
            # A level-2 page left with one entry was lifted into the root,
            # one level above every other data entry.
            "MLGF-lifted-entry",
            # The root gave way to its only child without giving up a level.
            "MLGF-root-collapse",
        ],
    )
    def test_shrunk_delete_reproducers(self, name):
        blob = json.loads((REPRODUCERS / f"{name}.json").read_text())
        failure = run_ops(
            STRUCTURES[blob["structure"]],
            blob["ops"],
            audit_every=1,
            store_factory=lambda: PageStore(blob["page_size"]),
        )
        assert failure is None, failure

    def test_delete_to_empty_stays_balanced(self):
        points = make_clustered_points(600, seed=8)
        mlgf = MultilevelGridFile(PageStore(128), 2)
        for i, p in enumerate(points):
            mlgf.insert(p, i)
        for i, p in enumerate(points):
            assert mlgf.delete(p, i)
            if i % 25 == 0:
                assert len(data_entry_depths(mlgf)) <= 1
                assert mlgf.check_invariants() == []
        assert len(mlgf) == 0 and mlgf._root_is_data and mlgf._levels == 0
        mlgf.audit()

    def test_buddy_updates_are_cheaper(self):
        """The paper claims property (1) improves "all operations
        (queries and updates)"; the update half holds robustly (the
        query half is scale- and workload-dependent, see EXPERIMENTS.md
        and the ABL-MLGF bench)."""
        points = make_clustered_points(2500, seed=7)
        mlgf = build(points)
        buddy = BuddyTree(PageStore(), 2)
        for i, p in enumerate(points):
            buddy.insert(p, i)
        assert buddy.metrics().insert_cost <= mlgf.metrics().insert_cost
