"""Deletion-path regressions for every delete-supporting structure.

The paper builds its files by insertion only, so the delete paths are
the least exercised code in the repo.  These tests drive each structure
(BUDDY, the one-level grid file, MLGF and the R-tree) all the way to
empty and back, with the invariant auditor checking the file after
every phase.
"""

from __future__ import annotations

import pytest

from repro.geometry.rect import Rect
from repro.pam.buddytree import BuddyTree
from repro.pam.gridfile import GridFile
from repro.pam.mlgf import MultilevelGridFile
from repro.sam.rtree import RTree
from repro.storage.pagestore import PageStore
from repro.verify import run_audit
from tests.conftest import make_clustered_points, make_points, make_rects

PAM_CLASSES = {
    "BUDDY": BuddyTree,
    "GRID-1": GridFile,
}


def build_pam(cls, points):
    pam = cls(PageStore(), 2)
    for rid, point in enumerate(points):
        pam.insert(point, rid)
    return pam


class TestPamDeletion:
    @pytest.mark.parametrize("name", sorted(PAM_CLASSES))
    def test_delete_to_empty(self, name):
        points = make_points(200, seed=21)
        pam = build_pam(PAM_CLASSES[name], points)
        for rid, point in enumerate(points):
            assert pam.delete(point, rid), (name, rid)
            assert pam.exact_match(point) == [], (name, rid)
        assert len(pam) == 0
        assert pam.range_query(Rect.unit(2)) == []
        assert run_audit(pam) == [], name

    @pytest.mark.parametrize("name", sorted(PAM_CLASSES))
    def test_reinsert_after_delete(self, name):
        points = make_points(150, seed=22)
        pam = build_pam(PAM_CLASSES[name], points)
        victims = list(enumerate(points))[::3]
        for rid, point in victims:
            assert pam.delete(point, rid)
        for rid, point in victims:
            pam.insert(point, rid)
        assert sorted(pam.range_query(Rect.unit(2))) == sorted(
            (p, i) for i, p in enumerate(points)
        ), name
        assert run_audit(pam) == [], name

    @pytest.mark.parametrize("name", sorted(PAM_CLASSES))
    def test_insert_after_delete_to_empty(self, name):
        points = make_points(120, seed=23)
        pam = build_pam(PAM_CLASSES[name], points)
        for rid, point in enumerate(points):
            assert pam.delete(point, rid)
        fresh = make_points(80, seed=24)
        for rid, point in enumerate(fresh):
            pam.insert(point, rid)
        assert sorted(pam.range_query(Rect.unit(2))) == sorted(
            (p, i) for i, p in enumerate(fresh)
        ), name
        assert run_audit(pam) == [], name

    @pytest.mark.parametrize("name", sorted(PAM_CLASSES))
    def test_delete_missing_returns_false(self, name):
        points = make_points(50, seed=25)
        pam = build_pam(PAM_CLASSES[name], points)
        assert not pam.delete((0.123456789, 0.987654321), 0)
        assert not pam.delete(points[0], 999)  # right point, wrong rid
        assert len(pam) == 50
        assert run_audit(pam) == [], name

    def test_mlgf_delete_keeps_balance(self):
        """The balanced variant deletes without lifting an entry out of
        its level: every data entry stays at the same depth."""
        points = make_points(300, seed=27)
        mlgf = build_pam(MultilevelGridFile, points)
        for rid, point in list(enumerate(points))[::2]:
            assert mlgf.delete(point, rid)
            assert mlgf.exact_match(point) == []
        assert len(mlgf) == 150
        assert sorted(mlgf.range_query(Rect.unit(2))) == sorted(
            (p, i) for i, p in list(enumerate(points))[1::2]
        )
        assert run_audit(mlgf) == []

    def test_buddy_clustered_delete_merges_pages(self):
        points = make_clustered_points(400, seed=26)
        tree = build_pam(BuddyTree, points)
        pages_before = tree.metrics().data_pages
        for rid, point in enumerate(points[:360]):
            assert tree.delete(point, rid)
        assert tree.metrics().data_pages < pages_before
        assert run_audit(tree) == []


class TestRTreeDeletion:
    def build(self, rects):
        tree = RTree(PageStore(), 2)
        for rid, rect in enumerate(rects):
            tree.insert(rect, rid)
        return tree

    def test_delete_to_empty(self):
        rects = make_rects(200, seed=31)
        tree = self.build(rects)
        for rid, rect in enumerate(rects):
            assert tree.delete(rect, rid), rid
        assert len(tree) == 0
        assert tree.intersection(Rect.unit(2)) == []
        assert run_audit(tree) == []

    def test_reinsert_after_delete(self):
        rects = make_rects(150, seed=32)
        tree = self.build(rects)
        victims = list(enumerate(rects))[::3]
        for rid, rect in victims:
            assert tree.delete(rect, rid)
        for rid, rect in victims:
            tree.insert(rect, rid)
        assert sorted(tree.intersection(Rect.unit(2))) == list(range(len(rects)))
        assert run_audit(tree) == []

    def test_insert_after_delete_to_empty(self):
        rects = make_rects(120, seed=33)
        tree = self.build(rects)
        for rid, rect in enumerate(rects):
            assert tree.delete(rect, rid)
        fresh = make_rects(80, seed=34)
        for rid, rect in enumerate(fresh):
            tree.insert(rect, rid)
        assert sorted(tree.intersection(Rect.unit(2))) == list(range(len(fresh)))
        assert run_audit(tree) == []

    def test_delete_missing_returns_false(self):
        rects = make_rects(50, seed=35)
        tree = self.build(rects)
        assert not tree.delete(Rect((0.91, 0.91), (0.92, 0.92)), 0)
        assert not tree.delete(rects[0], 999)
        assert len(tree) == 50
        assert run_audit(tree) == []

    def test_delete_shrinks_tree_height(self):
        rects = make_rects(600, seed=36, max_extent=0.03)
        tree = self.build(rects)
        height_before = tree.metrics().height
        assert height_before >= 1
        for rid, rect in enumerate(rects[:580]):
            assert tree.delete(rect, rid)
        assert tree.metrics().height <= height_before
        assert sorted(tree.intersection(Rect.unit(2))) == list(range(580, 600))
        assert run_audit(tree) == []
