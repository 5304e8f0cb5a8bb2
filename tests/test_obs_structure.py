"""Tests for structure snapshots: metrics, drift guard, determinism.

The determinism bar: a snapshot of the same logical build must
serialise to byte-identical canonical JSON, for every structure config
in the fuzz matrix.
"""

from __future__ import annotations

import pytest

from repro.core.comparison import build_pam, build_sam
from repro.geometry.rect import Rect
from repro.obs.structure import (
    SNAPSHOT_SCHEMA,
    PageView,
    compute_snapshot,
    page_parents,
    render_snapshot,
    snapshot_to_json,
    validate_snapshot,
)
from repro.pam.buddytree import BuddyTree
from repro.sam.clipping import ClippingSAM
from repro.sam.rtree import RTree
from repro.storage.pagestore import PageStore
from repro.verify.fuzz import STRUCTURES
from repro.workloads.distributions import generate_point_file
from repro.workloads.rect_distributions import generate_rect_file

from tests.conftest import make_points, make_rects

SCALE = 220


@pytest.fixture(scope="module")
def buddy_snapshot():
    points = make_points(300, seed=3)
    pam = build_pam(lambda s, dims=2: BuddyTree(s, dims), points)
    return points, pam, pam.snapshot()


class TestComputeSnapshot:
    def test_validates_and_counts(self, buddy_snapshot):
        points, pam, snap = buddy_snapshot
        assert validate_snapshot(snap) == []
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert snap["structure"] == "BuddyTree"
        assert snap["records"] == len(points)
        assert snap["pages"]["data"] > 0
        assert snap["height"] == pam.directory_height

    def test_snapshot_is_uncharged(self, buddy_snapshot):
        _, pam, _ = buddy_snapshot
        before = pam.store.stats.snapshot()
        compute_snapshot(pam)
        assert pam.store.stats == before

    def test_levels_account_every_page(self, buddy_snapshot):
        _, _, snap = buddy_snapshot
        data = sum(level["data_pages"] for level in snap["levels"])
        directory = sum(level["directory_pages"] for level in snap["levels"])
        assert data == snap["pages"]["data"]
        assert directory == snap["pages"]["directory"]

    def test_one_place_scheme_has_no_duplication(self, buddy_snapshot):
        _, _, snap = buddy_snapshot
        red = snap["redundancy"]
        assert red["duplication_factor"] == 1.0
        assert red["stored_entries"] == snap["records"]
        assert 0.0 < red["utilisation"] <= 1.0

    def test_clipping_duplication_scales_with_budget(self):
        rects = make_rects(150, seed=9)
        factors = []
        for budget in (1, 4):
            sam = build_sam(
                lambda s, dims=2, r=budget: ClippingSAM(s, dims, redundancy=r),
                rects,
            )
            factors.append(sam.snapshot()["redundancy"]["duplication_factor"])
        assert factors[0] == 1.0
        assert factors[1] > 1.0

    def test_rtree_reports_overlap(self):
        rects = make_rects(300, seed=11)
        sam = build_sam(lambda s, dims=2: RTree(s, dims), rects)
        snap = sam.snapshot()
        assert snap["redundancy"]["overlap_volume"] > 0.0
        assert snap["redundancy"]["duplication_factor"] == 1.0

    def test_charging_walk_raises(self, buddy_snapshot):
        """The drift guard: a hook that uses store.read cannot ship."""
        points = make_points(80, seed=2)
        pam = build_pam(lambda s, dims=2: BuddyTree(s, dims), points)
        pid = next(iter(pam.store.page_ids()))

        def charging_walk():
            pam.store.read(pid)
            return iter(())

        pam._snapshot_pages = charging_walk
        with pytest.raises(RuntimeError, match="charged page accesses"):
            compute_snapshot(pam)

    def test_render(self, buddy_snapshot):
        _, _, snap = buddy_snapshot
        text = render_snapshot(snap)
        assert "BuddyTree" in text
        assert "redundancy: duplication" in text
        assert "level 0:" in text


class TestValidateSnapshot:
    def test_not_an_object(self):
        assert validate_snapshot(42) == ["snapshot is not a JSON object"]

    def test_catches_missing_redundancy_key(self, buddy_snapshot):
        _, _, snap = buddy_snapshot
        import json

        broken = json.loads(snapshot_to_json(snap))
        broken["schema"] = "bogus/v0"
        del broken["redundancy"]["dead_space"]
        problems = validate_snapshot(broken)
        assert any("schema" in p for p in problems)
        assert any("dead_space" in p for p in problems)


class TestPageParents:
    def test_first_parent_in_walk_order_wins(self):
        a = PageView(1, "directory", 0, (), 2, 4, children=(3,))
        b = PageView(2, "directory", 0, (), 2, 4, children=(3,))
        assert page_parents([a, b]) == {3: 1}
        assert page_parents([b, a]) == {3: 2}


class TestDataViews:
    def test_records_and_content_come_from_entries(self):
        points = PageView.data(7, 1, (), 4, [((0.1, 0.4), 0), ((0.3, 0.2), 1)])
        assert (points.kind, points.records) == ("data", 2)
        assert points.content == Rect((0.1, 0.2), (0.3, 0.4))
        rects = PageView.data(
            8,
            1,
            (),
            4,
            [(Rect((0.1, 0.1), (0.2, 0.5)), "a"), (Rect((0.0, 0.2), (0.3, 0.3)), "b")],
        )
        assert rects.content == Rect((0.0, 0.1), (0.3, 0.5))
        assert PageView.data(9, 1, (), 4, []).content is None
        assert PageView(1, "directory", 0, (), 2, 4, children=(3, 4)).content is None

    def test_iter_records_is_the_walk_of_the_data_views(self, buddy_snapshot):
        points, pam, _ = buddy_snapshot
        views = [v for v in pam._snapshot_pages() if v.kind == "data"]
        assert list(pam.iter_records()) == [e for v in views for e in v.entries]
        assert sorted(pam.iter_records()) == sorted(
            (point, rid) for rid, point in enumerate(points)
        )


def build_config(name: str, cfg: dict):
    """Build one fuzz-matrix config on its standard small workload."""
    store = PageStore()
    am = cfg["factory"](store)
    if cfg["kind"] == "pam":
        for rid, point in enumerate(generate_point_file("uniform", SCALE)):
            am.insert(point, rid)
    else:
        for rid, rect in enumerate(
            generate_rect_file("uniform_small", SCALE)
        ):
            am.insert(rect, rid)
    if cfg["pack_every"]:
        am.pack()
    return am


class TestSnapshotDeterminism:
    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_rebuild_is_byte_identical(self, name):
        """Acceptance: same build => byte-identical canonical JSON,
        for every structure config in the fuzz matrix."""
        cfg = STRUCTURES[name]
        first = snapshot_to_json(build_config(name, cfg).snapshot())
        second = snapshot_to_json(build_config(name, cfg).snapshot())
        assert first == second
        import json

        assert validate_snapshot(json.loads(first)) == []
