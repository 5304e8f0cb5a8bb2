"""Tests for the one-level grid file and its grid-layer machinery."""

import pytest

from repro.geometry.rect import Rect
from repro.pam.gridfile import GridFile, _GridLayer
from repro.pam.twingrid import TwinGridFile
from repro.storage.disk import _dump_meta, snapshot_method
from repro.storage.pagestore import PageStore
from tests.conftest import (
    STANDARD_QUERIES,
    check_pam_against_oracle,
    make_clustered_points,
    make_points,
)


class TestGridLayer:
    def layer(self):
        layer = _GridLayer(Rect.unit(2))
        layer.install_root_payload("p0")
        return layer

    def test_initial_state(self):
        layer = self.layer()
        assert layer.total_cells() == 1
        assert layer.payload_of_point((0.3, 0.7)) == "p0"
        assert layer.box_rect("p0") == Rect.unit(2)

    def test_refine_remaps_cells_and_boxes(self):
        layer = self.layer()
        pos = layer.refine(0, 0.5)
        assert pos == 1
        assert layer.ncells(0) == 2
        assert layer.payload_of_point((0.1, 0.1)) == "p0"
        assert layer.payload_of_point((0.9, 0.9)) == "p0"
        assert layer.box_rect("p0") == Rect.unit(2)

    def test_refine_existing_boundary_is_noop(self):
        layer = self.layer()
        layer.refine(0, 0.5)
        cells_before = dict(layer.cells)
        assert layer.refine(0, 0.5) == 1
        assert layer.cells == cells_before

    def test_refine_outside_region_raises(self):
        layer = self.layer()
        with pytest.raises(ValueError):
            layer.refine(0, 1.5)

    def test_split_payload_separates_points(self):
        layer = self.layer()
        points = [(0.1, 0.5), (0.9, 0.5)]
        axis, cut = layer.split_payload("p0", "p1", points)
        assert axis == 0
        assert 0.1 < cut <= 0.9
        assert layer.payload_of_point((0.1, 0.5)) == "p0"
        assert layer.payload_of_point((0.9, 0.5)) == "p1"

    def test_split_payload_refines_crowded_cell(self):
        layer = self.layer()
        points = [(0.5001, 0.5001), (0.5002, 0.5002)]
        layer.split_payload("p0", "p1", points)
        # Points are eventually separated even though they share all
        # initial cells.
        assert layer.payload_of_point(points[0]) != layer.payload_of_point(points[1])

    def test_boxes_partition_all_cells(self):
        layer = self.layer()
        layer.split_payload("p0", "p1", [(0.2, 0.2), (0.8, 0.8)])
        layer.split_payload("p0", "p2", [(0.1, 0.1), (0.3, 0.9)])
        covered = {}
        for pid, (lo, hi) in layer.boxes.items():
            idx = list(lo)
            while True:
                assert tuple(idx) not in covered, "boxes overlap"
                covered[tuple(idx)] = pid
                axis = 0
                while axis < layer.dims:
                    idx[axis] += 1
                    if idx[axis] <= hi[axis]:
                        break
                    idx[axis] = lo[axis]
                    axis += 1
                if axis == layer.dims:
                    break
        assert covered == layer.cells

    def test_merge_candidates_and_merge(self):
        layer = self.layer()
        layer.split_payload("p0", "p1", [(0.1, 0.5), (0.9, 0.5)])
        assert layer.merge_candidates("p0") == ["p1"]
        layer.merge_payloads("p0", "p1")
        assert layer.payload_of_point((0.9, 0.5)) == "p0"
        assert "p1" not in layer.boxes


class TestGridFile:
    def test_correct_on_uniform(self, store):
        points = make_points(800)
        gf = GridFile(store, 2)
        for i, p in enumerate(points):
            gf.insert(p, i)
        check_pam_against_oracle(gf, points, STANDARD_QUERIES)

    def test_correct_on_clusters(self, store):
        points = make_clustered_points(600, seed=3)
        gf = GridFile(store, 2)
        for i, p in enumerate(points):
            gf.insert(p, i)
        check_pam_against_oracle(gf, points, STANDARD_QUERIES)

    def test_capacity_never_exceeded(self, store):
        gf = GridFile(store, 2)
        points = make_points(500, seed=9)
        for i, p in enumerate(points):
            gf.insert(p, i)
        from repro.storage.page import PageKind

        for pid in store.page_ids():
            if store.kind(pid) is PageKind.DATA:
                assert len(store._objects[pid].records) <= gf.record_capacity

    def test_exact_match_costs_two_accesses(self, store):
        gf = GridFile(store, 2)
        points = make_points(400, seed=4)
        for i, p in enumerate(points):
            gf.insert(p, i)
        # Query a point far from the recently buffered path.
        store.begin_operation()
        store.begin_operation()
        before = store.stats.total
        gf.exact_match(points[0])
        assert store.stats.total - before <= 2

    def test_delete_and_merge(self, store):
        gf = GridFile(store, 2)
        points = make_points(300, seed=5)
        for i, p in enumerate(points):
            gf.insert(p, i)
        for i, p in enumerate(points[:250]):
            assert gf.delete(p, i)
        assert len(gf) == 50
        remaining = points[250:]
        got = sorted(gf.range_query(Rect.unit(2)))
        assert got == sorted((p, i + 250) for i, p in enumerate(remaining))

    def test_delete_missing_returns_false(self, store):
        gf = GridFile(store, 2)
        gf.insert((0.5, 0.5), 1)
        assert not gf.delete((0.5, 0.5), 2)  # wrong rid
        assert not gf.delete((0.1, 0.1), 1)  # wrong point
        assert gf.delete((0.5, 0.5), 1)

    def test_directory_grows_superlinearly_on_diagonal(self):
        """The paper's criticism: skewed data blows up the directory."""

        def dir_cells(points):
            gf = GridFile(PageStore(), 2)
            for i, p in enumerate(points):
                gf.insert(p, i)
            return gf._layer.total_cells()

        diag = [(i / 600.0, i / 600.0) for i in range(600)]
        unif = make_points(600, seed=11)
        assert dir_cells(diag) > 4 * dir_cells(unif)


@pytest.mark.parametrize("cls", [GridFile, TwinGridFile])
def test_a_query_leaves_the_method_blob_unchanged(cls):
    """GRID-1 and TWIN keep their layers in method state, not in pages:
    the blob ``commit(meta=snapshot_method(...))`` logs must not pick up
    the bounds snapshot a vectorised query caches on a layer."""
    grid = cls(PageStore(), 2)
    for rid, point in enumerate(make_points(400, seed=12)):
        grid.insert(point, rid)
    layers = [grid._layer] if cls is GridFile else grid._layers
    before = _dump_meta(snapshot_method(grid))
    assert grid.range_query(Rect((0.1, 0.1), (0.9, 0.9)))
    assert any(layer._bounds is not None for layer in layers)
    assert _dump_meta(snapshot_method(grid)) == before and b"numpy" not in before
