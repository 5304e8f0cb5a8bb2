"""Tests for GRID, the 2-level grid file."""

from repro.geometry.rect import Rect
from repro.pam.twolevelgrid import TwoLevelGridFile, _SubGrid
from repro.storage.disk import _dumps
from repro.storage.page import PageKind
from repro.storage.pagecodec import decode
from repro.storage.pagestore import PageStore
from tests.conftest import (
    STANDARD_QUERIES,
    check_pam_against_oracle,
    make_clustered_points,
    make_points,
)


def build(points, store=None):
    grid = TwoLevelGridFile(store or PageStore(), 2)
    for i, p in enumerate(points):
        grid.insert(p, i)
    return grid


class TestCorrectness:
    def test_uniform(self):
        points = make_points(900)
        check_pam_against_oracle(build(points), points, STANDARD_QUERIES)

    def test_clusters(self):
        points = make_clustered_points(700, seed=2)
        check_pam_against_oracle(build(points), points, STANDARD_QUERIES)

    def test_diagonal(self):
        points = [(i / 700.0, i / 700.0) for i in range(700)]
        check_pam_against_oracle(build(points), points, STANDARD_QUERIES)

    def test_sorted_insertion(self):
        points = sorted(make_points(600, seed=7))
        check_pam_against_oracle(build(points), points, STANDARD_QUERIES)


class TestStructure:
    def test_height_is_two(self):
        assert build(make_points(300)).directory_height == 2

    def test_root_partitions_subgrids(self):
        grid = build(make_points(4000, seed=3))
        store = grid.store
        # Every subgrid page is reachable from exactly one root box.
        subgrids = [
            pid for pid in store.page_ids() if store.kind(pid) is PageKind.DIRECTORY
        ]
        assert set(grid._root.boxes) == set(subgrids)
        assert len(subgrids) >= 2

    def test_subgrid_pages_fit_their_page(self):
        grid = build(make_points(1500, seed=4))
        store = grid.store
        for pid in store.page_ids():
            obj = store._objects[pid]
            if isinstance(obj, _SubGrid):
                assert obj.layer.byte_size() <= grid._subgrid_payload

    def test_data_pages_fit(self):
        grid = build(make_points(800, seed=5))
        store = grid.store
        for pid in store.page_ids():
            if store.kind(pid) is PageKind.DATA:
                assert len(store._objects[pid].records) <= grid.record_capacity

    def test_subgrid_regions_tile_the_space(self):
        grid = build(make_clustered_points(1500, seed=6))
        boxes = [grid._root.box_rect(pid) for pid in grid._root.boxes]
        assert sum(b.area() for b in boxes) - 1.0 < 1e-9
        # Any probe point falls in exactly one subgrid responsibility.
        for probe in [(0.1, 0.1), (0.5, 0.5), (0.9, 0.2), (0.33, 0.77)]:
            assert grid._root.payload_of_point(probe) in grid._root.boxes

    def test_first_level_pages_reported(self):
        grid = build(make_points(1200, seed=8))
        m = grid.metrics()
        assert m.pinned_pages == grid.first_level_pages >= 1

    def test_in_core_first_level_costs_nothing(self):
        grid = build(make_points(500, seed=9))
        store = grid.store
        store.begin_operation()
        store.begin_operation()
        before = store.stats.total
        grid.exact_match((0.123, 0.456))
        # Subgrid page + data page only; the first level is in memory.
        assert store.stats.total - before <= 2

    def test_a_query_leaves_every_page_image_unchanged(self):
        """The bounds snapshot a vectorised query caches on a sub-grid's
        layer is derived state: it must not ride the page's image (the
        durable store would re-log the page, and load it with arrays)."""
        grid = build(make_points(800, seed=10))
        store = grid.store
        subgrids = [p for p in store.page_ids() if isinstance(store.peek(p), _SubGrid)]
        images = {pid: _dumps(store.peek(pid)) for pid in store.page_ids()}
        assert grid.range_query(Rect((0.1, 0.1), (0.9, 0.9)))
        assert any(store.peek(p).layer._bounds is not None for p in subgrids)
        assert {pid: _dumps(store.peek(pid)) for pid in store.page_ids()} == images
        assert decode(images[subgrids[0]]).layer._bounds is None


class TestPathological:
    def test_duplicate_free_near_points(self):
        grid = TwoLevelGridFile(PageStore(), 2)
        base = 0.500000001
        points = [(base + i * 1e-9, base - i * 1e-9) for i in range(60)]
        for i, p in enumerate(points):
            grid.insert(p, i)
        got = sorted(grid.range_query(Rect((0.49, 0.49), (0.51, 0.51))))
        assert len(got) == 60

    def test_all_points_on_one_vertical_line(self):
        grid = TwoLevelGridFile(PageStore(), 2)
        points = [(0.25, i / 300.0) for i in range(300)]
        for i, p in enumerate(points):
            grid.insert(p, i)
        hits = grid.partial_match({0: 0.25})
        assert len(hits) == 300
