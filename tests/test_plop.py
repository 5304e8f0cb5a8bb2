"""Tests for PLOP hashing (directory-less linear hashing)."""

import pytest

from repro.geometry.rect import Rect
from repro.pam.plop import PlopHashing, QuantileHashing, _PlopGrid
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore
from tests.conftest import (
    STANDARD_QUERIES,
    check_pam_against_oracle,
    make_clustered_points,
    make_points,
)


def build(points):
    plop = PlopHashing(PageStore(), 2)
    for i, p in enumerate(points):
        plop.insert(p, i)
    return plop


class TestCorrectness:
    def test_uniform(self):
        points = make_points(900)
        check_pam_against_oracle(build(points), points, STANDARD_QUERIES)

    def test_clusters(self):
        points = make_clustered_points(700, seed=1)
        check_pam_against_oracle(build(points), points, STANDARD_QUERIES)

    def test_diagonal(self):
        points = [(i / 600.0, i / 600.0) for i in range(600)]
        check_pam_against_oracle(build(points), points, STANDARD_QUERIES)


class TestGrowth:
    def test_no_directory(self):
        plop = build(make_points(800, seed=2))
        assert plop.directory_height == 0
        assert plop.store.count_pages(PageKind.DIRECTORY) == 0

    def test_expansion_keeps_load_bounded(self):
        plop = build(make_points(2000, seed=3))
        grid = plop._grid
        assert grid._records <= 0.8 * grid._pages * grid.capacity + grid.capacity

    def test_slices_are_dyadic(self):
        plop = build(make_points(1500, seed=4))
        for scale in plop._grid.slices:
            assert scale[0] == 0.0 and scale[-1] == 1.0
            assert scale == sorted(scale)
            for boundary in scale[1:-1]:
                # Every boundary is k / 2^m for some integers k, m.
                value = boundary
                for _ in range(40):
                    if value == int(value):
                        break
                    value *= 2
                assert value == int(value)

    def test_clustered_data_builds_overflow_chains(self):
        """PLOP's weakness: clusters make long chains."""
        tight = [(0.5 + i * 1e-6, 0.5 + i * 1e-6) for i in range(300)]
        plop = build(tight)
        longest = max(len(b.chain) for b in plop._grid.buckets.values())
        assert longest >= 2

    def test_bucket_addressing_is_consistent(self):
        plop = build(make_points(1000, seed=5))
        grid = plop._grid
        for idx, bucket in grid.buckets.items():
            for pid in bucket.chain:
                for point, _ in plop.store._objects[pid].records:
                    assert grid.address(point) == idx


class TestGridCore:
    def test_index_range_boundaries(self):
        grid = _PlopGrid(PageStore(), 2, 8, key_of=lambda r: r[0])
        grid.slices[0] = [0.0, 0.25, 0.5, 0.75, 1.0]
        assert list(grid.index_range(0, 0.0, 1.0)) == [0, 1, 2, 3]
        assert list(grid.index_range(0, 0.3, 0.6)) == [1, 2]
        assert list(grid.index_range(0, 0.5, 0.5)) == [2]
        assert list(grid.index_range(0, 0.25, 0.25)) == [1]
        assert list(grid.index_range(0, 1.0, 1.0)) == [3]

    @pytest.mark.parametrize("cls", [PlopHashing, QuantileHashing])
    def test_record_on_the_upper_face_is_found(self, cls):
        """A query starting at 1.0 used to scan an empty slice range."""
        points = make_points(300, seed=6) + [(1.0, 0.5), (0.25, 1.0), (1.0, 1.0)]
        plop = cls(PageStore(128), 2)
        for i, p in enumerate(points):
            plop.insert(p, i)
        assert sorted(plop.partial_match({0: 1.0})) == [
            ((1.0, 0.5), 300),
            ((1.0, 1.0), 302),
        ]
        assert plop.range_query(Rect((1.0, 0.0), (1.0, 0.75))) == [((1.0, 0.5), 300)]
        assert plop.range_query(Rect((0.0, 1.0), (0.5, 1.0))) == [((0.25, 1.0), 301)]

    def test_read_chain_missing_bucket(self):
        grid = _PlopGrid(PageStore(), 2, 8, key_of=lambda r: r[0])
        assert grid.read_chain((5, 5)) == []


class TestQuantileHashing:
    def build(self, points):
        plop = QuantileHashing(PageStore(), 2)
        for i, p in enumerate(points):
            plop.insert(p, i)
        return plop

    def test_correct_on_uniform(self):
        points = make_points(800, seed=6)
        check_pam_against_oracle(self.build(points), points, STANDARD_QUERIES)

    def test_correct_on_clusters(self):
        points = make_clustered_points(700, seed=7)
        check_pam_against_oracle(self.build(points), points, STANDARD_QUERIES)

    def test_boundaries_follow_the_data(self):
        """Quantile boundaries land where the data is, not at midpoints."""
        import random

        rng = random.Random(8)
        points = list(dict.fromkeys((rng.random() * 0.1, rng.random()) for _ in range(2000)))
        plop = self.build(points)
        interior = plop._grid.slices[0][1:-1]
        assert interior, "no expansions happened"
        # Most x-boundaries fall inside the populated strip [0, 0.1].
        inside = sum(1 for b in interior if b <= 0.1 + 1e-9)
        assert inside >= len(interior) / 2

    def test_invalid_strategy(self):
        from repro.pam.plop import _PlopGrid

        with pytest.raises(ValueError):
            _PlopGrid(PageStore(), 2, 8, key_of=lambda r: r[0], split_strategy="mean")
