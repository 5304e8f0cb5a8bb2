"""Tests for the data and query file generators."""

import numpy as np
import pytest

from repro.geometry.rect import Rect
from repro.geometry.zorder import z_value
from repro.workloads.distributions import POINT_FILES, generate_point_file
from repro.workloads.queries import (
    RANGE_QUERY_VOLUMES,
    RECT_QUERY_SIZES,
    generate_partial_match_queries,
    generate_point_queries,
    generate_query_rectangles,
    generate_range_queries,
    generate_rect_query_workload,
)
from repro.workloads.rect_distributions import RECT_FILES, generate_rect_file
from repro.workloads.terrain import generate_cartography_points, rolling_hills_height


class TestPointFiles:
    @pytest.mark.parametrize("name", sorted(POINT_FILES))
    def test_count_dedupe_and_domain(self, name):
        points = generate_point_file(name, 500)
        expected = round(500 * 0.81549) if name == "real" else 500
        assert len(points) == expected
        assert len(set(points)) == len(points)
        assert all(0.0 <= x < 1.0 and 0.0 <= y < 1.0 for x, y in points)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            generate_point_file("nope", 10)

    def test_deterministic(self):
        assert generate_point_file("uniform", 200) == generate_point_file("uniform", 200)

    def test_seed_changes_output(self):
        a = generate_point_file("uniform", 200, seed=1)
        b = generate_point_file("uniform", 200, seed=2)
        assert a != b

    def test_diagonal_is_on_diagonal(self):
        assert all(x == y for x, y in generate_point_file("diagonal", 300))

    def test_sinus_follows_sine(self):
        points = generate_point_file("sinus", 2000)
        residuals = [y - np.sin(x) for x, y in points]
        assert abs(np.mean(residuals)) < 0.02
        assert np.std(residuals) < 0.2

    def test_bit_distribution_is_skewed_to_zero(self):
        points = generate_point_file("bit", 2000)
        assert np.mean([x for x, _ in points]) < 0.3

    def test_x_parallel_band(self):
        points = generate_point_file("x_parallel", 2000)
        ys = [y for _, y in points]
        assert 0.45 < np.mean(ys) < 0.55
        assert np.std(ys) < 0.15

    def test_cluster_insertion_order_is_clustered(self):
        """C2 of §5: one cluster finishes before the next starts."""
        points = generate_point_file("cluster", 1000)
        first_hundred = points[:100]
        spread = np.std([p[0] for p in first_hundred])
        assert spread < 0.05

    def test_real_data_is_morton_sorted(self):
        points = generate_point_file("real", 400)
        zs = [z_value(p, 2, 16) for p in points]
        assert zs == sorted(zs)


class TestTerrain:
    def test_height_field_normalised(self):
        axis = np.linspace(0, 1, 32)
        xs, ys = np.meshgrid(axis, axis)
        z = rolling_hills_height(xs, ys)
        assert z.min() == 0.0 and z.max() == pytest.approx(1.0)

    def test_contour_points_exact_count(self):
        points = generate_cartography_points(777)
        assert len(points) == 777
        assert len(set(points)) == 777

    def test_points_lie_near_contour_levels(self):
        points = generate_cartography_points(300)
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        heights = rolling_hills_height(xs, ys)
        # Heights concentrate on the contour levels rather than uniform:
        # the nearest-level residual is small for most points.
        levels = np.linspace(0, 1, 26)[1:-1]
        residual = np.min(np.abs(heights[:, None] - levels[None, :]), axis=1)
        assert np.median(residual) < 0.05


class TestRectFiles:
    @pytest.mark.parametrize("name", sorted(RECT_FILES))
    def test_count_dedupe_and_domain(self, name):
        rects = generate_rect_file(name, 300)
        assert len(rects) == 300
        assert len(set(rects)) == 300
        unit = Rect.unit(2)
        assert all(unit.contains_rect(r) for r in rects)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            generate_rect_file("nope", 10)

    def test_uniform_small_extents(self):
        rects = generate_rect_file("uniform_small", 500)
        assert all(r.extent(0) <= 0.01 and r.extent(1) <= 0.01 for r in rects)

    def test_gaussian_slim_is_slim(self):
        rects = generate_rect_file("gaussian_slim", 500)
        mean_x = np.mean([r.extent(0) for r in rects])
        mean_y = np.mean([r.extent(1) for r in rects])
        assert mean_y > 2 * mean_x

    def test_diagonal_rects_follow_diagonal(self):
        rects = generate_rect_file("diagonal", 500)
        offsets = [abs(r.center[0] - r.center[1]) for r in rects]
        assert np.mean(offsets) < 0.15


class TestQueries:
    def test_range_query_volume(self):
        for volume in RANGE_QUERY_VOLUMES:
            queries = generate_range_queries(volume)
            assert len(queries) == 20
            interior = [
                q
                for q in queries
                if all(l > 0.0 for l in q.lo) and all(h < 1.0 for h in q.hi)
            ]
            for q in interior:
                assert q.area() == pytest.approx(volume, rel=1e-6)

    def test_partial_match_axis(self):
        for axis in (0, 1):
            for spec in generate_partial_match_queries(axis):
                assert list(spec) == [axis]
                assert 0.0 <= spec[axis] <= 1.0

    def test_point_queries(self):
        points = generate_point_queries(count=20)
        assert len(points) == 20
        assert all(len(p) == 2 for p in points)

    def test_query_rectangles_area_and_shape(self):
        for size in RECT_QUERY_SIZES:
            for shape in ("square", "slim"):
                queries = generate_query_rectangles(size, shape)
                assert len(queries) == 20
                interior = [
                    q
                    for q in queries
                    if all(l > 0.0 for l in q.lo) and all(h < 1.0 for h in q.hi)
                ]
                for q in interior:
                    assert q.area() == pytest.approx(size, rel=1e-6)

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            generate_query_rectangles(0.01, "round")

    def test_full_workload_counts(self):
        workload = generate_rect_query_workload()
        assert len(workload["rectangles"]) == 160
        assert len(workload["points"]) == 20

    def test_determinism(self):
        a = generate_rect_query_workload()
        b = generate_rect_query_workload()
        assert a == b
