"""Tests for the §9 polygon extension (geometry + filter-and-refine)."""

import math

import pytest
from hypothesis import example, given, strategies as st

from repro.geometry.polygon import ConvexPolygon, convex_hull
from repro.geometry.rect import Rect
from repro.pam.buddytree import BuddyTree
from repro.sam.polygons import PolygonIndex
from repro.sam.rtree import RTree
from repro.sam.transformation import TransformationSAM
from repro.storage.pagestore import PageStore
from repro.workloads.polygons import generate_polygon_file


class TestConvexHull:
    def test_triangle(self):
        assert len(convex_hull([(0, 0), (1, 0), (0, 1)])) == 3

    def test_interior_points_removed(self):
        hull = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)])
        assert len(hull) == 4

    def test_counter_clockwise(self):
        hull = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        area = sum(
            x1 * y2 - x2 * y1
            for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1])
        )
        assert area > 0

    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=3, max_size=30))
    @example(points=[(0.0, 0.75), (1.0, 0.0), (5e-324, 1.0), (5e-324, 0.5)])  # subnormal x
    def test_hull_contains_all_points(self, points):
        hull = convex_hull(points)
        if len(hull) < 3:
            return
        polygon = ConvexPolygon(hull)
        for px, py in points:
            # Tolerant check: the signed edge distance may round a hair
            # negative for inputs collinear up to float precision.
            verts = polygon.vertices
            for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
                cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
                assert cross >= -1e-9


class TestConvexPolygon:
    def test_requires_three_vertices(self):
        with pytest.raises(ValueError):
            ConvexPolygon([(0, 0), (1, 1)])

    def test_rejects_nonconvex(self):
        with pytest.raises(ValueError):
            ConvexPolygon([(0, 0), (1, 0), (0.5, 0.2), (0.5, 1)])

    def test_regular_polygon_area(self):
        hexagon = ConvexPolygon.regular((0.5, 0.5), 0.2, 6)
        expected = 0.5 * 6 * 0.2**2 * math.sin(2 * math.pi / 6)
        assert hexagon.area() == pytest.approx(expected)

    def test_bounding_rect(self):
        square = ConvexPolygon([(0.2, 0.2), (0.4, 0.2), (0.4, 0.4), (0.2, 0.4)])
        assert square.bounding_rect() == Rect((0.2, 0.2), (0.4, 0.4))

    def test_contains_point(self):
        triangle = ConvexPolygon([(0, 0), (1, 0), (0, 1)])
        assert triangle.contains_point((0.2, 0.2))
        assert triangle.contains_point((0.5, 0.5))  # on the hypotenuse
        assert not triangle.contains_point((0.6, 0.6))

    def test_intersects_rect(self):
        triangle = ConvexPolygon([(0, 0), (1, 0), (0, 1)])
        assert triangle.intersects_rect(Rect((0.1, 0.1), (0.2, 0.2)))
        # Rect inside the MBR but outside the triangle (above hypotenuse).
        assert not triangle.intersects_rect(Rect((0.8, 0.8), (0.95, 0.95)))
        assert triangle.intersects_rect(Rect((0.45, 0.45), (0.9, 0.9)))

    def test_contained_in_rect(self):
        triangle = ConvexPolygon([(0.2, 0.2), (0.4, 0.2), (0.3, 0.4)])
        assert triangle.contained_in_rect(Rect((0.1, 0.1), (0.5, 0.5)))
        assert not triangle.contained_in_rect(Rect((0.25, 0.1), (0.5, 0.5)))

    def test_immutable_and_hashable(self):
        a = ConvexPolygon([(0, 0), (1, 0), (0, 1)])
        b = ConvexPolygon([(0, 0), (1, 0), (0, 1)])
        assert a == b and hash(a) == hash(b)
        with pytest.raises(AttributeError):
            a.vertices = ()


class TestPolygonIndex:
    def brute(self, polygons, predicate):
        return sorted(i for i, poly in enumerate(polygons) if predicate(poly))

    @pytest.mark.parametrize(
        "sam_factory",
        [
            lambda s, dims: RTree(s, dims),
            lambda s, dims: TransformationSAM(
                s, lambda st, dims: BuddyTree(st, dims), dims=dims
            ),
        ],
    )
    def test_queries_match_brute_force(self, sam_factory):
        polygons = generate_polygon_file(300)
        index = PolygonIndex(PageStore(), sam_factory)
        for i, poly in enumerate(polygons):
            index.insert(poly, i)
        for probe in [(0.5, 0.5), (0.2, 0.8), (0.33, 0.41)]:
            assert sorted(index.point_query(probe)) == self.brute(
                polygons, lambda poly: poly.contains_point(probe)
            )
        for window in [Rect((0.3, 0.3), (0.5, 0.5)), Rect((0.0, 0.0), (1.0, 1.0))]:
            assert sorted(index.window_query(window)) == self.brute(
                polygons, lambda poly: poly.intersects_rect(window)
            )
            assert sorted(index.containment_query(window)) == self.brute(
                polygons, lambda poly: poly.contained_in_rect(window)
            )

    def test_false_drops_are_counted(self):
        """A thin diagonal polygon has a big MBR: the filter over-selects."""
        sliver = ConvexPolygon([(0.1, 0.1), (0.9, 0.88), (0.9, 0.9), (0.12, 0.1)])
        index = PolygonIndex(PageStore(), lambda s, dims: RTree(s, dims))
        index.insert(sliver, 0)
        assert index.point_query((0.2, 0.8)) == []  # inside MBR, outside polygon
        assert index.last_false_drops == 1
        assert index.point_query((0.5, 0.5)) == [0]
        assert index.last_false_drops == 0

    def test_refinement_reads_object_pages(self):
        polygons = generate_polygon_file(200)
        store = PageStore()
        index = PolygonIndex(store, lambda s, dims: RTree(s, dims))
        for i, poly in enumerate(polygons):
            index.insert(poly, i)
        store.begin_operation()
        store.begin_operation()
        before = store.stats.data_reads
        hits = index.window_query(Rect((0.2, 0.2), (0.6, 0.6)))
        assert hits
        assert store.stats.data_reads - before > 0
