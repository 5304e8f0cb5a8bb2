"""Convex polygons — the "more complex spatial objects" of §9.

The paper closes with: "Further work in this area should deal with
performance comparisons of access methods for more complex spatial
objects, such as polygons".  This module supplies the geometry for that
step: convex polygons with exact point containment, rectangle
intersection (separating-axis test) and the minimal bounding rectangle
used by every MBR-based access method of §6.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from repro.geometry.rect import Rect

__all__ = ["ConvexPolygon", "convex_hull"]


def convex_hull(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Convex hull in counter-clockwise order (Andrew's monotone chain)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return list(pts)

    def cross(o, a, b):
        # Exact over the float inputs: in floats the products can round,
        # or underflow on subnormal coordinates, to the wrong sign.
        ox, oy = Fraction(o[0]), Fraction(o[1])
        return (Fraction(a[0]) - ox) * (Fraction(b[1]) - oy) - (
            Fraction(a[1]) - oy
        ) * (Fraction(b[0]) - ox)

    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


class ConvexPolygon:
    """An immutable convex polygon with counter-clockwise vertices."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: Sequence[tuple[float, float]]):
        verts = [(float(x), float(y)) for x, y in vertices]
        if len(verts) < 3:
            raise ValueError("a polygon needs at least three vertices")
        hull = convex_hull(verts)
        if len(hull) != len(verts):
            raise ValueError("vertices must be convex and in general position")
        object.__setattr__(self, "vertices", tuple(hull))

    def __setattr__(self, name, value):
        raise AttributeError("ConvexPolygon is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def regular(cls, center: tuple[float, float], radius: float, sides: int,
                rotation: float = 0.0) -> "ConvexPolygon":
        """A regular ``sides``-gon around ``center``."""
        if sides < 3:
            raise ValueError("at least three sides")
        return cls(
            [
                (
                    center[0] + radius * math.cos(rotation + 2 * math.pi * k / sides),
                    center[1] + radius * math.sin(rotation + 2 * math.pi * k / sides),
                )
                for k in range(sides)
            ]
        )

    # -- basic measures ---------------------------------------------------------

    def bounding_rect(self) -> Rect:
        """The minimal bounding rectangle used by the access methods."""
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return Rect((min(xs), min(ys)), (max(xs), max(ys)))

    def area(self) -> float:
        """Shoelace area (positive: vertices are counter-clockwise)."""
        total = 0.0
        verts = self.vertices
        for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
            total += x1 * y2 - x2 * y1
        return total / 2.0

    # -- predicates -----------------------------------------------------------------

    def contains_point(self, point: tuple[float, float]) -> bool:
        """Exact point-in-convex-polygon (boundary counts as inside)."""
        px, py = point
        verts = self.vertices
        for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
            if (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1) < 0:
                return False
        return True

    def intersects_rect(self, rect: Rect) -> bool:
        """Exact polygon/rectangle intersection via the separating-axis test."""
        if not self.bounding_rect().intersects(rect):
            return False
        # Axis-aligned axes are covered by the bounding-rect check; test
        # the polygon's edge normals.
        corners = [
            (rect.lo[0], rect.lo[1]),
            (rect.hi[0], rect.lo[1]),
            (rect.hi[0], rect.hi[1]),
            (rect.lo[0], rect.hi[1]),
        ]
        verts = self.vertices
        for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
            nx, ny = y1 - y2, x2 - x1  # outward is irrelevant; interval test
            poly_proj = [nx * vx + ny * vy for vx, vy in verts]
            rect_proj = [nx * cx + ny * cy for cx, cy in corners]
            if max(poly_proj) < min(rect_proj) or max(rect_proj) < min(poly_proj):
                return False
        return True

    def contained_in_rect(self, rect: Rect) -> bool:
        """True iff every vertex lies inside ``rect``."""
        return all(rect.contains_point(v) for v in self.vertices)

    # -- dunder -------------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, ConvexPolygon) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"ConvexPolygon({len(self.vertices)} vertices)"
