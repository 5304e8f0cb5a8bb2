"""Shared fixtures and brute-force oracles for the test suite.

Setting ``REPRO_CI=1`` loads a deterministic hypothesis profile:
``derandomize=True`` replaces hypothesis's random exploration with a
fixed example stream derived from each test's source, so two CI runs of
the same tree execute byte-identical examples, and ``deadline=None``
removes per-example time limits that flake on loaded runners.  The
profile is registered unconditionally (so ``--hypothesis-profile=ci``
also works) but only loaded when the variable is set; local runs keep
the default randomised exploration, which finds new bugs.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import HealthCheck, settings

from repro.geometry.rect import Rect
from repro.storage.factory import make_store
from repro.storage.pagestore import PageStore

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
if os.environ.get("REPRO_CI") == "1":
    settings.load_profile("ci")


@pytest.fixture
def store() -> PageStore:
    """A fresh 512-byte page store.

    Honours ``REPRO_STORE_BACKEND``, so ``REPRO_STORE_BACKEND=disk``
    runs every fixture-based test against the durable backend.
    """
    return make_store()


def make_points(n: int, seed: int = 0) -> list[tuple[float, float]]:
    """``n`` distinct uniform points (plain :mod:`random`, fast)."""
    rng = random.Random(seed)
    points: list[tuple[float, float]] = []
    seen: set[tuple[float, float]] = set()
    while len(points) < n:
        p = (rng.random(), rng.random())
        if p not in seen:
            seen.add(p)
            points.append(p)
    return points


def make_clustered_points(n: int, seed: int = 0) -> list[tuple[float, float]]:
    """``n`` distinct points in a few tight clusters (skewed workload)."""
    rng = random.Random(seed)
    centers = [(rng.random() * 0.8 + 0.1, rng.random() * 0.8 + 0.1) for _ in range(4)]
    points: list[tuple[float, float]] = []
    seen: set[tuple[float, float]] = set()
    while len(points) < n:
        cx, cy = centers[rng.randrange(len(centers))]
        p = (
            min(max(rng.gauss(cx, 0.02), 0.0), 0.999999),
            min(max(rng.gauss(cy, 0.02), 0.0), 0.999999),
        )
        if p not in seen:
            seen.add(p)
            points.append(p)
    return points


def make_rects(n: int, seed: int = 0, max_extent: float = 0.08) -> list[Rect]:
    """``n`` distinct rectangles clipped to the unit square."""
    rng = random.Random(seed)
    rects: list[Rect] = []
    seen: set[Rect] = set()
    while len(rects) < n:
        cx, cy = rng.random(), rng.random()
        ex, ey = rng.random() * max_extent, rng.random() * max_extent
        rect = Rect(
            (max(0.0, cx - ex), max(0.0, cy - ey)),
            (min(1.0, cx + ex), min(1.0, cy + ey)),
        )
        if rect not in seen:
            seen.add(rect)
            rects.append(rect)
    return rects


def brute_range(points, rect: Rect):
    """Sorted brute-force answer to a point range query."""
    return sorted((p, i) for i, p in enumerate(points) if rect.contains_point(p))


def check_pam_against_oracle(pam, points, queries) -> None:
    """Assert the PAM answers every query exactly like brute force."""
    for rect in queries:
        assert sorted(pam.range_query(rect)) == brute_range(points, rect), rect
    for point in points[:: max(1, len(points) // 23)]:
        assert pam.exact_match(point) == [points.index(point)]
    assert pam.exact_match((0.123456789, 0.987654321)) == []


def check_sam_against_oracle(sam, rects, queries, points) -> None:
    """Assert the SAM answers all four query types exactly like brute force."""
    for query in queries:
        assert sorted(sam.intersection(query)) == sorted(
            i for i, r in enumerate(rects) if r.intersects(query)
        ), ("intersection", query)
        assert sorted(sam.containment(query)) == sorted(
            i for i, r in enumerate(rects) if query.contains_rect(r)
        ), ("containment", query)
        assert sorted(sam.enclosure(query)) == sorted(
            i for i, r in enumerate(rects) if r.contains_rect(query)
        ), ("enclosure", query)
    for point in points:
        assert sorted(sam.point_query(point)) == sorted(
            i for i, r in enumerate(rects) if r.contains_point(point)
        ), ("point", point)


#: A handful of query rectangles exercising tiny, medium and full ranges.
STANDARD_QUERIES = [
    Rect((0.0, 0.0), (1.0, 1.0)),
    Rect((0.2, 0.3), (0.4, 0.6)),
    Rect((0.5, 0.5), (0.52, 0.9)),
    Rect((0.9, 0.05), (0.95, 0.1)),
    Rect((0.33, 0.33), (0.330001, 0.330001)),
    Rect((0.0, 0.45), (1.0, 0.55)),
]

#: Probe points for SAM point queries.
STANDARD_POINTS = [(0.5, 0.5), (0.1, 0.9), (0.25, 0.25), (0.99, 0.01)]
