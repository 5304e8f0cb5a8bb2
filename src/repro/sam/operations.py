"""Spatial join and nearest-neighbour search — the missing operations.

§8 of the paper, explaining why the SAM comparison is harder than the
PAM comparison: "there are additional important operations and queries
such as spatial join ('overlay two maps') and near neighbor-type
queries".  The comparison itself never measures them; this module
supplies both operations so the extension bench can:

* :func:`rtree_join` — the synchronised R-tree join: descend both trees
  in lockstep, only into subtree pairs whose bounding rectangles
  intersect (the "overlay two maps" operation);
* :func:`nested_loop_join` — the baseline: one intersection query per
  outer rectangle;
* :func:`nearest_neighbors` — branch-and-bound best-first search over
  an R-tree;
* :func:`nearest_points` — nearest-neighbour search through any PAM's
  public interface by expanding square range queries.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Sequence

from repro.core.interfaces import PointAccessMethod
from repro.geometry.rect import Rect
from repro.sam.rtree import RTree, _Node

__all__ = [
    "rtree_join",
    "nested_loop_join",
    "nearest_neighbors",
    "nearest_points",
]


def rtree_join(left: RTree, right: RTree) -> list[tuple[object, object]]:
    """All pairs ``(rid_left, rid_right)`` of intersecting rectangles.

    The synchronised descent visits a pair of nodes only when their
    bounding rectangles intersect, which is what makes map overlay
    tractable compared to one query per object.
    """
    if left.dims != right.dims:
        raise ValueError("joined trees must share dimensionality")
    result: list[tuple[object, object]] = []

    def node_mbr(tree: RTree, pid: int) -> Rect:
        node: _Node = tree.store.held(pid)
        return Rect.bounding(node.rects) if node.rects else None

    def join(left_pid: int, right_pid: int) -> None:
        left_node: _Node = left.store.read(left_pid)
        right_node: _Node = right.store.read(right_pid)
        if left_node.is_leaf and right_node.is_leaf:
            for l_rect, l_rid in zip(left_node.rects, left_node.children):
                for r_rect, r_rid in zip(right_node.rects, right_node.children):
                    if l_rect.intersects(r_rect):
                        result.append((l_rid, r_rid))
            return
        if left_node.is_leaf:
            for r_rect, r_pid in zip(right_node.rects, right_node.children):
                if any(l.intersects(r_rect) for l in left_node.rects):
                    join(left_pid, r_pid)
            return
        if right_node.is_leaf:
            for l_rect, l_pid in zip(left_node.rects, left_node.children):
                if any(r.intersects(l_rect) for r in right_node.rects):
                    join(l_pid, right_pid)
            return
        for l_rect, l_pid in zip(left_node.rects, left_node.children):
            for r_rect, r_pid in zip(right_node.rects, right_node.children):
                if l_rect.intersects(r_rect):
                    join(l_pid, r_pid)

    left.store.begin_operation()
    if node_mbr(left, left._root_pid) is not None and node_mbr(
        right, right._root_pid
    ) is not None:
        join(left._root_pid, right._root_pid)
    return result


def nested_loop_join(
    outer_rects: Sequence[tuple[Rect, object]], inner
) -> list[tuple[object, object]]:
    """The baseline join: one intersection query per outer rectangle."""
    result: list[tuple[object, object]] = []
    for rect, rid in outer_rects:
        for other in inner.intersection(rect):
            result.append((rid, other))
    return result


def _point_rect_distance(point: Sequence[float], rect: Rect) -> float:
    total = 0.0
    for c, lo, hi in zip(point, rect.lo, rect.hi):
        if c < lo:
            total += (lo - c) ** 2
        elif c > hi:
            total += (c - hi) ** 2
    return math.sqrt(total)


def nearest_neighbors(
    tree: RTree, point: Sequence[float], k: int = 1
) -> list[tuple[float, object]]:
    """The ``k`` stored rectangles closest to ``point`` (best-first search).

    Returns ``(distance, rid)`` pairs in increasing distance; distance 0
    means the point lies inside the rectangle.
    """
    if k < 1:
        raise ValueError("k must be positive")
    point = tuple(float(c) for c in point)
    tree.store.begin_operation()
    counter = itertools.count()
    heap: list[tuple[float, int, bool, object]] = [
        (0.0, next(counter), False, tree._root_pid)
    ]
    result: list[tuple[float, object]] = []
    while heap and len(result) < k:
        distance, _, is_entry, payload = heapq.heappop(heap)
        if is_entry:
            result.append((distance, payload))
            continue
        node: _Node = tree.store.read(payload)
        for rect, child in zip(node.rects, node.children):
            child_distance = _point_rect_distance(point, rect)
            heapq.heappush(
                heap, (child_distance, next(counter), node.is_leaf, child)
            )
    return result


def nearest_points(
    pam: PointAccessMethod, point: Sequence[float], k: int = 1
) -> list[tuple[float, tuple[float, ...], object]]:
    """The ``k`` stored points closest to ``point``, via any PAM.

    Runs expanding square range queries through the public interface
    (so page accesses are charged like any query) until the ``k``-th
    candidate provably beats everything outside the searched square.
    Returns ``(distance, point, rid)`` triples in increasing distance.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if len(pam) == 0:
        return []
    point = tuple(float(c) for c in point)
    radius = 0.02
    while True:
        lo = tuple(max(0.0, c - radius) for c in point)
        hi = tuple(min(1.0, c + radius) for c in point)
        hits = pam.range_query(Rect(lo, hi))
        ranked = sorted(
            (math.dist(point, p), p, rid) for p, rid in hits
        )
        if len(ranked) >= k and ranked[k - 1][0] <= radius:
            return ranked[:k]
        if radius >= math.sqrt(pam.dims):  # the square covers the cube
            return ranked[:k]
        radius *= 2.0
