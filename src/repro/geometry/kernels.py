"""Vectorized predicate kernels over coordinate arrays.

These are the NumPy counterparts of the scalar :class:`~repro.geometry.rect.Rect`
predicates.  Every kernel evaluates a whole page of records — and, in the
``*_many`` variants, a whole batch of queries — in one call, replacing the
per-record Python loops inside visited pages.

Exactness contract: the kernels compare float64 values with ``<=``/``>=``
only, never arithmetic, so a kernel's verdict on any (record, query) pair is
bit-identical to the scalar predicate on the same Python floats.  NaN rows
(used to mark unavailable batch queries) compare false everywhere, matching
"never selected".

Shapes
------
``pts``            ``(n, d)``   page of points
``lo``, ``hi``     ``(n, d)``   page of boxes (lower/upper corners)
``qlo``, ``qhi``   ``(d,)``     one query box, or ``(Q, d)`` for a batch

Single-query kernels return a boolean mask of shape ``(n,)``; batch kernels
return ``(Q, n)``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "points_in_box",
    "points_in_boxes",
    "boxes_intersect",
    "boxes_intersect_many",
    "boxes_within",
    "boxes_within_many",
    "boxes_enclose",
    "boxes_enclose_many",
    "fuse_points",
    "fuse_boxes_cover",
    "fused_match",
    "fused_match_many",
]


# -- point pages ------------------------------------------------------------


def points_in_box(pts: np.ndarray, qlo: np.ndarray, qhi: np.ndarray) -> np.ndarray:
    """Mask of points inside the closed box ``[qlo, qhi]`` (range query)."""
    return ((pts >= qlo) & (pts <= qhi)).all(axis=1)


def points_in_boxes(pts: np.ndarray, qlo: np.ndarray, qhi: np.ndarray) -> np.ndarray:
    """Batch variant: ``(Q, n)`` mask of points inside each query box."""
    p = pts[None, :, :]
    return ((p >= qlo[:, None, :]) & (p <= qhi[:, None, :])).all(axis=2)


# -- box pages --------------------------------------------------------------


def boxes_intersect(
    lo: np.ndarray, hi: np.ndarray, qlo: np.ndarray, qhi: np.ndarray
) -> np.ndarray:
    """Mask of stored boxes sharing at least one point with the query box."""
    return ((lo <= qhi) & (qlo <= hi)).all(axis=1)


def boxes_intersect_many(
    lo: np.ndarray, hi: np.ndarray, qlo: np.ndarray, qhi: np.ndarray
) -> np.ndarray:
    """Batch variant of :func:`boxes_intersect` — ``(Q, n)``."""
    l, h = lo[None, :, :], hi[None, :, :]
    return ((l <= qhi[:, None, :]) & (qlo[:, None, :] <= h)).all(axis=2)


def boxes_within(
    lo: np.ndarray, hi: np.ndarray, qlo: np.ndarray, qhi: np.ndarray
) -> np.ndarray:
    """Mask of stored boxes entirely inside the query box (containment)."""
    return ((qlo <= lo) & (hi <= qhi)).all(axis=1)


def boxes_within_many(
    lo: np.ndarray, hi: np.ndarray, qlo: np.ndarray, qhi: np.ndarray
) -> np.ndarray:
    """Batch variant of :func:`boxes_within` — ``(Q, n)``."""
    l, h = lo[None, :, :], hi[None, :, :]
    return ((qlo[:, None, :] <= l) & (h <= qhi[:, None, :])).all(axis=2)


def boxes_enclose(
    lo: np.ndarray, hi: np.ndarray, qlo: np.ndarray, qhi: np.ndarray
) -> np.ndarray:
    """Mask of stored boxes that entirely contain the query box (enclosure).

    With a degenerate query box this is exactly ``contains_point``.
    """
    return ((lo <= qlo) & (qhi <= hi)).all(axis=1)


def boxes_enclose_many(
    lo: np.ndarray, hi: np.ndarray, qlo: np.ndarray, qhi: np.ndarray
) -> np.ndarray:
    """Batch variant of :func:`boxes_enclose` — ``(Q, n)``."""
    l, h = lo[None, :, :], hi[None, :, :]
    return ((l <= qlo[:, None, :]) & (qhi[:, None, :] <= h)).all(axis=2)


# -- fused form --------------------------------------------------------------
#
# Every kernel above is a conjunction of ``<=`` comparisons, half of them
# with the operands swapped.  Since IEEE-754 negation is exact and
# ``a <= b  <=>  -b <= -a`` for every float pair (NaN compares false on
# both sides), each predicate can be rewritten as ONE comparison of a
# per-page "fused" array against a per-query vector:
#
#   point in box:       [-p, p]   <= [-qlo, qhi]
#   boxes intersect:    [lo, -hi] <= [qhi, -qlo]
#   box encloses query: [lo, -hi] <= [qlo, -qhi]
#   box within query:   [lo, -hi] >= [qlo, -qhi]
#
# Two NumPy dispatches (compare + all) instead of four, with verdicts
# bit-identical to the pairwise kernels — the hot-path form used by
# :mod:`repro.query.traverse`.  The three box predicates read one page
# array, ``[lo, -hi]`` ("cover"): containment is enclosure's query
# vector with the comparison reversed.


def fuse_points(pts: np.ndarray) -> np.ndarray:
    """``(n, 2d)`` fused page array ``[-p, p]`` for point-in-box tests."""
    return np.concatenate([-pts, pts], axis=1)


def fuse_boxes_cover(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``(n, 2d)`` fused array ``[lo, -hi]`` of every box predicate."""
    return np.concatenate([lo, -hi], axis=1)


def fused_match(fused: np.ndarray, qvec: np.ndarray) -> np.ndarray:
    """``(n,)`` mask of fused page rows entirely ``<=`` the query vector."""
    return (fused <= qvec).all(axis=1)


def fused_match_many(fused: np.ndarray, qvecs: np.ndarray) -> np.ndarray:
    """Batch variant of :func:`fused_match` — ``(Q, n)``."""
    return (fused[None, :, :] <= qvecs[:, None, :]).all(axis=2)
