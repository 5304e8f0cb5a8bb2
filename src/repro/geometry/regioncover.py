"""The scalar rectangle-union coverage oracle.

The BANG file stores *nested* regions: the region of a block is its
rectangle minus the rectangles of the blocks nested inside it.  During
range queries a page can be pruned when the part of the query falling
into its block is entirely covered by nested sibling blocks.  The test
"is rectangle T covered by the union of rectangles C1..Ck" is answered
here by coordinate compression: the boundaries of the covering
rectangles cut T into a small grid, and T is covered iff every grid cell
center is inside some covering rectangle.

The production query path asks a page column instead (the residual
pieces of :mod:`repro.pam.bang`); this function is the reference that
column must equal, and what it falls back to where a cell midpoint could
round onto a cut.
"""

from __future__ import annotations

from typing import Iterable

from repro.geometry.rect import Rect

__all__ = ["is_covered"]


def is_covered(target: Rect, covers: Iterable[Rect]) -> bool:
    """True iff ``target`` is entirely covered by the union of ``covers``.

    Zero-volume targets count as covered when some cover contains them.
    The cost is the product over axes of the number of distinct cover
    boundaries inside the target, which is tiny for the entry counts of
    a 512-byte page.
    """
    covers = [c for c in covers if c.intersects(target)]
    if not covers:
        return False
    if any(c.contains_rect(target) for c in covers):
        return True
    dims = target.dims
    # Per-axis sorted breakpoints: target boundaries plus every cover
    # boundary strictly inside the target.
    axes_cuts: list[list[float]] = []
    for axis in range(dims):
        cuts = {target.lo[axis], target.hi[axis]}
        for c in covers:
            for v in (c.lo[axis], c.hi[axis]):
                if target.lo[axis] < v < target.hi[axis]:
                    cuts.add(v)
        axes_cuts.append(sorted(cuts))

    # Walk the grid of cells; a cell is represented by its center.
    def cell_centers(axis: int) -> list[float]:
        cuts = axes_cuts[axis]
        if len(cuts) == 1:  # degenerate axis: the single coordinate
            return [cuts[0]]
        return [(a + b) / 2.0 for a, b in zip(cuts, cuts[1:])]

    centers_per_axis = [cell_centers(axis) for axis in range(dims)]
    index = [0] * dims
    while True:
        center = tuple(centers_per_axis[a][index[a]] for a in range(dims))
        if not any(c.contains_point(center) for c in covers):
            return False
        # Advance the mixed-radix counter over grid cells.
        axis = 0
        while axis < dims:
            index[axis] += 1
            if index[axis] < len(centers_per_axis[axis]):
                break
            index[axis] = 0
            axis += 1
        if axis == dims:
            return True
