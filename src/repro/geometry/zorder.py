"""Morton (z-order) codes and redundant z-region decomposition.

The z-order maps a d-dimensional point to a single integer by
interleaving the bits of its quantized coordinates.  A *z-region* is a
prefix of such codes — geometrically exactly a binary-partition block in
the sense of :mod:`repro.geometry.blocks` — and corresponds to one
contiguous interval of z-values.  Storing the z-regions of an object in
a one-dimensional B+-tree is the classic technique of Orenstein & Merrett
[OM 84]; decomposing an object into *several* z-regions trades
**redundancy** for query precision, the trade-off studied by Orenstein's
companion paper in the same proceedings volume.
"""

from __future__ import annotations

from typing import Sequence

from repro.geometry.blocks import (
    Bits,
    block_rect,
    code_of_bits,
    min_enclosing_block,
    morton_code,
)
from repro.geometry.rect import Rect

__all__ = [
    "z_value",
    "z_interval",
    "decompose_rect",
]


def z_value(point: Sequence[float], dims: int, bits_per_axis: int = 16) -> int:
    """Morton code of ``point`` with ``bits_per_axis`` bits per axis.

    Coordinates must lie in ``[0, 1]``; the value ``1.0`` is clamped to
    the last cell.  Interleaving is cyclic starting with axis 0, matching
    the halving order of :mod:`repro.geometry.blocks` — the code is
    computed by that module's :func:`~repro.geometry.blocks.morton_code`,
    the one quantise-and-spread kernel block addresses share.
    """
    return morton_code(point, dims, bits_per_axis)


def z_interval(bits: Bits, dims: int, bits_per_axis: int = 16) -> tuple[int, int]:
    """Half-open interval ``[lo, hi)`` of z-values falling in block ``bits``."""
    total = dims * bits_per_axis
    if len(bits) > total:
        raise ValueError(f"block deeper ({len(bits)}) than the z resolution ({total})")
    prefix = code_of_bits(bits)
    shift = total - len(bits)
    return prefix << shift, (prefix + 1) << shift


def decompose_rect(
    rect: Rect,
    dims: int,
    max_regions: int = 4,
    max_depth: int = 20,
) -> list[Bits]:
    """Cover ``rect`` with at most ``max_regions`` z-regions (blocks).

    This is the redundancy-controlled decomposition: with
    ``max_regions=1`` the object is approximated by its single minimal
    enclosing block (no redundancy, poor precision); larger budgets
    refine the cover greedily, splitting the block whose overshoot
    (covered volume outside the object) is largest, which is how a
    clipping-based spatial access method controls its redundancy.
    """
    if max_regions < 1:
        raise ValueError("max_regions must be at least 1")

    def overshoot(bits: Bits) -> float:
        block = block_rect(bits, dims)
        inter = block.intersection(rect)
        covered = inter.area() if inter is not None else 0.0
        return block.area() - covered

    # Start from the minimal enclosing block of the object.
    cover = [min_enclosing_block(rect, dims, max_depth)]
    while len(cover) < max_regions:
        # Split the block with the largest overshoot whose children still
        # intersect the object; stop when nothing profitable remains.
        best_idx, best_gain = -1, 0.0
        for i, bits in enumerate(cover):
            if len(bits) >= max_depth:
                continue
            gain = overshoot(bits)
            if gain > best_gain:
                best_idx, best_gain = i, gain
        if best_idx < 0:
            break
        bits = cover.pop(best_idx)
        for child in (bits + (0,), bits + (1,)):
            child_rect = block_rect(child, dims)
            if child_rect.intersects(rect):
                cover.append(child)
    return cover
