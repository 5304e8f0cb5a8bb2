"""Binary-partition *blocks* of the unit cube.

Both the BANG file and the BUDDY hash tree partition the data space
``[0,1)^d`` by *recursive halving with cyclic axes*: the first cut halves
axis 0, the second axis 1, ..., the (d+1)-th halves axis 0 again, and so
on.  Every region reachable this way is a **block** and is identified by
the sequence of halving decisions that produces it — a tuple of bits
where bit ``j`` selects the lower (0) or upper (1) half of axis
``j % d``.

The empty tuple is the whole data space.  Block ``a`` contains block
``b`` iff ``a`` is a prefix of ``b``; two blocks are either nested or
disjoint, which is exactly the property the BANG file's nested regions
and the BUDDY tree's buddy rectangles rely on.

All coordinates are binary fractions with at most :data:`MAX_DEPTH`
halvings per block, so the float arithmetic below is exact.

Addresses are *computed* as packed integers — :func:`morton_code`
quantises a point and interleaves its coordinate bits through one
spread table, :func:`point_code` cuts that code to a block depth — and
prefix tests on them are shifts and compares.  ``Bits`` tuples remain
the public and stored address type; :func:`bits_of_code` materialises
one from a code only where a tuple is kept.
"""

from __future__ import annotations

import math

from functools import lru_cache
from typing import Sequence

from repro.geometry.rect import Rect

__all__ = [
    "MAX_DEPTH",
    "Bits",
    "block_rect",
    "morton_code",
    "point_code",
    "enclosing_code",
    "bits_of_code",
    "code_of_bits",
    "bits_of_point",
    "is_prefix",
    "common_prefix",
    "nested_residuals",
    "min_enclosing_block",
    "split_axis",
]

#: Maximum total number of halvings of a block address.  48 bits across
#: two dimensions gives 24 bits of resolution per axis, far below the 52
#: mantissa bits of a float, so block boundaries are computed exactly.
MAX_DEPTH = 48

#: A block address: tuple of 0/1 halving decisions.
Bits = tuple[int, ...]

#: dims -> 256-entry table spreading a byte's bits ``dims`` apart:
#: bit ``i`` of the byte lands at bit ``i * dims`` of the entry.
_SPREAD_TABLES: dict[int, list[int]] = {}

#: byte -> its eight bits, most significant first.
_BYTE_BITS = [tuple((byte >> (7 - i)) & 1 for i in range(8)) for byte in range(256)]


def _spread_table(dims: int) -> list[int]:
    table = _SPREAD_TABLES.get(dims)
    if table is None:
        table = _SPREAD_TABLES[dims] = [
            sum(((byte >> i) & 1) << (i * dims) for i in range(8))
            for byte in range(256)
        ]
    return table


# Warm the tables for every dimensionality the testbed reaches: 2-d for
# the native structures, 4-d for the transformation technique (2-d rects
# mapped to 4-d points), 3-d for completeness.  First-call latency then
# never includes table construction.
for _dims in (2, 3, 4):
    _spread_table(_dims)
del _dims


def split_axis(bits: Bits, dims: int) -> int:
    """Axis that the *next* halving of block ``bits`` cuts."""
    return len(bits) % dims


@lru_cache(maxsize=1 << 16)
def block_rect(bits: Bits, dims: int) -> Rect:
    """The axis-parallel rectangle covered by block ``bits``.

    The rectangle is returned as a closed :class:`Rect`; callers that
    need half-open semantics (a point on a shared boundary belongs to
    the *upper* block) should locate points with :func:`bits_of_point`
    rather than with geometric containment.

    The function is pure over immutable arguments, and the BANG/BUDDY
    scan paths recompute the same few thousand block rectangles for
    every query, so results are memoized (``Rect`` is immutable, sharing
    is safe).
    """
    lo = [0.0] * dims
    width = [1.0] * dims
    for j, bit in enumerate(bits):
        axis = j % dims
        width[axis] *= 0.5
        if bit:
            lo[axis] += width[axis]
    hi = tuple(l + w for l, w in zip(lo, width))
    return Rect._make(tuple(lo), hi)


def morton_code(point: Sequence[float], dims: int, bits_per_axis: int) -> int:
    """Quantise ``point`` to ``bits_per_axis`` bits per axis and interleave.

    Coordinates must lie in ``[0, 1]``; ``1.0`` is clamped into the last
    cell (scaling by a power of two is exact, so nothing else rounds up).
    Interleaving is cyclic starting with axis 0, most significant bit
    first — the halving order of a block address — so the code's
    ``dims * bits_per_axis`` binary digits *are* that address.

    Instead of assembling the code bit by bit, each quantised coordinate
    is spread through a 256-entry table — one lookup per 8 coordinate
    bits — and the spread axes are or-ed together: bit ``j`` of axis
    ``a`` lands at position ``j * dims + (dims - 1 - a)``.
    """
    scale = 1 << bits_per_axis
    table = _spread_table(dims)
    step = 8 * dims
    code = 0
    shift = dims
    for c in point:
        q = math.floor(c * scale)
        if q >= scale:
            q = scale - 1
        elif q < 0:
            raise ValueError(f"coordinate {c} outside the unit cube")
        shift -= 1
        spread = table[q & 0xFF]
        q >>= 8
        offset = 0
        while q:
            offset += step
            spread |= table[q & 0xFF] << offset
            q >>= 8
        code |= spread << shift
    if shift:
        raise ValueError(f"point {tuple(point)} does not have {dims} coordinates")
    return code


def point_code(point: Sequence[float], dims: int, depth: int = MAX_DEPTH) -> int:
    """Packed address of the depth-``depth`` block containing ``point``.

    The integer whose ``depth`` binary digits are
    ``bits_of_point(point, dims, depth)``.  The code of a shallower block
    around the same point is a right shift of a deeper one.
    """
    if depth > MAX_DEPTH:
        raise ValueError(f"depth {depth} exceeds MAX_DEPTH={MAX_DEPTH}")
    per_axis = (depth + dims - 1) // dims
    return morton_code(point, dims, per_axis) >> (per_axis * dims - depth)


def bits_of_code(code: int, depth: int) -> Bits:
    """The ``depth``-digit packed address ``code`` as a ``Bits`` tuple."""
    pad = -depth % 8
    bits: Bits = ()
    for byte in (code << pad).to_bytes((depth + pad) >> 3, "big"):
        bits += _BYTE_BITS[byte]
    return bits[:depth] if pad else bits


def code_of_bits(bits: Bits) -> int:
    """The packed address of block ``bits`` (its depth is ``len(bits)``)."""
    code = 0
    for bit in bits:
        code = (code << 1) | bit
    return code


def bits_of_point(point: Sequence[float], dims: int, depth: int) -> Bits:
    """Address of the depth-``depth`` block containing ``point``.

    ``point`` must lie in ``[0,1)`` per axis; boundary points belong to
    the upper half (half-open convention).
    """
    return bits_of_code(point_code(point, dims, depth), depth)


def is_prefix(a: Bits, b: Bits) -> bool:
    """True iff block ``a`` contains block ``b`` (prefix containment)."""
    return len(a) <= len(b) and b[: len(a)] == a


def common_prefix(a: Bits, b: Bits) -> Bits:
    """The smallest block containing both ``a`` and ``b``."""
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return a[:n]


def nested_residuals(all_bits: Sequence[Bits]) -> "list[list[Bits] | None]":
    """Per block, the disjoint blocks tiling it minus the listed blocks nested in it.

    A walk down the binary partition: a half that is itself a listed
    block is left out, a half with a listed block further inside is
    halved again, any other half is a piece.  ``None`` for a block with
    no other listed block strictly inside it; an empty list when the
    nested blocks tile it completely.
    """
    taken = set(all_bits)
    inner = {bits[:k] for bits in taken for k in range(len(bits))}
    out: "list[list[Bits] | None]" = []
    for bits in all_bits:
        if bits not in inner:
            out.append(None)
            continue
        pieces: list[Bits] = []
        stack = [bits]
        while stack:
            current = stack.pop()
            for child in (current + (0,), current + (1,)):
                if child in taken:
                    continue
                if child in inner:
                    stack.append(child)
                else:
                    pieces.append(child)
        out.append(pieces)
    return out


def enclosing_code(rect: Rect, dims: int, max_depth: int = MAX_DEPTH) -> tuple[int, int]:
    """``(code, depth)`` of the smallest block containing ``rect``.

    The longest common prefix of the addresses of the rectangle's lower
    and upper corners; an upper corner touching ``1.0`` is clamped into
    the half-open cube by the quantiser.
    """
    lo = point_code(rect.lo, dims, max_depth)
    depth = max_depth - (lo ^ point_code(rect.hi, dims, max_depth)).bit_length()
    return lo >> (max_depth - depth), depth


def min_enclosing_block(rect: Rect, dims: int, max_depth: int = MAX_DEPTH) -> Bits:
    """Smallest block (longest address) whose rectangle contains ``rect``.

    This is the *buddy rectangle* operation of the BUDDY hash tree.
    """
    return bits_of_code(*enclosing_code(rect, dims, max_depth))
