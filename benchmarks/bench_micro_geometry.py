"""Microbenchmarks pinning the geometry hot-path optimisations.

Two per-call wins ride under every query of the testbed:

* :meth:`Rect.intersects` runs a single early-exit pass over the axes —
  the first separating axis settles the verdict — instead of evaluating
  all ``lo`` comparisons before any ``hi`` comparison;
* :func:`repro.geometry.zorder.z_value` spreads each quantized
  coordinate through a 256-entry table (one lookup per 8 bits) instead
  of assembling the Morton code bit by bit, for the 2-d native
  structures and the 4-d transformed space alike.

And one under every BANG / BUDDY insert:

* :func:`repro.geometry.blocks.bits_of_point` and
  :func:`~repro.geometry.blocks.min_enclosing_block` run on the same
  spread kernel (one packed code, unpacked a byte at a time) instead of
  a 48-step per-bit loop per address.

And one under every BANG / BANG* / T-BANG query:

* the nesting-coverage leaf filter reads its verdict off the leaf's
  residual column (two fused comparisons and a set lookup per entry)
  instead of clipping every entry block to the query and asking
  :func:`~repro.geometry.regioncover.is_covered` about it.

Each case times the shipped implementation against a straightforward
reference written here, min-of-repeats, and asserts a modest win so a
regression that silently reverts the optimisation fails the bench.  The
reference implementations are first checked to agree exactly.
"""

import math
import timeit
from random import Random

import numpy as np

from repro.geometry.blocks import (
    MAX_DEPTH,
    bits_of_point,
    block_rect,
    is_prefix,
    min_enclosing_block,
)
from repro.geometry.rect import Rect
from repro.geometry.regioncover import is_covered
from repro.geometry.zorder import z_value
from repro.pam.bang import BangFile
from repro.query.traverse import qvec_for
from repro.storage.pagestore import PageStore

from benchmarks.conftest import emit

REPEATS = 7
NUMBER = 200


def ref_intersects(a: Rect, b: Rect) -> bool:
    """Two full generator passes: all lo-vs-hi, then all hi-vs-lo."""
    return all(l <= oh for l, oh in zip(a.lo, b.hi)) and all(
        ol <= h for ol, h in zip(b.lo, a.hi)
    )


def ref_z_value(point, dims: int, bits_per_axis: int = 16) -> int:
    """Cyclic MSB-first interleaving, one shift-or step per output bit."""
    scale = 1 << bits_per_axis
    qs = []
    for c in point:
        q = math.floor(c * scale)
        if q >= scale:
            q = scale - 1
        qs.append(q)
    z = 0
    for j in range(bits_per_axis - 1, -1, -1):
        for axis in range(dims):
            z = (z << 1) | ((qs[axis] >> j) & 1)
    return z


def ref_bits_of_point(point, dims: int, depth: int) -> tuple:
    """One shift-and-mask step per halving decision."""
    per_axis = (depth + dims - 1) // dims
    scale = 1 << per_axis
    qs = [min(math.floor(c * scale), scale - 1) for c in point]
    return tuple(
        (qs[j % dims] >> (per_axis - 1 - j // dims)) & 1 for j in range(depth)
    )


def ref_min_enclosing_block(rect: Rect, dims: int) -> tuple:
    """Longest common prefix of the two corner addresses, bit by bit."""
    lo = ref_bits_of_point(rect.lo, dims, MAX_DEPTH)
    hi = ref_bits_of_point(rect.hi, dims, MAX_DEPTH)
    n = 0
    for x, y in zip(lo, hi):
        if x != y:
            break
        n += 1
    return lo[:n]


def leaf_filter_case(dims: int):
    """``(shipped, reference, queries, aligned)`` over the fullest leaf of
    a fixed clustered ``dims``-d BANG file: 150 range and 150
    partial-match boxes to time, 100 block-aligned boxes (the ones that
    reach the oracle fallback, which generic query files never do) to
    check agreement on as well.

    ``shipped(q)`` is what a cold page costs in production — the block
    gate and the residual rows as single-query fused comparisons, then
    ``_keep_leaf_entries``; ``reference(q)`` clips each entry block and
    asks ``is_covered`` about its nested siblings (found once, up front).
    Both return the kept entry indices.
    """
    rng = Random(7 + dims)
    bang = BangFile(PageStore(512), dims)
    for rid in range(1500):
        bang.insert(tuple(rng.gauss(0.4, 0.12) % 1.0 for _ in range(dims)), rid)
    leaves = [
        node.entries
        for node in bang.store._objects.values()
        if getattr(node, "is_leaf", False)
    ]
    entries = max(leaves, key=len)
    cover = entries.view("blocks:cover", bang._build_blocks_cover)
    residual = bang._build_residual_cover(entries)

    def shipped(rect: Rect) -> list:
        qvec = qvec_for("isect", rect)
        b_row = np.flatnonzero((cover <= qvec).all(axis=1)).tolist()
        r_row = np.flatnonzero((residual <= qvec).all(axis=1)).tolist()
        return bang._keep_leaf_entries(entries, b_row, r_row, rect)

    rects = [block_rect(e.bits, dims) for e in entries]
    nested = [
        [
            rects[k]
            for k, other in enumerate(entries)
            if len(other.bits) > len(e.bits) and is_prefix(e.bits, other.bits)
        ]
        for e in entries
    ]

    def reference(rect: Rect) -> list:
        out = []
        for i, block in enumerate(rects):
            overlap = block.intersection(rect)
            if overlap is None or (nested[i] and is_covered(overlap, nested[i])):
                continue
            out.append(i)
        return out

    queries = []
    for _ in range(150):
        side = rng.choice((0.001, 0.01, 0.1)) ** (1.0 / dims)
        lo = tuple(rng.uniform(0, 1 - side) for _ in range(dims))
        queries.append(Rect(lo, tuple(c + side for c in lo)))
    for _ in range(150):
        axis, value = rng.randrange(dims), rng.random()
        queries.append(
            Rect(
                tuple(value if a == axis else 0.0 for a in range(dims)),
                tuple(value if a == axis else 1.0 for a in range(dims)),
            )
        )
    cuts = [sorted({c for r in rects for c in (r.lo[a], r.hi[a])}) for a in range(dims)]
    aligned = []
    for _ in range(100):
        bounds = [sorted((rng.choice(cuts[a]), rng.choice(cuts[a]))) for a in range(dims)]
        aligned.append(Rect(tuple(b[0] for b in bounds), tuple(b[1] for b in bounds)))
    # The rule has work to do on this leaf: it prunes some block hits, not all.
    hits = sum(block.intersects(q) for q in queries for block in rects)
    assert 0 < sum(len(reference(q)) for q in queries) < hits
    return shipped, reference, queries, aligned


def _best(fn, number: int = NUMBER) -> float:
    return min(timeit.repeat(fn, number=number, repeat=REPEATS)) / number


def test_micro_geometry(benchmark):
    rng = Random(42)

    def rect(size):
        lo = tuple(rng.uniform(0, 1 - size) for _ in range(2))
        return Rect(lo, tuple(c + size for c in lo))

    # Mostly-disjoint pairs: the pruning pattern of a directory descent,
    # where the early exit pays.
    pairs = [(rect(0.05), rect(0.05)) for _ in range(300)]
    for a, b in pairs:
        assert a.intersects(b) == ref_intersects(a, b)

    points2 = [(rng.random(), rng.random()) for _ in range(300)]
    points4 = [tuple(rng.random() for _ in range(4)) for _ in range(300)]
    for p in points2:
        assert z_value(p, 2) == ref_z_value(p, 2)
    for p in points4:
        assert z_value(p, 4) == ref_z_value(p, 4)

    for p in points2:
        assert bits_of_point(p, 2, MAX_DEPTH) == ref_bits_of_point(p, 2, MAX_DEPTH)
    for p in points4:
        assert bits_of_point(p, 4, MAX_DEPTH) == ref_bits_of_point(p, 4, MAX_DEPTH)
    # Page-sized MBRs next to point-sized ones: shallow and deep blocks.
    boxes = [rect(0.05) for _ in range(150)] + [rect(1e-6) for _ in range(150)]
    for box in boxes:
        assert min_enclosing_block(box, 2) == ref_min_enclosing_block(box, 2)

    leaf2, ref_leaf2, queries2, aligned2 = leaf_filter_case(2)
    leaf4, ref_leaf4, queries4, aligned4 = leaf_filter_case(4)
    for q in queries2 + aligned2:
        assert leaf2(q) == ref_leaf2(q)
    for q in queries4 + aligned4:
        assert leaf4(q) == ref_leaf4(q)

    timings = {
        "intersects": (
            _best(lambda: [a.intersects(b) for a, b in pairs]),
            _best(lambda: [ref_intersects(a, b) for a, b in pairs]),
        ),
        "z_value 2-d": (
            _best(lambda: [z_value(p, 2) for p in points2]),
            _best(lambda: [ref_z_value(p, 2) for p in points2]),
        ),
        "z_value 4-d": (
            _best(lambda: [z_value(p, 4) for p in points4]),
            _best(lambda: [ref_z_value(p, 4) for p in points4]),
        ),
        "bits_of_pt 2-d": (
            _best(lambda: [bits_of_point(p, 2, MAX_DEPTH) for p in points2]),
            _best(lambda: [ref_bits_of_point(p, 2, MAX_DEPTH) for p in points2]),
        ),
        "bits_of_pt 4-d": (
            _best(lambda: [bits_of_point(p, 4, MAX_DEPTH) for p in points4]),
            _best(lambda: [ref_bits_of_point(p, 4, MAX_DEPTH) for p in points4]),
        ),
        "min_encl_block": (
            _best(lambda: [min_enclosing_block(b, 2) for b in boxes]),
            _best(lambda: [ref_min_enclosing_block(b, 2) for b in boxes]),
        ),
        "leaf_filter 2-d": (
            _best(lambda: [leaf2(q) for q in queries2], number=10),
            _best(lambda: [ref_leaf2(q) for q in queries2], number=10),
        ),
        "leaf_filter 4-d": (
            _best(lambda: [leaf4(q) for q in queries4], number=10),
            _best(lambda: [ref_leaf4(q) for q in queries4], number=10),
        ),
    }
    benchmark(lambda: [a.intersects(b) for a, b in pairs])

    rows = {
        name: (opt * 1e6, ref * 1e6, ref / opt)
        for name, (opt, ref) in timings.items()
    }
    emit(
        "BENCH-MICRO-GEO",
        "Geometry micro-optimisations (300 calls per sample, min of "
        f"{REPEATS}x{NUMBER} repeats; leaf_filter {REPEATS}x10)\n"
        f"{'':15s}{'optimised':>12s}{'reference':>12s}{'win':>7s}\n"
        + "\n".join(
            f"{name:15s}{opt:10.1f}us{ref:10.1f}us{win:6.2f}x"
            for name, (opt, ref, win) in rows.items()
        ),
    )

    # Modest margins: the wins are ~1.5-4x locally, but CI boxes are noisy.
    assert rows["intersects"][2] > 1.05
    assert rows["z_value 2-d"][2] > 1.2
    assert rows["z_value 4-d"][2] > 1.2
    # The address kernel wins 3-6x locally.
    assert rows["bits_of_pt 2-d"][2] > 1.5
    assert rows["bits_of_pt 4-d"][2] > 1.5
    assert rows["min_encl_block"][2] > 1.5
    # The column filter wins 7-20x locally.
    assert rows["leaf_filter 2-d"][2] > 3
    assert rows["leaf_filter 4-d"][2] > 3
