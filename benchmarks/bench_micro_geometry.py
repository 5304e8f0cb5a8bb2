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

Each case times the shipped implementation against a straightforward
reference written here, min-of-repeats, and asserts a modest win so a
regression that silently reverts the optimisation fails the bench.  The
reference implementations are first checked to agree exactly.
"""

import math
import timeit
from random import Random

from repro.geometry.blocks import MAX_DEPTH, bits_of_point, min_enclosing_block
from repro.geometry.rect import Rect
from repro.geometry.zorder import z_value

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


def _best(fn) -> float:
    return min(timeit.repeat(fn, number=NUMBER, repeat=REPEATS)) / NUMBER


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
    }
    benchmark(lambda: [a.intersects(b) for a, b in pairs])

    rows = {
        name: (opt * 1e6, ref * 1e6, ref / opt)
        for name, (opt, ref) in timings.items()
    }
    emit(
        "BENCH-MICRO-GEO",
        "Geometry micro-optimisations (300 calls per sample, min of "
        f"{REPEATS}x{NUMBER} repeats)\n"
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
