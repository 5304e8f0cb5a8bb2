"""Hypothesis property tests: vectorized kernels equal the scalar oracle.

Every kernel in :mod:`repro.geometry.kernels` — pairwise, batch, and the
fused single-comparison forms the traversal actually uses — must agree
with the corresponding :class:`~repro.geometry.rect.Rect` predicate on
every (record, query) pair, including degenerate boxes and boxes that
touch exactly on a boundary (the closed-interval edge cases where a
``<`` / ``<=`` slip would first show up).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.geometry import kernels
from repro.geometry.rect import Rect
from repro.query.columnar import _QVEC_BUILDERS, ColumnarCache
from repro.query.traverse import _TESTS, BOXES, SCALAR_PRED as ORACLES, RowSource, qvec_for
from repro.storage.soa import SoAList

# A small shared pool of exact values makes coincident boundaries (touching
# and degenerate boxes) common instead of measure-zero.
boundary = st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 1.0])
coordinate = st.one_of(boundary, st.floats(0.0, 1.0, allow_nan=False))

KERNEL_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def boxes(draw, dims, min_size=1, max_size=12):
    n = draw(st.integers(min_size, max_size))
    out = []
    for _ in range(n):
        corners = [
            sorted((draw(coordinate), draw(coordinate))) for _ in range(dims)
        ]
        out.append(
            Rect(tuple(c[0] for c in corners), tuple(c[1] for c in corners))
        )
    return out


@st.composite
def page_and_queries(draw, dims):
    pts = [
        tuple(draw(coordinate) for _ in range(dims))
        for _ in range(draw(st.integers(1, 12)))
    ]
    rects = draw(boxes(dims))
    queries = draw(boxes(dims, max_size=5))
    return pts, rects, queries


def _bounds(rects):
    lo = np.array([r.lo for r in rects])
    hi = np.array([r.hi for r in rects])
    return lo, hi


PAIRWISE = {
    "isect": (kernels.boxes_intersect, kernels.boxes_intersect_many),
    "within": (kernels.boxes_within, kernels.boxes_within_many),
    "encl": (kernels.boxes_enclose, kernels.boxes_enclose_many),
}


class TestPairwiseKernels:
    @KERNEL_SETTINGS
    @given(data=page_and_queries(dims=2))
    def test_points_in_box_matches_contains_point(self, data):
        pts, _, queries = data
        arr = np.array(pts)
        for q in queries:
            expected = [q.contains_point(p) for p in pts]
            got = kernels.points_in_box(arr, np.array(q.lo), np.array(q.hi))
            assert got.tolist() == expected

    @KERNEL_SETTINGS
    @given(data=page_and_queries(dims=2))
    def test_box_kernels_match_rect_predicates(self, data):
        _, rects, queries = data
        lo, hi = _bounds(rects)
        for op, (single, _) in PAIRWISE.items():
            oracle = ORACLES[op]
            for q in queries:
                expected = [oracle(r, q) for r in rects]
                got = single(lo, hi, np.array(q.lo), np.array(q.hi))
                assert got.tolist() == expected, op

    @KERNEL_SETTINGS
    @given(data=page_and_queries(dims=4))
    def test_box_kernels_match_in_four_dims(self, data):
        _, rects, queries = data
        lo, hi = _bounds(rects)
        for op, (single, _) in PAIRWISE.items():
            oracle = ORACLES[op]
            for q in queries:
                got = single(lo, hi, np.array(q.lo), np.array(q.hi))
                assert got.tolist() == [oracle(r, q) for r in rects], op


class TestBatchKernels:
    @KERNEL_SETTINGS
    @given(data=page_and_queries(dims=2))
    def test_batch_rows_equal_single_query_calls(self, data):
        pts, rects, queries = data
        arr = np.array(pts)
        qlo = np.array([q.lo for q in queries])
        qhi = np.array([q.hi for q in queries])
        batch = kernels.points_in_boxes(arr, qlo, qhi)
        for i, q in enumerate(queries):
            single = kernels.points_in_box(arr, np.array(q.lo), np.array(q.hi))
            assert batch[i].tolist() == single.tolist()
        lo, hi = _bounds(rects)
        for op, (single_k, many_k) in PAIRWISE.items():
            batch = many_k(lo, hi, qlo, qhi)
            for i, q in enumerate(queries):
                row = single_k(lo, hi, np.array(q.lo), np.array(q.hi))
                assert batch[i].tolist() == row.tolist(), op

    @KERNEL_SETTINGS
    @given(data=page_and_queries(dims=2))
    def test_nan_query_rows_select_nothing(self, data):
        _, rects, _ = data
        lo, hi = _bounds(rects)
        qlo = np.full((3, 2), np.nan)
        qhi = np.full((3, 2), np.nan)
        for _, many_k in PAIRWISE.values():
            assert not many_k(lo, hi, qlo, qhi).any()


class TestFusedKernels:
    """The single-comparison forms are bit-identical to the pairwise ones."""

    @KERNEL_SETTINGS
    @given(data=page_and_queries(dims=2))
    def test_fused_points_match_pairwise(self, data):
        pts, _, queries = data
        arr = np.array(pts)
        fused = kernels.fuse_points(arr)
        for q in queries:
            expected = kernels.points_in_box(arr, np.array(q.lo), np.array(q.hi))
            got = kernels.fused_match(fused, qvec_for("pts", q))
            assert got.tolist() == expected.tolist()

    @KERNEL_SETTINGS
    @given(data=page_and_queries(dims=2))
    def test_fused_boxes_match_pairwise(self, data):
        _, rects, queries = data
        lo, hi = _bounds(rects)
        fused = kernels.fuse_boxes_cover(lo, hi)  # the one page array
        for op, (single_k, _) in PAIRWISE.items():
            family, compare = _TESTS[op]
            for q in queries:
                expected = single_k(lo, hi, np.array(q.lo), np.array(q.hi))
                got = compare(fused, qvec_for(family, q)).all(axis=1)
                assert got.tolist() == expected.tolist(), op

    @KERNEL_SETTINGS
    @given(data=page_and_queries(dims=2))
    def test_fused_batch_matches_fused_single(self, data):
        _, rects, queries = data
        lo, hi = _bounds(rects)
        fused = kernels.fuse_boxes_cover(lo, hi)
        qlo = np.array([q.lo for q in queries])
        qhi = np.array([q.hi for q in queries])
        for op in ("isect", "encl"):
            qvecs = _QVEC_BUILDERS[op](qlo, qhi)
            batch = kernels.fused_match_many(fused, qvecs)
            for i, q in enumerate(queries):
                row = kernels.fused_match(fused, qvec_for(op, q))
                assert batch[i].tolist() == row.tolist(), op

    def test_fused_qvec_builders_agree_with_single(self):
        q = Rect((0.25, 0.5), (0.75, 1.0))
        qlo = np.array([q.lo])
        qhi = np.array([q.hi])
        for op in ("pts", "isect", "encl"):
            batch_row = _QVEC_BUILDERS[op](qlo, qhi)[0]
            assert batch_row.tolist() == qvec_for(op, q).tolist(), op
        assert qvec_for("pts", q).tolist() == list(tuple(-c for c in q.lo) + q.hi)


#: Coordinates where a containment kernel would first go wrong: signed
#: zeros, infinities, the smallest subnormals, bounds one ulp apart.
_EDGES = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 0.5, 1.0]
_EDGES += [float(np.nextafter(0.5, 1.0)), float(np.nextafter(0.5, 0.0))]
edge = st.sampled_from(_EDGES)


@st.composite
def edge_boxes(draw, dims, min_size=1, max_size=10):
    """Boxes with corners drawn from :data:`_EDGES`: equal corners make
    degenerate boxes, ``(0.0, -0.0)`` a box from ``+0`` to ``-0``."""
    out = []
    for _ in range(draw(st.integers(min_size, max_size))):
        corners = [sorted((draw(edge), draw(edge))) for _ in range(dims)]
        out.append(Rect(tuple(c[0] for c in corners), tuple(c[1] for c in corners)))
    return out


class TestContainmentOnTheCoverArray:
    """Containment is ``[lo, -hi] >= [qlo, -qhi]`` on the page's one
    ``[lo, -hi]`` array, verdict for verdict the scalar predicate."""

    @KERNEL_SETTINGS
    @given(rects=edge_boxes(2), queries=edge_boxes(2, max_size=4))
    def test_ge_on_the_cover_array_is_the_scalar_within(self, rects, queries):
        fused = kernels.fuse_boxes_cover(*_bounds(rects))
        family, compare = _TESTS["within"]
        expect = [[ORACLES["within"](r, q) for r in rects] for q in queries]
        for q, want in zip(queries, expect):
            assert compare(fused, qvec_for(family, q)).all(axis=1).tolist() == want
        # Batch query vectors, with the NaN row of a query that has no box.
        qlo = np.array([q.lo for q in queries] + [(np.nan, np.nan)])
        qhi = np.array([q.hi for q in queries] + [(np.nan, np.nan)])
        qvecs = _QVEC_BUILDERS[family](qlo, qhi)
        batch = compare(fused[None, :, :], qvecs[:, None, :]).all(axis=2)
        assert batch.tolist() == expect + [[False] * len(rects)]

    @KERNEL_SETTINGS
    @given(rects=edge_boxes(2), queries=edge_boxes(2, max_size=4))
    def test_row_source_answers_containment_exactly(self, rects, queries):
        """Through the production paths: ``hits`` on a cold page, a
        deferred ``row`` and ``flush``, and the promoted batch mask."""
        lst = SoAList(rects)
        for q in queries:
            want = [i for i, r in enumerate(rects) if ORACLES["within"](r, q)]
            src = RowSource(ColumnarCache(), q)
            assert src.hits(1, "r", "within", lst, *BOXES) == want
            src = RowSource(ColumnarCache(), q)
            assert src.row(1, "r", "within", lst, *BOXES) is None
            assert src.flush()[(1, "r")] == want
        cache = ColumnarCache()
        workload = cache.begin_workload(queries + [None])
        workload.promote_visits = 1  # the first visit builds the batch mask
        for i, q in enumerate(queries):
            workload.set_query(i)
            want = [j for j, r in enumerate(rects) if ORACLES["within"](r, q)]
            assert RowSource(cache, q).hits(1, "r", "within", lst, *BOXES) == want
        starts, _ = workload._rows[(1, "r")]
        assert starts[-1] == starts[-2]  # the NaN row selects nothing
