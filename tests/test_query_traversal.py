"""Property tests for the batched traversal.

The batched query path (:mod:`repro.query.traverse`: the R-tree's
plan/replay, the other trees' one charged descent, the scans'
read-then-batch) promises more than equal results: the full ordered
stream of page accesses it issues must equal the scalar descent's,
access for access.  These tests pin
that oracle across the whole fuzz matrix: every structure is built
twice from identical data, once put on its scalar reference descent
(``tests/reference_query.py``, which must not reach the batched path),
every query file runs through the batched driver on both — and once
more one public call at a time with no registered workload, the path
ad-hoc queries take — and the two observer event streams (pid, kind,
read/write, charged) are compared as ordered sequences.  A batched
traversal that visited one extra page, skipped one, or reordered two
reads fails immediately.

A second pass forces the workload promotion threshold to 1 page visit
(``promote_visits_for`` patched), driving every page through the CSR
batch verdicts and the cross-workload promotion hints on the very first
query — the paths a cold default threshold would leave underexercised
at these tiny scales.
"""

import contextlib
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.testbed import standard_pam_factories
from repro.geometry.rect import Rect
from repro.query import columnar
from repro.query.driver import run_query_file
from repro.storage.pagestore import PageStore
from repro.verify.fuzz import STRUCTURES, _point_pool, _rect_pool
from repro.workloads import generate_partial_match_queries
from tests.reference_query import reference, scalar_only

coordinate = st.floats(0.0, 1.0, exclude_max=True, allow_nan=False)


@st.composite
def query_rects(draw):
    out = []
    for _ in range(draw(st.integers(2, 5))):
        a, b = draw(coordinate), draw(coordinate)
        c, d = draw(coordinate), draw(coordinate)
        out.append(Rect((min(a, b), min(c, d)), (max(a, b), max(c, d))))
    return out


class _PidTrace:
    """Observer recording the full ordered access stream of a store."""

    def __init__(self):
        self.events = []

    def on_operation_begin(self, store):
        self.events.append("op")

    def on_access(self, store, pid, kind, rw, charged, reason):
        self.events.append((pid, str(kind), rw, charged))


def _traced_pass(name, spec, data, queries, scalar, registered, page_size=512):
    """Build one structure and run the query files under a pid trace —
    through the batched driver when ``registered``, else one public call
    per query with no workload on the store."""
    store = PageStore(page_size)
    method = spec["factory"](store)
    for rid, item in enumerate(data):
        method.insert(item, rid)
    if scalar:
        reference(method)
    trace = _PidTrace()
    store.observer = trace
    if spec["kind"] == "pam":
        files = [("range", method.range_query)]
    else:
        files = [("intersection", method.intersection), ("enclosure", method.enclosure)]
    with scalar_only() if scalar else contextlib.nullcontext():
        if registered:
            outcomes = [run_query_file(method, kind, queries, op) for kind, op in files]
        else:
            outcomes = [[op(query) for query in queries] for _, op in files]
    return trace.events, outcomes, repr(store.stats.snapshot())


def _assert_frontier_identity(seed, scale, queries):
    points = _point_pool(scale, seed)
    rects = _rect_pool(scale, seed + 1)
    for name, spec in STRUCTURES.items():
        data = points if spec["kind"] == "pam" else rects
        for registered in (True, False):
            label = name if registered else f"{name} (unregistered)"
            v_events, v_out, v_stats = _traced_pass(
                name, spec, data, queries, False, registered
            )
            s_events, s_out, s_stats = _traced_pass(
                name, spec, data, queries, True, registered
            )
            assert v_out == s_out, f"{label}: outcomes diverge"
            assert v_stats == s_stats, f"{label}: store statistics diverge"
            if v_events != s_events:
                n = min(len(s_events), len(v_events))
                idx = next((i for i in range(n) if s_events[i] != v_events[i]), n)
                raise AssertionError(
                    f"{label}: access stream diverges at event {idx} "
                    f"(scalar {len(s_events)} events, vector {len(v_events)})"
                )


FUZZ_SETTINGS = settings(
    max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestFrontierOracle:
    @FUZZ_SETTINGS
    @given(
        seed=st.integers(0, 10**6),
        scale=st.integers(30, 90),
        queries=query_rects(),
    )
    def test_batched_frontier_equals_scalar_descent(self, seed, scale, queries):
        _assert_frontier_identity(seed, scale, queries)

    @settings(
        max_examples=3, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 10**6), queries=query_rects())
    def test_frontier_identity_under_forced_promotion(self, seed, queries):
        with mock.patch.object(columnar, "promote_visits_for", lambda size: 1):
            assert columnar.QueryWorkload(queries).promote_visits == 1
            _assert_frontier_identity(seed, 60, queries)


class TestWorkloadLifecycle:
    def test_hot_pid_hints_do_not_change_verdicts(self):
        """A pid hint only moves promotion earlier — never the answer."""
        points = _point_pool(60, 7)
        queries = [
            Rect((0.1, 0.1), (0.6, 0.6)),
            Rect((0.3, 0.2), (0.9, 0.8)),
            Rect((0.0, 0.5), (0.4, 0.9)),
        ]
        spec = STRUCTURES["BANG"]
        store = PageStore(512)
        method = spec["factory"](store)
        for rid, p in enumerate(points):
            method.insert(p, rid)
        cache = store.columnar
        assert isinstance(cache, columnar.ColumnarCache)
        first = run_query_file(method, "range", queries, method.range_query)
        assert cache._hot_pids, "first workload should leave promotion hints"
        hinted = run_query_file(method, "range", queries, method.range_query)
        # Costs legitimately differ between consecutive runs (the search
        # path buffer keeps recently visited pages); the hint contract is
        # about the answers.
        assert [r for _, r in hinted] == [r for _, r in first]

    @pytest.mark.parametrize("name", sorted(standard_pam_factories()))
    def test_partial_match_file_rides_the_registered_batch(self, name):
        """``_workload_rects("pm")`` and ``partial_match`` must produce
        equal boxes, or ``RowSource`` silently drops the batch and every
        page goes cold.  Seen from inside the file (``end_query_workload``
        drops the batch): every scan box equals the registered one, and
        the batch was asked for rows."""
        store = PageStore(512)
        method = standard_pam_factories()[name](store)
        for rid, p in enumerate(_point_pool(300, 11)):
            method.insert(p, rid)
        queries = generate_partial_match_queries(0, count=6) + [{0: 0.25, 1: 0.5}]
        scan = method._range_query
        seen = []

        def spy(rect):
            workload = store.columnar.workload
            seen.append(workload.current == rect)
            result = scan(rect)
            seen.append(bool(workload._visits or workload._rows))
            return result

        with mock.patch.object(method, "_range_query", spy):
            outcomes = run_query_file(method, "pm", queries, method.partial_match)
        assert len(outcomes) == len(queries)
        assert seen == [True] * (2 * len(queries))

    def test_invalidate_drops_hot_pid_hint(self):
        cache = columnar.ColumnarCache()
        cache._hot_pids.update({3, 5})
        cache.invalidate(3)
        assert cache._hot_pids == {5}
