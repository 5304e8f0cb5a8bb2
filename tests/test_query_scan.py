"""In-page verdict rows: caching, invalidation and promotion.

Covers the contracts the batched query path rests on, driven through
:class:`repro.query.traverse.RowSource` and
:func:`~repro.query.traverse.data_hit_rows` over struct-of-arrays pages
(the per-container view caching itself is pinned in ``test_soa.py``):

* workload hit-row caches (batch promotion and the current-query memo)
  invalidate with the page on every ``write`` and ``free``;
* promoted CSR rows equal the single-query rows;
* a batched driver pass answers exactly what unbatched queries answer; and
* the differential fuzzer (inserts, deletes, queries, invariant audits)
  stays green with the columnar caches enabled — invalidation under
  arbitrary mutation sequences, checked against the brute-force oracle.
"""

import numpy as np
import pytest

from repro.geometry.rect import Rect
from repro.query import traverse
from repro.query.columnar import QueryWorkload
from repro.query.driver import run_query_file
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore
from repro.storage.soa import SoAList
from repro.verify.fuzz import STRUCTURES, make_ops, run_ops, structure_seed

ROWKEY = "vrects:isect"


def data_page(store, rows):
    pid = store.allocate(PageKind.DATA, rows)
    store.write(pid)
    return pid


class _Unbatched(traverse.RowSource):
    """A row source whose level batch must stay empty: ``hits`` evaluates
    a cold page on the spot, never deferring it into a batch of one."""

    __slots__ = ()

    def flush(self):
        assert not self._pend, "hits deferred the page"
        return super().flush()


def isect_row(store, pid, values, query):
    """Ascending indices of ``values`` intersecting ``query``, via RowSource."""
    src = traverse.RowSource(store.columnar, query)
    tag, build = traverse.VALUES
    row = src.row(pid, ROWKEY, "isect", values, tag, build)
    return src.flush()[(pid, ROWKEY)] if row is None else row


class TestColumnarInvalidation:
    def test_workload_rows_invalidate_with_the_page(self):
        store = PageStore()
        values = SoAList(
            [
                (Rect((0.0, 0.0), (0.3, 0.3)), 1),
                (Rect((0.5, 0.5), (0.9, 0.9)), 2),
            ]
        )
        pid = data_page(store, values)
        queries = [Rect((0.0, 0.0), (0.6, 0.6)), Rect((0.4, 0.4), (1.0, 1.0))]
        workload = store.columnar.begin_workload(queries)
        workload.promote_visits = 1  # promote on first visit
        workload.set_query(0)
        assert isect_row(store, pid, values, queries[0]) == [0, 1]
        assert (pid, ROWKEY) in workload._rows
        values.append((Rect((0.95, 0.95), (1.0, 1.0)), 3))
        store.write(pid)
        assert (pid, ROWKEY) not in workload._rows
        workload.set_query(1)
        # The appended rect is visible immediately — stale rows are gone.
        assert isect_row(store, pid, values, queries[1]) == [1, 2]

    def test_free_drops_cached_arrays(self):
        store = PageStore()
        values = SoAList([(Rect((0.0, 0.0), (0.4, 0.4)), 1)])
        pid = data_page(store, values)
        queries = [Rect((0.1, 0.1), (0.9, 0.9))]
        workload = store.columnar.begin_workload(queries)
        workload.promote_visits = 1
        workload.set_query(0)
        assert isect_row(store, pid, values, queries[0]) == [0]
        store.columnar._hot_pids.add(pid)
        assert (pid, ROWKEY) in workload._rows and (pid, ROWKEY) in workload._cur
        store.free(pid)
        assert not workload._rows and not workload._cur
        assert pid not in store.columnar._hot_pids

    def test_current_query_memo_resets_between_queries(self):
        store = PageStore()
        values = SoAList([(Rect((0.0, 0.0), (0.3, 0.3)), 1)])
        pid = data_page(store, values)
        queries = [Rect((0.0, 0.0), (0.6, 0.6)), Rect((0.7, 0.7), (1.0, 1.0))]
        workload = store.columnar.begin_workload(queries)
        workload.set_query(0)
        assert isect_row(store, pid, values, queries[0]) == [0]
        assert workload._cur  # memoised for intra-query revisits
        assert isect_row(store, pid, values, queries[0]) == [0]
        workload.set_query(1)
        assert not workload._cur
        assert isect_row(store, pid, values, queries[1]) == []

    def test_match_records_caches_and_rebuilds_on_write(self):
        store = PageStore()
        records = SoAList([((0.1, 0.1), "a"), ((0.6, 0.6), "b")])
        pid = data_page(store, records)
        q = Rect((0.0, 0.0), (0.5, 0.5))
        assert traverse.data_hit_rows(store, q, [(pid, records)]) == {pid: [0]}
        assert records.view_builds == 1  # the fused view lives on the page
        records.append(((0.2, 0.2), "c"))
        store.write(pid)
        # The append spliced the held view: it has the new row already.
        assert records.view_builds == 1 and records._views["pts"][0] == 3
        assert traverse.data_hit_rows(store, q, [(pid, records)]) == {pid: [0, 2]}

    def test_in_place_mutation_without_write_is_caught_by_length_guard(self):
        # Every real mutation path goes through the SoAList mutators and
        # writes the page; the length guard is the net if one ever didn't.
        store = PageStore()
        records = SoAList([((0.1, 0.1), "a")])
        pid = data_page(store, records)
        q = Rect((0.0, 0.0), (1.0, 1.0))
        assert traverse.data_hit_rows(store, q, [(pid, records)]) == {pid: [0]}
        list.append(records, ((0.2, 0.2), "b"))  # no invalidation on purpose
        assert traverse.data_hit_rows(store, q, [(pid, records)]) == {pid: [0, 1]}


class TestWorkloadPromotion:
    def test_promotion_answers_match_single_query_rows(self):
        rng = np.random.default_rng(7)
        values = SoAList(
            (Rect(tuple(lo), tuple(lo + 0.1)), i)
            for i, lo in enumerate(rng.uniform(0, 0.9, size=(15, 2)))
        )
        queries = [
            Rect(tuple(lo), tuple(lo + 0.3))
            for lo in rng.uniform(0, 0.7, size=(9, 2))
        ]
        cold = PageStore()
        pid_c = data_page(cold, values)
        hot = PageStore()
        pid_h = data_page(hot, values)
        wl = hot.columnar.begin_workload(queries)
        wl.promote_visits = 1
        for i, q in enumerate(queries):
            wl.set_query(i)
            promoted = isect_row(hot, pid_h, values, q)
            assert (pid_h, ROWKEY) in wl._rows
            single = isect_row(cold, pid_c, values, q)
            assert promoted == single, i
            assert single == [
                j for j, (rect, _) in enumerate(values) if rect.intersects(q)
            ]

    def test_promotion_threshold_scales_with_batch_size(self):
        assert QueryWorkload([None] * 8).promote_visits == 4
        assert QueryWorkload([None] * 160).promote_visits == 20


class TestScalarVectorIdentity:
    def test_driver_batches_equal_unbatched_queries(self):
        spec = STRUCTURES["GRID"]
        rng = np.random.default_rng(3)
        points = [tuple(p) for p in rng.uniform(0, 1, size=(150, 2))]
        queries = [
            Rect(tuple(lo), tuple(np.minimum(lo + 0.2, 1.0)))
            for lo in rng.uniform(0, 1, size=(12, 2))
        ]
        store = PageStore()
        pam = spec["factory"](store)
        for rid, p in enumerate(points):
            pam.insert(p, rid)
        batched = run_query_file(pam, "range", queries, pam.range_query)
        assert store.columnar.workload is None  # deregistered afterwards
        unbatched = [pam.range_query(q) for q in queries]
        for (cost, hits), alone, q in zip(batched, unbatched, queries):
            expected = sorted((p, i) for i, p in enumerate(points) if q.contains_point(p))
            assert sorted(hits) == sorted(alone) == expected

    def test_one_flush_cuts_rows_at_page_boundaries(self):
        """Pages deferred into one kernel call each get their own
        ascending row, equal to the scalar predicate and to what
        ``hits`` answers for the page alone, without deferring it."""
        rng = np.random.default_rng(11)
        store = PageStore()
        tag, build = traverse.VALUES
        pages = []
        for n in (1, 7, 3, 12, 5):
            values = SoAList(
                (Rect(tuple(lo), tuple(lo + 0.2)), i)
                for i, lo in enumerate(rng.uniform(0, 0.8, size=(n, 2)))
            )
            pages.append((data_page(store, values), values))
        for lo in rng.uniform(0, 0.7, size=(20, 2)):
            q = Rect(tuple(lo), tuple(lo + 0.3))
            src = traverse.RowSource(store.columnar, q)
            for pid, values in pages:
                assert src.row(pid, ROWKEY, "isect", values, tag, build) is None
            rows = src.flush()
            for pid, values in pages:
                expected = [j for j, (rect, _) in enumerate(values) if rect.intersects(q)]
                assert rows[(pid, ROWKEY)] == expected
                alone = _Unbatched(store.columnar, q)
                assert alone.hits(pid, ROWKEY, "isect", values, tag, build) == expected
                assert not alone._pend and not alone._pend_keys

    def test_raising_start_file_leaves_no_workload_registered(self):
        class Exploding:
            def start_file(self, method, kind):
                raise RuntimeError("recorder refused to attach")

            def end_file(self):
                raise AssertionError("end_file without a started file")

        store = PageStore()
        pam = STRUCTURES["GRID"]["factory"](store)
        pam.insert((0.5, 0.5), 0)
        with pytest.raises(RuntimeError, match="refused"):
            run_query_file(
                pam, "range", [Rect.unit(2)], pam.range_query, explain=Exploding()
            )
        assert store.columnar.workload is None


@pytest.mark.parametrize("name", ["GRID", "BANG", "R", "T-BANG"])
def test_fuzz_with_columnar_caches_and_audits(name):
    spec = STRUCTURES[name]
    ops = make_ops(spec, 80, structure_seed(name, 31))
    failure = run_ops(spec, ops, audit_every=10)
    assert failure is None, failure
