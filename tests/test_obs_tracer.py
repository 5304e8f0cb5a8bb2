"""Tests for the operation-scoped tracer and the store observer hook."""

from repro.core.comparison import build_pam, build_sam, run_queries
from repro.obs.tracer import Tracer
from repro.pam.twolevelgrid import TwoLevelGridFile
from repro.sam.rtree import RTree
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore

from tests.conftest import STANDARD_QUERIES, make_points, make_rects


class TestSpans:
    def test_one_span_per_operation(self, store):
        tracer = Tracer().attach(store)
        tracer.set_context(structure="S", op="insert")
        pids = [store.allocate(PageKind.DATA, i) for i in range(3)]
        for pid in pids:
            store.begin_operation()
            store.read(pid)
            store.write(pid)
        spans = tracer.finish()
        assert [s.op for s in spans] == ["insert"] * 3
        assert [s.index for s in spans] == [0, 1, 2]
        assert all(s.accesses == 2 for s in spans)

    def test_span_counters_match_store_stats(self, store):
        tracer = Tracer().attach(store)
        d = store.allocate(PageKind.DATA, "d")
        i = store.allocate(PageKind.DIRECTORY, "i")
        store.begin_operation()
        store.read(d)
        store.read(i)
        store.write(d)
        [span] = tracer.finish()
        assert span.stats() == store.stats
        assert span.data_reads == 1 and span.dir_reads == 1
        assert span.data_writes == 1 and span.dir_writes == 0

    def test_free_accesses_counted_separately(self, store):
        tracer = Tracer().attach(store)
        pinned = store.allocate(PageKind.DIRECTORY, "root")
        store.pin(pinned)
        pid = store.allocate(PageKind.DATA, "x")
        store.begin_operation()
        store.read(pinned)  # pinned
        store.read(pid)  # charged
        store.read(pid)  # buffered
        store.write(pid)  # charged
        store.write(pid)  # dedup
        [span] = tracer.finish()
        assert span.accesses == 2
        assert span.free_accesses == 3

    def test_set_context_closes_open_span(self, store):
        tracer = Tracer().attach(store)
        pid = store.allocate(PageKind.DATA, "x")
        tracer.set_context(structure="A", op="insert")
        store.begin_operation()
        store.read(pid)
        tracer.set_context(structure="B", op="query")
        store.begin_operation()
        store.read(pid)
        spans = tracer.finish()
        assert [(s.structure, s.op) for s in spans] == [
            ("A", "insert"),
            ("B", "query"),
        ]

    def test_access_outside_bracket_opens_implicit_span(self, store):
        tracer = Tracer().attach(store)
        tracer.set_context(structure="S", op="setup")
        pid = store.allocate(PageKind.DIRECTORY, "root")
        store.write(pid)  # no begin_operation was issued
        [span] = tracer.finish()
        assert span.op == "setup" and span.dir_writes == 1

    def test_tracer_stats_totals(self, store):
        tracer = Tracer().attach(store)
        pids = [store.allocate(PageKind.DATA, i) for i in range(4)]
        for pid in pids:
            store.begin_operation()
            store.read(pid)
        assert tracer.stats() == store.stats


class TestZeroBehaviourChange:
    """Satellite: tracing must not change a single charged access."""

    def _pam_stats(self, tracer):
        points = make_points(300, seed=5)
        pam = build_pam(
            lambda s, dims=2: TwoLevelGridFile(s, dims), points, tracer=tracer
        )
        run_queries("pam", pam, seed=11)
        for rect in STANDARD_QUERIES:
            pam.range_query(rect)
        return pam.store.stats

    def _sam_stats(self, tracer):
        rects = make_rects(200, seed=7)
        sam = build_sam(lambda s, dims=2: RTree(s, dims), rects, tracer=tracer)
        run_queries("sam", sam, seed=13)
        return sam.store.stats

    def test_grid_identical_with_and_without_tracer(self):
        untraced = self._pam_stats(None)
        traced = self._pam_stats(Tracer())
        assert traced == untraced

    def test_rtree_identical_with_and_without_tracer(self):
        untraced = self._sam_stats(None)
        traced = self._sam_stats(Tracer())
        assert traced == untraced

    def test_tracer_spans_sum_to_store_stats(self):
        tracer = Tracer()
        stats = self._pam_stats(tracer)
        assert tracer.stats() == stats


class TestObserverHookOrdering:
    def test_begin_fires_before_buffer_rotation(self):
        """The observer sees the operation boundary before the tail rotates."""
        seen = []

        class Probe:
            def on_operation_begin(self, store):
                # _buffer_cur still holds the previous operation's pages.
                seen.append(sorted(store._buffer_cur))

            def on_access(self, store, pid, kind, rw, charged, reason):
                pass

        store = PageStore()
        store.observer = Probe()
        pid = store.allocate(PageKind.DATA, "x")
        store.begin_operation()
        store.read(pid)
        store.begin_operation()
        assert seen == [[], [pid]]
