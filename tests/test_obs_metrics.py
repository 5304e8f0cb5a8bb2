"""Tests for counters, gauges, histograms and the registry."""

import pytest

from repro.obs.metrics import (
    DEFAULT_ACCESS_BUCKETS,
    LATENCY_BUCKETS_SECONDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc(self):
        c = Counter("ops")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_monotone(self):
        with pytest.raises(ValueError):
            Counter("ops").inc(-1)


class TestHistogram:
    def test_empty_summary(self):
        h = Histogram("empty")
        s = h.summary()
        assert s["count"] == 0 and s["p99"] == 0.0 and s["mean"] == 0.0

    def test_bucketing(self):
        h = Histogram("x", buckets=(1, 2, 4))
        for v in (0, 1, 2, 3, 4, 100):
            h.observe(v)
        # le=1: {0,1}, le=2: {2}, le=4: {3,4}, +Inf: {100}
        assert h.bucket_counts == [2, 1, 2, 1]
        bucket_dump = h.as_dict()["buckets"]
        assert bucket_dump[-1]["le"] == "+Inf" and bucket_dump[-1]["count"] == 1

    def test_exact_percentiles_nearest_rank(self):
        h = Histogram("x")
        for v in range(1, 101):  # 1..100
            h.observe(v)
        assert h.percentile(50) == 50
        assert h.percentile(90) == 90
        assert h.percentile(99) == 99
        assert h.percentile(100) == 100
        assert h.percentile(0) == 1  # lowest sample

    def test_percentiles_unsorted_input(self):
        h = Histogram("x")
        for v in (9, 1, 5, 3, 7):
            h.observe(v)
        assert h.percentile(50) == 5
        assert h.max == 9 and h.min == 1
        h.observe(2)  # stays correct after further inserts
        assert h.percentile(50) == 3

    def test_summary_fields(self):
        h = Histogram("x")
        for v in (2, 4, 6):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3 and s["sum"] == 12 and s["mean"] == 4.0
        assert s["min"] == 2 and s["max"] == 6

    def test_bad_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("x", buckets=())
        with pytest.raises(ValueError):
            Histogram("x", buckets=(4, 2, 1))

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            Histogram("x").percentile(101)

    def test_default_buckets_ascending(self):
        assert list(DEFAULT_ACCESS_BUCKETS) == sorted(DEFAULT_ACCESS_BUCKETS)

    def test_latency_preset_ascending_and_spans_us_to_seconds(self):
        assert list(LATENCY_BUCKETS_SECONDS) == sorted(LATENCY_BUCKETS_SECONDS)
        assert LATENCY_BUCKETS_SECONDS[0] <= 1e-6  # SSD-cache-hit preads
        assert LATENCY_BUCKETS_SECONDS[-1] >= 10.0  # multi-second checkpoints

    def test_latency_preset_percentiles_stay_exact(self):
        """Bucket boundaries never coarsen percentiles: observations are
        kept verbatim, so p99 of a latency histogram is the exact
        nearest-rank sample even between bucket bounds."""
        h = Histogram("fsync_seconds", buckets=LATENCY_BUCKETS_SECONDS)
        samples = [0.0000017 * (i + 1) for i in range(100)]  # off-boundary
        for v in samples:
            h.observe(v)
        assert h.percentile(50) == samples[49]
        assert h.percentile(99) == samples[98]
        assert h.percentile(100) == samples[99]
        # and the bucket counts add up to the sample count regardless
        assert sum(h.bucket_counts) == 100


class TestGauge:
    def test_direct_set(self):
        g = Gauge("pool.resident")
        assert g.value == 0.0
        g.set(7)
        assert g.value == 7.0

    def test_callback_gauge_reads_live_state(self):
        frames = []
        g = Gauge("pool.resident", fn=lambda: len(frames))
        assert g.value == 0.0
        frames.extend([1, 2, 3])
        assert g.value == 3.0

    def test_set_on_callback_gauge_rejected(self):
        g = Gauge("x", fn=lambda: 1)
        with pytest.raises(ValueError, match="callback"):
            g.set(5)

    def test_rebinding_latest_wins(self):
        g = Gauge("x")
        g.set(2)
        g.set_function(lambda: 9)
        assert g.value == 9.0


class TestRegistry:
    def test_get_or_create(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.histogram("h") is r.histogram("h")
        assert r.gauge("g") is r.gauge("g")

    def test_gauge_rebind_through_registry(self):
        r = MetricsRegistry()
        g = r.gauge("pool.resident", lambda: 1)
        assert r.gauge("pool.resident", lambda: 5) is g
        assert g.value == 5.0
