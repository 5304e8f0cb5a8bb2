"""Tests for histograms: exact summaries and export-time bucketing."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import DEFAULT_ACCESS_BUCKETS, Histogram


def _brute_force_buckets(samples) -> list[dict]:
    """Count each sample into ``(prev, le]`` of the default ladder."""
    bounds = [*DEFAULT_ACCESS_BUCKETS, math.inf]
    counts = [0] * len(bounds)
    for value in samples:
        prev = -math.inf
        for i, le in enumerate(bounds):
            if prev < value <= le:
                counts[i] += 1
            prev = le
    return [
        {"le": "+Inf" if math.isinf(le) else float(le), "count": n}
        for le, n in zip(bounds, counts)
    ]


#: Samples on every bound, just either side of it, 0, and past 4096.
_EDGES = sorted(
    {0, *DEFAULT_ACCESS_BUCKETS}
    | {b + 1 for b in DEFAULT_ACCESS_BUCKETS}
    | {b - 0.5 for b in DEFAULT_ACCESS_BUCKETS}
    | {5000, 100_000}
)


class TestHistogram:
    def test_empty_summary(self):
        h = Histogram("x")
        s = h.summary()
        assert s["count"] == 0 and s["p99"] == 0.0 and s["mean"] == 0.0
        assert all(b["count"] == 0 for b in h.as_dict()["buckets"])

    def test_bucketing(self):
        h = Histogram("x")
        for v in (0, 1, 2, 3, 4, 100, 4096, 4097):
            h.observe(v)
        counts = {b["le"]: b["count"] for b in h.as_dict()["buckets"]}
        # le=1: {0,1}, le=2: {2}, le=4: {3,4}, le=128: {100},
        # le=4096: {4096}, +Inf: {4097}
        assert counts == {
            **{float(le): 0 for le in DEFAULT_ACCESS_BUCKETS},
            1.0: 2, 2.0: 1, 4.0: 2, 128.0: 1, 4096.0: 1, "+Inf": 1,
        }

    @given(
        st.lists(
            st.one_of(
                st.sampled_from(_EDGES),
                st.integers(min_value=0, max_value=10_000),
                st.floats(min_value=0, max_value=10_000, allow_nan=False),
            ),
            max_size=60,
        )
    )
    def test_export_buckets_match_brute_force(self, samples):
        h = Histogram("x")
        for v in samples:
            h.observe(v)
        out = h.as_dict()
        assert out["buckets"] == _brute_force_buckets(samples)
        assert sum(b["count"] for b in out["buckets"]) == out["count"] == len(samples)

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

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            Histogram("x").percentile(101)

    def test_default_buckets_ascending(self):
        assert list(DEFAULT_ACCESS_BUCKETS) == sorted(DEFAULT_ACCESS_BUCKETS)
