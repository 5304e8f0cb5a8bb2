"""Counters, gauges and histograms for the testbed.

The registry follows the usual metrics vocabulary: a :class:`Counter`
is a monotone total, a :class:`Gauge` a point-in-time value, a
:class:`Histogram` buckets observations into fixed upper bounds *and*
retains the raw samples so the percentile summaries (p50/p90/p99/max)
are exact rather than bucket-interpolated — the runs here observe at
most a few hundred thousand small integers, so exactness is cheap.

A histogram is JSON-friendly via ``as_dict`` so it can be embedded in
a :class:`repro.obs.export.RunReport`.
"""

from __future__ import annotations

import math

__all__ = [
    "DEFAULT_ACCESS_BUCKETS",
    "LATENCY_BUCKETS_SECONDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SUMMARY_KEYS",
]

#: Power-of-two upper bounds for page-access histograms: queries cost a
#: handful of accesses at laptop scale and a few thousand at the paper's
#: 100 000 records, so a geometric ladder keeps every regime resolved.
DEFAULT_ACCESS_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)

#: A 1-2.5-5 decade ladder from one microsecond to ten seconds, for
#: physical-IO latencies.  :data:`DEFAULT_ACCESS_BUCKETS` counts page
#: accesses and resolves nothing below 1, which is useless for timings:
#: a cached ``pread`` lands around 1-10 µs, a WAL ``fsync`` anywhere
#: from ~50 µs (battery-backed cache) to tens of milliseconds (spinning
#: disk), and a checkpoint can take whole seconds.  Three buckets per
#: decade keeps every one of those regimes distinguishable without
#: inflating export size.
LATENCY_BUCKETS_SECONDS = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A named monotone counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A point-in-time value: set directly, or computed by a callback.

    Callback gauges (``Gauge("pool.resident", fn=lambda: len(frames))``)
    cost nothing on the hot path — the value is only computed when the
    gauge is *read* (by the flight recorder's sampling loop or an
    export), which is the trick real metrics systems use to watch a
    buffer pool without instrumenting every admission and eviction.
    """

    __slots__ = ("name", "_value", "_fn")

    def __init__(self, name: str, fn=None):
        self.name = name
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ValueError(f"gauge {self.name!r} is computed by a callback")
        self._value = float(value)

    def set_function(self, fn) -> None:
        """(Re)bind the callback; the latest binding wins."""
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


#: Keys of :meth:`Histogram.summary`, in order — the shape every
#: timeline, ``io_stats`` and run-report validator checks.
SUMMARY_KEYS = ("count", "sum", "min", "max", "mean", "p50", "p90", "p99")


class Histogram:
    """Fixed-bucket histogram with exact percentile summaries.

    ``buckets`` are inclusive upper bounds; one overflow bucket
    (``+Inf``) is always appended.  Observations are also kept verbatim
    so :meth:`percentile` is the exact nearest-rank statistic.  The
    statistics only ever sort a *copy* of them (copying a list is
    atomic under the GIL): the flight recorder summarises from its own
    thread while the workload thread keeps observing, and an in-place
    sort must never race with an append.
    """

    __slots__ = ("name", "buckets", "bucket_counts", "_samples")

    def __init__(self, name: str, buckets: tuple[float, ...] = DEFAULT_ACCESS_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.name = name
        self.buckets = tuple(buckets)
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self._samples: list[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                break
        else:
            self.bucket_counts[-1] += 1
        self._samples.append(value)

    # -- summary statistics ----------------------------------------------

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def sum(self) -> float:
        return sum(self._samples)

    @property
    def min(self) -> float:
        return min(self._samples) if self._samples else 0.0

    @property
    def max(self) -> float:
        return max(self._samples) if self._samples else 0.0

    @property
    def mean(self) -> float:
        return self.sum / self.count if self._samples else 0.0

    @staticmethod
    def _nearest_rank(ordered: list, q: float) -> float:
        if not ordered:
            return 0.0
        return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]

    def percentile(self, q: float) -> float:
        """Exact nearest-rank percentile, ``q`` in [0, 100]."""
        if not 0 <= q <= 100:
            raise ValueError("q must be between 0 and 100")
        return self._nearest_rank(sorted(self._samples), q)

    def summary(self) -> dict:
        """The scalar summary (:data:`SUMMARY_KEYS`) of one point in time."""
        ordered = sorted(self._samples)
        n = len(ordered)
        total = sum(ordered)
        return {
            "count": n,
            "sum": total,
            "min": ordered[0] if n else 0.0,
            "max": ordered[-1] if n else 0.0,
            "mean": total / n if n else 0.0,
            "p50": self._nearest_rank(ordered, 50),
            "p90": self._nearest_rank(ordered, 90),
            "p99": self._nearest_rank(ordered, 99),
        }

    def as_dict(self) -> dict:
        out = self.summary()
        bounds = [*map(float, self.buckets), math.inf]
        out["buckets"] = [
            {"le": "+Inf" if math.isinf(le) else le, "count": n}
            for le, n in zip(bounds, self.bucket_counts)
        ]
        return out

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count}, mean={self.mean:.2f})"


class MetricsRegistry:
    """Get-or-create registry of counters, gauges and histograms."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            counter = self._counters[name] = Counter(name)
            return counter

    def gauge(self, name: str, fn=None) -> Gauge:
        """Get or create a gauge; a non-``None`` ``fn`` rebinds it."""
        try:
            gauge = self._gauges[name]
        except KeyError:
            gauge = self._gauges[name] = Gauge(name, fn)
            return gauge
        if fn is not None:
            gauge.set_function(fn)
        return gauge

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_ACCESS_BUCKETS
    ) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            histogram = self._histograms[name] = Histogram(name, buckets)
            return histogram

    def counters(self) -> dict[str, Counter]:
        """A snapshot of all registered counters by name."""
        return dict(self._counters)

    def gauges(self) -> dict[str, Gauge]:
        """A snapshot of all registered gauges by name."""
        return dict(self._gauges)

    def histograms(self) -> dict[str, Histogram]:
        """A snapshot of all registered histograms by name."""
        return dict(self._histograms)
