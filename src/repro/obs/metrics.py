"""Histograms with exact percentile summaries.

A :class:`Histogram` keeps its observations verbatim, so the percentile
summaries (p50/p90/p99/max) are exact rather than bucket-interpolated —
the runs here observe at most a few hundred thousand small numbers, so
exactness is cheap.

A histogram is JSON-friendly via ``as_dict`` so it can be embedded in
a :class:`repro.obs.export.RunReport`.
"""

from __future__ import annotations

import math
from bisect import bisect_right

__all__ = [
    "DEFAULT_ACCESS_BUCKETS",
    "Histogram",
    "SUMMARY_KEYS",
]

#: Power-of-two upper bounds for page-access histograms: queries cost a
#: handful of accesses at laptop scale and a few thousand at the paper's
#: 100 000 records, so a geometric ladder keeps every regime resolved.
DEFAULT_ACCESS_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)

#: Keys of :meth:`Histogram.summary`, in order — the shape the
#: ``io_stats`` and run-report validators check.
SUMMARY_KEYS = ("count", "sum", "min", "max", "mean", "p50", "p90", "p99")


class Histogram:
    """Verbatim observations with exact nearest-rank summaries."""

    __slots__ = ("name", "_samples")

    def __init__(self, name: str):
        self.name = name
        self._samples: list[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
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
        return self._summary(sorted(self._samples))

    def _summary(self, ordered: list) -> dict:
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
        """The summary plus per-bucket counts over
        :data:`DEFAULT_ACCESS_BUCKETS`: each bucket counts the samples in
        ``(previous bound, le]``, and a final ``+Inf`` bucket the rest."""
        ordered = sorted(self._samples)
        out = self._summary(ordered)
        buckets = []
        below = 0
        for le in DEFAULT_ACCESS_BUCKETS:
            upto = bisect_right(ordered, le)
            buckets.append({"le": float(le), "count": upto - below})
            below = upto
        buckets.append({"le": "+Inf", "count": len(ordered) - below})
        out["buckets"] = buckets
        return out

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count}, mean={self.mean:.2f})"
