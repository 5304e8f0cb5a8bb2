"""Per-store IO latency and the ``io_stats()`` schema.

Everything else in :mod:`repro.obs` measures *logical* cost — charged
page accesses, deterministic under a fixed seed.  The durable backend
(:mod:`repro.storage.disk`) adds *physical* cost: preads, pwrites and
above all fsyncs, whose latency distribution (not its sum) decides
whether a build takes 1.4 s or 42 s.

A :class:`Telemetry` is one store's set of latency
:class:`~repro.obs.metrics.Histogram`\\ s.  With ``REPRO_TELEMETRY=1``
:func:`repro.storage.factory.make_store` gives every disk store a fresh
one, so ``io_stats()["latency"]`` — and the ``storage.latency`` block a
run report carries per structure — counts that store's IO and nothing
else.  When disabled, no instrumentation is installed anywhere and the
hot paths are untouched.  Telemetry is strictly additive: charged
:class:`~repro.core.stats.AccessStats`, query results, explain traces
and structure snapshots are bit-identical with it on or off.

:func:`validate_io_stats` pins the ``io_stats()`` keys a run report's
``storage`` block relies on.
"""

from __future__ import annotations

from typing import Mapping

from repro.obs.metrics import SUMMARY_KEYS, Histogram

__all__ = ["Telemetry", "validate_io_stats"]


class Telemetry:
    """Name → latency :class:`~repro.obs.metrics.Histogram`, for one store.

    Observation is cheap enough for hot paths *when reached*, but the
    design rule is stronger: callers hold ``telemetry is None`` guards,
    so a disabled run never even branches into this module.
    """

    def __init__(self):
        self.histograms: dict[str, Histogram] = {}

    def observe(self, name: str, seconds: float) -> None:
        """Record one latency observation into ``name``'s histogram."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(name)
        hist.observe(seconds)

    def observe_io(self, op: str, seconds: float, nbytes: int) -> None:
        """The :class:`repro.storage.io.InstrumentedIO` sink.

        ``nbytes`` is part of the sink signature; the bytes themselves
        are counted by the page file and the WAL (``io_stats()``).
        """
        self.observe(f"storage.io.{op}_seconds", seconds)

    def latency_summaries(self) -> dict[str, dict]:
        """Summaries of every latency histogram, by name."""
        return {name: hist.summary() for name, hist in sorted(self.histograms.items())}


# -- io_stats schema ---------------------------------------------------------

IO_STATS_KEYS = ("backend", "pool", "wal", "pagefile", "commits", "checkpoints")
IO_STATS_POOL_KEYS = (
    "budget", "resident", "pages", "hits", "misses",
    "evictions", "peek_loads", "overflows", "silent_dirty", "hit_rate",
)
IO_STATS_WAL_KEYS = ("records", "commits", "bytes", "size")
IO_STATS_PAGEFILE_KEYS = ("reads", "writes", "bytes_read", "bytes_written")


def validate_io_stats(stats: Mapping) -> list[str]:
    """Shape-check a ``DiskPageStore.io_stats()`` document.

    Pins the keys the run-report ``storage`` block relies on; the
    additive ``latency`` (present only under telemetry) and
    ``write_amplification`` fields are validated when present.
    """
    problems: list[str] = []
    if not isinstance(stats, Mapping):
        return ["io_stats is not a mapping"]
    for key in IO_STATS_KEYS:
        if key not in stats:
            problems.append(f"missing key {key!r}")
    if problems:
        return problems
    if stats["backend"] != "disk":
        problems.append(f"backend is {stats['backend']!r}, expected 'disk'")
    for block, keys in (
        ("pool", IO_STATS_POOL_KEYS),
        ("wal", IO_STATS_WAL_KEYS),
        ("pagefile", IO_STATS_PAGEFILE_KEYS),
    ):
        value = stats.get(block)
        if not isinstance(value, Mapping):
            problems.append(f"{block} is not a mapping")
            continue
        for key in keys:
            if not isinstance(value.get(key), (int, float)):
                problems.append(f"{block}.{key} missing or non-numeric")
    for key in ("commits", "checkpoints"):
        if not isinstance(stats.get(key), int):
            problems.append(f"{key} is not an integer")
    latency = stats.get("latency")
    if latency is not None:
        if not isinstance(latency, Mapping):
            problems.append("latency is not a mapping")
        else:
            for name, summary in latency.items():
                if not isinstance(summary, Mapping) or any(
                    not isinstance(summary.get(k), (int, float))
                    for k in SUMMARY_KEYS
                ):
                    problems.append(f"latency[{name!r}] is not a summary")
    if "write_amplification" in stats and not isinstance(
        stats["write_amplification"], (int, float)
    ):
        problems.append("write_amplification is not numeric")
    return problems
