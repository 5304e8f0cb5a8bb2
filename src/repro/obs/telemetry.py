"""Live storage telemetry: IO latency histograms and a flight recorder.

Everything before this module measured *logical* cost — charged page
accesses, deterministic under a fixed seed.  The durable backend
(:mod:`repro.storage.disk`) added *physical* cost: preads, pwrites and
above all fsyncs, whose latency distribution (not its sum) decides
whether a build takes 1.4 s or 42 s.  This module is the physical-cost
observatory:

* :class:`Telemetry` — a process-wide sink of latency
  :class:`~repro.obs.metrics.Histogram`\\ s, byte counters and *callback
  gauges* (pool residency, dirty/pinned counts, WAL bytes) that cost
  nothing until read.  Enabled by ``REPRO_TELEMETRY=1``; when disabled,
  no instrumentation is installed anywhere and the hot paths are
  untouched.  Telemetry is strictly additive: charged
  :class:`~repro.core.stats.AccessStats`, query results, explain traces
  and structure snapshots are bit-identical with it on or off.
* :class:`FlightRecorder` — a daemon thread sampling every series at a
  fixed interval into a schema-versioned JSONL time series
  (:data:`TIMELINE_SCHEMA`), so a long build can be watched while it
  runs and post-mortemed after.  Per-worker timelines merge
  deterministically (:func:`merge_timelines`).

``python -m repro.obs telemetry`` renders a timeline as per-metric
sparklines (:func:`render_timeline`) or diffs two
(:func:`diff_timelines`); ``python -m repro.obs validate`` checks one
against its schema.
"""

from __future__ import annotations

import fnmatch
import json
import threading
import time
import weakref
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.config import RunConfig
from repro.obs.metrics import SUMMARY_KEYS, Histogram
from repro.obs.report import delta_pct

__all__ = [
    "TIMELINE_SCHEMA",
    "FlightRecorder",
    "Telemetry",
    "active_telemetry",
    "diff_timelines",
    "merge_timelines",
    "read_timeline",
    "render_timeline",
    "set_telemetry",
    "timeline_parts",
    "validate_io_stats",
    "validate_timeline",
]

#: Schema of one flight-recorder timeline (JSONL: header, then samples).
TIMELINE_SCHEMA = "repro.obs/telemetry/v1"


class Telemetry:
    """The live series, one dict per kind: name → latency
    :class:`~repro.obs.metrics.Histogram`, name → byte count, and
    name → gauge callback.

    One instance is typically process-wide (:func:`active_telemetry`);
    every durable store registers itself so the pool/WAL gauges
    aggregate across all live stores, and every instrumented IO call
    lands in the shared latency histograms.  All observation methods
    are cheap enough for hot paths *when reached*, but the design rule
    is stronger: callers hold ``telemetry is None`` guards, so a
    disabled run never even branches into this module.

    The flight recorder reads from its own thread while the workload
    thread adds series, so readers iterate a copy of each dict (a dict
    copy is atomic under the GIL), never the dict itself.
    """

    def __init__(self):
        self.histograms: dict[str, Histogram] = {}
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, Callable[[], float]] = {}
        self._stores: "weakref.WeakSet" = weakref.WeakSet()

    # -- observation --------------------------------------------------------

    def observe(self, name: str, seconds: float) -> None:
        """Record one latency observation into ``name``'s histogram."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(name)
        hist.observe(seconds)

    def observe_io(self, op: str, seconds: float, nbytes: int) -> None:
        """The :class:`repro.storage.io.InstrumentedIO` sink."""
        self.observe(f"storage.io.{op}_seconds", seconds)
        if nbytes:
            name = f"storage.io.{op}_bytes"
            self.counters[name] = self.counters.get(name, 0) + nbytes

    # -- store registration --------------------------------------------------

    def register_store(self, store) -> None:
        """Hook one durable store's pool/WAL state into the gauges.

        Gauges are registered once and *sum across every live
        registered store* (the multi-tenant service will run many);
        dead stores drop out via the weak set.  Reading a gauge walks
        the stores only at sampling/export time — zero hot-path cost.
        """
        self._stores.add(store)
        if "storage.stores" in self.gauges:
            return

        def total(fn):
            return lambda: sum(fn(s) for s in list(self._stores))

        pool = lambda s: s.pool  # noqa: E731 - tiny local accessor
        self.gauges.update(
            {
                "storage.stores": lambda: len(list(self._stores)),
                "storage.pool.resident": total(lambda s: len(pool(s).frames)),
                "storage.pool.pages": total(lambda s: len(pool(s).pages)),
                "storage.pool.dirty": total(lambda s: len(pool(s).dirty)),
                "storage.pool.pinned": total(lambda s: len(s._pinned)),
                "storage.pool.wal_only": total(
                    lambda s: sum(
                        1
                        for m in list(pool(s).pages.values())
                        if m.durable and not m.on_disk
                    )
                ),
                "storage.pool.budget": total(lambda s: pool(s).budget),
                "storage.wal.bytes_since_checkpoint": total(
                    lambda s: s._wal.size - 8
                ),
            }
        )

    # -- sampling and summaries ----------------------------------------------

    def sample(self) -> dict:
        """One flight-recorder sample of every series."""
        return {
            "counters": dict(sorted(dict(self.counters).items())),
            "gauges": {
                name: float(fn()) for name, fn in sorted(dict(self.gauges).items())
            },
            "histograms": self.latency_summaries(),
        }

    def latency_summaries(self) -> dict[str, dict]:
        """Summaries of every latency histogram, by name."""
        return {
            name: hist.summary()
            for name, hist in sorted(dict(self.histograms).items())
        }


# -- the process-wide instance ----------------------------------------------

_EXPLICIT: Telemetry | None = None
_ENV_INSTANCE: Telemetry | None = None


def set_telemetry(telemetry: Telemetry | None) -> None:
    """Install (or clear) the process-wide telemetry explicitly.

    An explicit instance wins over the environment; ``None`` restores
    environment resolution.  Tests use this to instrument a single run
    without leaking state across the suite.
    """
    global _EXPLICIT
    _EXPLICIT = telemetry


def active_telemetry() -> Telemetry | None:
    """The process-wide telemetry, or ``None`` when disabled.

    Explicit (:func:`set_telemetry`) beats environment; with
    ``REPRO_TELEMETRY=1`` a shared instance is created on first use so
    every store, bench and query driver in the process reports into one
    set of series — which is exactly what the flight recorder samples.
    """
    if _EXPLICIT is not None:
        return _EXPLICIT
    if not RunConfig.from_env().telemetry:
        return None
    global _ENV_INSTANCE
    if _ENV_INSTANCE is None:
        _ENV_INSTANCE = Telemetry()
    return _ENV_INSTANCE


# -- the flight recorder -----------------------------------------------------


class FlightRecorder:
    """Samples a :class:`Telemetry` into a JSONL time series.

    A daemon thread wakes every ``interval_seconds``, takes one
    consistent sample of all counters / gauges / histogram summaries
    and appends it as one JSON line.  :meth:`stop` writes a final
    sample, so even a run shorter than the interval records at least
    one data point.  The file starts with a header line carrying the
    schema, the sampling interval and the worker label — which is what
    makes per-worker timelines mergeable and validatable.
    """

    def __init__(
        self,
        telemetry: Telemetry,
        path: str | Path,
        *,
        interval_seconds: float = 0.25,
        label: str = "",
        worker: str | None = None,
    ):
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        self.telemetry = telemetry
        self.path = Path(path)
        self.interval_seconds = interval_seconds
        self.label = label
        self.worker = worker
        self.samples_written = 0
        self._fh = None
        self._seq = 0
        self._started = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "FlightRecorder":
        if self._thread is not None:
            raise ValueError("flight recorder already started")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8")
        self._started = time.perf_counter()
        header = {
            "schema": TIMELINE_SCHEMA,
            "kind": "header",
            "version": 1,
            "interval_seconds": self.interval_seconds,
            "label": self.label,
        }
        if self.worker is not None:
            header["worker"] = self.worker
        self._write(header)
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-flight-recorder", daemon=True
        )
        self._thread.start()
        return self

    def _write(self, doc: dict) -> None:
        self._fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
        self._fh.flush()

    def _write_sample(self, final: bool = False) -> None:
        sample = {
            "kind": "sample",
            "seq": self._seq,
            "elapsed_seconds": time.perf_counter() - self._started,
            **self.telemetry.sample(),
        }
        if final:
            sample["final"] = True
        self._write(sample)
        self._seq += 1
        self.samples_written += 1

    def _run(self) -> None:
        while not self._stop.wait(self.interval_seconds):
            self._write_sample()

    def stop(self) -> Path:
        """Stop sampling, write the final sample, close the file."""
        if self._thread is None:
            return self.path
        self._stop.set()
        self._thread.join()
        self._thread = None
        self._write_sample(final=True)
        self._fh.close()
        self._fh = None
        return self.path

    def __enter__(self) -> "FlightRecorder":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# -- timeline files ----------------------------------------------------------


def timeline_parts(lines: Sequence[Mapping]) -> tuple[Mapping, list[Mapping]]:
    """``(header, samples)`` of a timeline's parsed JSONL lines."""
    if not lines:
        return {}, []
    return lines[0], [doc for doc in lines[1:] if doc.get("kind") == "sample"]


def read_timeline(path: str | Path) -> tuple[Mapping, list[Mapping]]:
    """Parse one timeline file into ``(header, samples)``."""
    with Path(path).open(encoding="utf-8") as fh:
        return timeline_parts([json.loads(raw) for raw in fh if raw.strip()])


def validate_timeline(header: Mapping, samples: Sequence[Mapping]) -> list[str]:
    """Schema-check one parsed timeline; returns problems ([] when valid)."""
    problems: list[str] = []
    if header.get("schema") != TIMELINE_SCHEMA:
        problems.append(
            f"header schema is {header.get('schema')!r}, "
            f"expected {TIMELINE_SCHEMA!r}"
        )
        return problems
    if header.get("kind") != "header":
        problems.append("first line is not the header")
    if not isinstance(header.get("interval_seconds"), (int, float)):
        problems.append("header lacks a numeric interval_seconds")
    if not samples:
        problems.append("timeline has no samples")
    last_seq = -1
    for sample in samples:
        where = f"sample {sample.get('seq')}"
        seq = sample.get("seq")
        if not isinstance(seq, int):
            problems.append(f"{where}: non-integer seq")
            continue
        if "worker" not in sample and seq <= last_seq:
            problems.append(f"{where}: seq not increasing")
        last_seq = seq
        if not isinstance(sample.get("elapsed_seconds"), (int, float)):
            problems.append(f"{where}: missing elapsed_seconds")
        for section in ("counters", "gauges", "histograms"):
            block = sample.get(section)
            if not isinstance(block, Mapping):
                problems.append(f"{where}: missing {section} mapping")
                continue
            if section == "histograms":
                for name, summary in block.items():
                    if not isinstance(summary, Mapping) or any(
                        not isinstance(summary.get(k), (int, float))
                        for k in SUMMARY_KEYS
                    ):
                        problems.append(
                            f"{where}: histogram {name!r} lacks "
                            f"numeric {SUMMARY_KEYS}"
                        )
            else:
                for name, value in block.items():
                    if not isinstance(value, (int, float)):
                        problems.append(
                            f"{where}: {section[:-1]} {name!r} is not numeric"
                        )
    return problems


def merge_timelines(
    paths: Sequence[str | Path], out: str | Path | None = None
) -> tuple[dict, list[dict]]:
    """Merge per-worker timelines into one, deterministically.

    Sources are consumed in the order given (callers sort by filename),
    every sample is tagged with its source's worker label (falling back
    to the file stem) and re-numbered with a global ``seq`` while its
    original position is kept as ``worker_seq``.  The merge is a pure
    function of the input files and their order — two merges of the
    same recorded set are byte-identical, which is what lets CI diff a
    parallel run's merged timeline against a reference.
    """
    sources: list[str] = []
    merged: list[dict] = []
    interval = None
    for path in paths:
        header, samples = read_timeline(path)
        if header.get("schema") != TIMELINE_SCHEMA:
            raise ValueError(f"{path}: not a {TIMELINE_SCHEMA} timeline")
        worker = str(header.get("worker") or header.get("label") or Path(path).stem)
        sources.append(worker)
        if interval is None:
            interval = header.get("interval_seconds")
        for sample in samples:
            entry = dict(sample)
            entry["worker"] = worker
            entry["worker_seq"] = entry.pop("seq")
            merged.append(entry)
    for seq, entry in enumerate(merged):
        entry["seq"] = seq
    header = {
        "schema": TIMELINE_SCHEMA,
        "kind": "header",
        "version": 1,
        "interval_seconds": interval if interval is not None else 0.0,
        "label": "merged",
        "merged": True,
        "sources": sources,
    }
    if out is not None:
        out = Path(out)
        out.parent.mkdir(parents=True, exist_ok=True)
        lines = [json.dumps(header, separators=(",", ":"))]
        lines += [json.dumps(e, separators=(",", ":")) for e in merged]
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return header, merged


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


# -- timeline rendering ---------------------------------------------------

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def _sparkline(values: Sequence[float], width: int = 48) -> str:
    if not values:
        return ""
    if len(values) > width:  # downsample by striding, keeping the last point
        step = len(values) / width
        values = [values[min(len(values) - 1, int(i * step))] for i in range(width)]
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK_CHARS[0] * len(values)
    span = hi - lo
    return "".join(
        _SPARK_CHARS[min(7, int((v - lo) / span * 8))] for v in values
    )


def _metric_series(samples: Sequence[Mapping]) -> dict[str, list[float]]:
    """Flatten samples to per-metric value series, in first-seen order.

    Counters and gauges contribute their value; histograms contribute
    ``<name>.count``, ``<name>.p50`` and ``<name>.p99`` series, which is
    what a latency investigation actually plots.
    """
    series: dict[str, list[float]] = {}

    def push(name: str, value: float, index: int) -> None:
        values = series.setdefault(name, [])
        while len(values) < index:  # metric appeared mid-flight: pad
            values.append(0.0)
        values.append(float(value))

    for index, sample in enumerate(samples):
        for name, value in sample.get("counters", {}).items():
            push(name, value, index)
        for name, value in sample.get("gauges", {}).items():
            push(name, value, index)
        for name, summary in sample.get("histograms", {}).items():
            push(f"{name}.count", summary.get("count", 0), index)
            push(f"{name}.p50", summary.get("p50", 0.0), index)
            push(f"{name}.p99", summary.get("p99", 0.0), index)
    n = len(samples)
    for values in series.values():
        while len(values) < n:
            values.append(values[-1] if values else 0.0)
    return series


def render_timeline(
    header: Mapping,
    samples: Sequence[Mapping],
    *,
    metric_glob: str = "*",
    width: int = 48,
) -> str:
    """Per-metric sparkline + summary table of one parsed timeline."""
    duration = samples[-1].get("elapsed_seconds", 0.0) if samples else 0.0
    lines = [
        f"timeline: {header.get('label') or 'unlabelled'} "
        f"({len(samples)} samples, {duration:.2f}s, "
        f"interval {header.get('interval_seconds', 0)}s"
        + (f", merged from {len(header.get('sources', []))} workers" if header.get("merged") else "")
        + ")"
    ]
    series = _metric_series(samples)
    names = [n for n in series if fnmatch.fnmatch(n, metric_glob)]
    if not names:
        lines.append(f"no metrics match {metric_glob!r}")
        return "\n".join(lines)
    name_width = max(len(n) for n in names)
    lines.append(
        f"{'metric':{name_width}s}  {'first':>12s}{'last':>12s}{'max':>12s}  trend"
    )
    for name in names:
        values = series[name]
        lines.append(
            f"{name:{name_width}s}  {values[0]:>12.6g}{values[-1]:>12.6g}"
            f"{max(values):>12.6g}  {_sparkline(values, width)}"
        )
    return "\n".join(lines)


def diff_timelines(
    old: Sequence[Mapping], new: Sequence[Mapping]
) -> list[dict]:
    """Final-sample metric deltas between two timelines' samples."""
    rows: list[dict] = []
    old_series = _metric_series(old)
    new_series = _metric_series(new)
    for name in sorted(set(old_series) & set(new_series)):
        a = old_series[name][-1] if old_series[name] else 0.0
        b = new_series[name][-1] if new_series[name] else 0.0
        rows.append(
            {"metric": name, "old": a, "new": b, "delta_pct": delta_pct(a, b)}
        )
    return rows
