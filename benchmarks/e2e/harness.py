"""Timing for the e2e benchmark: spans, proxies and quantile helpers.

Everything here times calls *into* ``repro`` from the outside; nothing
under ``src/`` knows it exists.  One :class:`Recorder` lives for one
cycle.  Untraced, it only sums seconds per span name (that is all the
end-to-end metrics need).  Traced, it also keeps every span as
``[name, start, end, parent, op]`` and can wrap the public methods of a
store or an access method in timing proxies, and it is the
``observe_io`` sink of a :class:`repro.storage.io.InstrumentedIO`, so
every ``pread``/``pwrite``/``fsync`` becomes a child span of the call
that caused it.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from collections import defaultdict

import numpy as np

from repro.storage.disk import DiskPageStore
from repro.storage.io import FileHandle, InstrumentedIO, IOProvider

#: Store methods wrapped in traced cycles (``commit``/``checkpoint``/
#: ``close`` exist on the disk backend only).
STORE_METHODS = ("read", "write", "allocate", "begin_operation")
DISK_METHODS = ("commit", "checkpoint", "close")
METHOD_HOOKS = ("register_query_workload", "end_query_workload")


# -- reference work -------------------------------------------------------------
#
# This sandbox's speed wanders: the same cycle takes 0.9 s, then 1.5 s for
# twenty seconds, then 0.9 s again, as other tenants come and go.  Raw
# seconds from two runs are therefore not comparable, however long a run
# measures.  Every cycle is interleaved with a fixed piece of reference
# work (interpreter-bound object churn plus a small NumPy kernel, ~13 ms),
# and the cycle's timings are divided by how much slower than nominal the
# reference ran at that moment.  The raw wall time and the factor are
# reported beside the normalised numbers.  Time blocked inside fsync is a
# different animal (0.1 ms or 1 ms a call, whatever the CPU does): spans
# exclude it, and it is reported raw, as its own metric.

#: Seconds the reference work takes on this sandbox when nothing
#: interferes; normalised seconds are seconds at that speed.
REFERENCE_NOMINAL_S = 0.0125


class _Box:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    def holds(self, q) -> bool:
        return self.lo[0] <= q[0] <= self.hi[0] and self.lo[1] <= q[1] <= self.hi[1]


_BOXES = [
    _Box((i * 0.01 % 1, i * 0.013 % 1), (i * 0.01 % 1 + 0.2, i * 0.013 % 1 + 0.2))
    for i in range(1500)
]
_FUSED = np.random.default_rng(0).random((64, 4))
_QVECS = np.random.default_rng(1).random((16, 4))


def reference_work() -> float:
    """Run the fixed reference work; returns its seconds.

    The collector is off meanwhile: a collection triggered by these
    allocations would walk the caller's heap, and the reference would run
    slower the more spans a traced cycle has recorded.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _reference_work()
    finally:
        if collecting:
            gc.enable()


def _reference_work() -> float:
    start = time.perf_counter()
    found = 0
    pages: dict[int, list] = {}
    for i in range(6000):
        pages.setdefault(i % 97, []).append(((i * 0.37 % 1.0, i * 0.73 % 1.0), i))
    for q in ((0.3, 0.4), (0.7, 0.1), (0.5, 0.5)):
        for box in _BOXES:
            if box.holds(q):
                found += 1
    for entries in pages.values():
        entries.sort()
        found += len([1 for point, _ in entries if point[0] <= 0.5])
    for _ in range(250):
        found += int((_FUSED[None, :, :] <= _QVECS[:, None, :]).all(axis=2).sum())
    return time.perf_counter() - start


class _Span:
    __slots__ = ("rec", "name", "op", "index", "start", "seconds", "outer_op", "waited")

    def __init__(self, rec: "Recorder", name: str, op: str | None):
        self.rec = rec
        self.name = name
        self.op = op
        self.seconds = 0.0

    def __enter__(self) -> "_Span":
        rec = self.rec
        self.outer_op = rec.op
        if self.op is not None:
            rec.op = self.op
        self.waited = rec.fsync_wait
        self.start = time.perf_counter()
        if rec.trace:
            self.index = len(rec.spans)
            rec.spans.append([self.name, self.start, 0.0, rec.stack[-1], rec.op])
            rec.stack.append(self.index)
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        rec = self.rec
        # Time blocked inside fsync is the sandbox's device, not the
        # program: it is summed apart, and ``seconds`` excludes it.
        waited = rec.fsync_wait - self.waited
        self.seconds = end - self.start - waited
        rec.totals[self.name] += self.seconds
        if self.op is not None:
            rec.by_op[self.op, self.name] += self.seconds
        if rec.trace:
            rec.spans[self.index][2] = end
            rec.stack.pop()
        rec.op = self.outer_op


class Recorder:
    """Seconds per span name for one cycle; every span when ``trace``."""

    def __init__(self, trace: bool = False):
        self.trace = trace
        #: Seconds as the clock read them, less those blocked inside
        #: fsync, per span name and per (structure, span name).
        self.totals: dict[str, float] = defaultdict(float)
        self.by_op: dict[tuple[str, str], float] = defaultdict(float)
        #: Seconds blocked inside fsync so far, and how many calls.
        self.fsync_wait = 0.0
        self.fsync_calls = 0
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.op = ""
        self.io_bytes: dict[str, int] = defaultdict(int)
        self._proxied: list[tuple[object, str]] = []
        #: Seconds of each reference sample taken during this cycle.
        self.reference: list[float] = []

    def span(self, name: str, op: str | None = None) -> _Span:
        """Time a block; ``op`` tags it (and its children) with the
        structure it works for, e.g. ``pam.HB``."""
        return _Span(self, name, op)

    def calibrate(self) -> None:
        """Take one reference sample, between (never inside) timed steps."""
        with self.span("calib.reference"):
            self.reference.append(reference_work())

    @property
    def slowdown(self) -> float:
        """How much slower than nominal the machine ran during this cycle."""
        return statistics.fmean(self.reference) / REFERENCE_NOMINAL_S

    def seconds(self, prefix: str) -> float:
        """Normalised seconds of every benchmark-level span under ``prefix``."""
        raw = sum(s for name, s in self.totals.items() if name.startswith(prefix))
        return raw / self.slowdown

    # -- traced-only proxies ----------------------------------------------

    def _proxy(self, obj, attr: str, name: str) -> None:
        inner = getattr(obj, attr)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def timed(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1], self.op])
            stack.append(index)
            try:
                return inner(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()

        setattr(obj, attr, timed)
        self._proxied.append((obj, attr))

    def watch_store(self, store):
        """Wrap the store's public methods (instance attributes, so the
        class and every other store stay untouched).  No-op untraced."""
        if self.trace:
            disk = isinstance(store, DiskPageStore)
            layer = "storage.disk" if disk else "storage.pagestore"
            for attr in STORE_METHODS:
                # The disk backend inherits the charging code, so its
                # read/write spans are named apart: their self time is
                # pool + pickle + CRC, not charging.
                self._proxy(store, attr, f"{layer}.{attr}")
            if disk:
                for attr in DISK_METHODS:
                    self._proxy(store, attr, f"storage.disk.{attr}")
        return store

    def watch_method(self, method):
        """Wrap the batching hooks ``run_query_file`` calls on a method."""
        if self.trace:
            for attr in METHOD_HOOKS:
                self._proxy(method, attr, f"query.{attr}")
        return method

    def unwatch(self, only=None) -> None:
        """Remove the proxies of ``only``, or all of them (for objects
        that outlive this cycle or are about to be pickled)."""
        kept = []
        for obj, attr in self._proxied:
            if only is None or obj is only:
                delattr(obj, attr)
            else:
                kept.append((obj, attr))
        self._proxied = kept

    # -- InstrumentedIO sink ----------------------------------------------

    def observe_io(self, op: str, seconds: float, nbytes: int) -> None:
        end = time.perf_counter()
        self.spans.append(
            [f"storage.io.{op}", end - seconds, end, self.stack[-1], self.op]
        )
        self.io_bytes[op] += nbytes


class _WaitTimedHandle(FileHandle):
    """A file handle that tells the recorder how long each fsync blocked."""

    def __init__(self, path, fd: int, rec: Recorder):
        super().__init__(path, fd)
        self.rec = rec

    def fsync(self) -> None:
        start = time.perf_counter()
        super().fsync()
        self.rec.fsync_wait += time.perf_counter() - start
        self.rec.fsync_calls += 1


class AbandonableIO(IOProvider):
    """Plain file IO that times fsync and can drop every handle it opened.

    ``abandon()`` is the benchmark's crash: descriptors are closed with
    no checkpoint and no flush, exactly what the store's files look like
    after the process died, without leaking descriptors cycle by cycle.
    """

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.handles = []

    def open(self, path):
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        handle = _WaitTimedHandle(path, fd, self.rec)
        self.handles.append(handle)
        return handle

    def abandon(self) -> None:
        for handle in self.handles:
            handle.close()
        self.handles.clear()


def make_io(rec: Recorder) -> tuple[AbandonableIO, object]:
    """``(base, provider)``: the provider goes to ``io=``, the base is
    kept to abandon.  Traced, the repo's own ``InstrumentedIO`` reports
    every call to ``rec`` as a span."""
    base = AbandonableIO(rec)
    return base, (InstrumentedIO(base, rec) if rec.trace else base)


# -- self time ---------------------------------------------------------------


def layer_of(name: str) -> str:
    parts = name.split(".")
    return ".".join(parts[:2]) if parts[0] == "storage" else parts[0]


def self_times(spans: list[list], slowdown: float) -> dict[str, list]:
    """``name -> [calls, total_s, self_s]`` in normalised seconds; self =
    span minus children.

    Every span but the root has a parent inside the cycle, so the self
    times sum to the root's duration by construction.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    table: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for index, (name, start, end, _, _) in enumerate(spans):
        row = table[name]
        row[0] += 1
        row[1] += (end - start) / slowdown
        row[2] += (end - start - child[index]) / slowdown
    return dict(table)


def layer_table(table: dict[str, list]) -> dict[str, float]:
    """Self seconds per layer (module), largest first."""
    layers: dict[str, float] = defaultdict(float)
    for name, (_, _, self_s) in table.items():
        layers[layer_of(name)] += self_s
    return dict(sorted(layers.items(), key=lambda item: -item[1]))


# -- quantiles -----------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def percentile(samples: list[float], share: float) -> float:
    """Nearest-rank percentile of ``samples`` (``share`` in 0..1)."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]
