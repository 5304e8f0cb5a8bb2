"""The file-IO seam under the durable store, with fault injection.

Every byte the durable backend (:mod:`repro.storage.disk`) and its
write-ahead log (:mod:`repro.storage.wal`) move to or from disk goes
through an :class:`IOProvider`.  Production uses :class:`OsFileIO`
(plain ``os.pread``/``os.pwrite``/``os.fsync``); tests wrap it in
:class:`FaultInjectingIO`, which counts writes across all files of a
store and, at a chosen write index, *crashes the process model*:

* **fail-stop** — the scheduled write is not performed at all;
* **torn write** — a seeded prefix of the scheduled write reaches the
  file before the crash (the classic partial sector write);
* **bit flip** — the write lands in full but one seeded bit is
  corrupted (what per-page/record checksums must catch).

After the injected crash every further operation on the provider raises
:class:`InjectedCrash`, so a store cannot accidentally keep running on
the "dead" machine; recovery reopens the files through a fresh
provider.  All randomness comes from one seeded :class:`random.Random`,
so a given ``(seed, fail_after, mode)`` triple always produces the same
torn length / flipped bit — reproducers stay reproducible.

A further decorator composes around any provider:
:class:`InstrumentedIO` times every ``pread``/``pwrite``/``fsync`` into
a telemetry sink (:mod:`repro.obs.telemetry`).
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from random import Random

__all__ = [
    "FaultInjectingIO",
    "FileHandle",
    "InjectedCrash",
    "InstrumentedIO",
    "IOProvider",
    "OsFileIO",
]


class InjectedCrash(RuntimeError):
    """The simulated machine died; the store must be recovered from disk."""


class FileHandle:
    """A positional-IO file handle (``pread``/``pwrite``, no shared cursor)."""

    def __init__(self, path: str | Path, fd: int):
        self.path = Path(path)
        self._fd = fd

    def pread(self, n: int, offset: int) -> bytes:
        return os.pread(self._fd, n, offset)

    def pwrite(self, data: bytes, offset: int) -> int:
        return os.pwrite(self._fd, data, offset)

    def fsync(self) -> None:
        os.fsync(self._fd)

    def truncate(self, size: int) -> None:
        os.ftruncate(self._fd, size)

    def size(self) -> int:
        return os.fstat(self._fd).st_size

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    @property
    def closed(self) -> bool:
        return self._fd < 0


class IOProvider:
    """Factory/namespace for the file operations a durable store needs."""

    def open(self, path: str | Path) -> FileHandle:
        """Open ``path`` read-write, creating it when absent."""
        raise NotImplementedError

    def exists(self, path: str | Path) -> bool:
        return Path(path).exists()

    def replace(self, src: str | Path, dst: str | Path) -> None:
        """Atomically move ``src`` over ``dst`` (the checkpoint rename)."""
        os.replace(src, dst)

    def remove(self, path: str | Path) -> None:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass


class OsFileIO(IOProvider):
    """Plain operating-system file IO."""

    def open(self, path: str | Path) -> FileHandle:
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        return FileHandle(path, fd)


class _ForwardingHandle:
    """Base for handle decorators: delegate everything to an inner handle.

    Wrappers compose around *any* handle (an :class:`OsFileIO` one, a
    fault-injecting one, another wrapper), so they hold the inner handle
    by reference instead of stealing its file descriptor.
    """

    def __init__(self, inner: FileHandle):
        self._inner = inner

    @property
    def path(self) -> Path:
        return self._inner.path

    def pread(self, n: int, offset: int) -> bytes:
        return self._inner.pread(n, offset)

    def pwrite(self, data: bytes, offset: int) -> int:
        return self._inner.pwrite(data, offset)

    def fsync(self) -> None:
        self._inner.fsync()

    def truncate(self, size: int) -> None:
        self._inner.truncate(size)

    def size(self) -> int:
        return self._inner.size()

    def close(self) -> None:
        self._inner.close()

    @property
    def closed(self) -> bool:
        return self._inner.closed


class _TimingHandle(_ForwardingHandle):
    """Times every ``pread``/``pwrite``/``fsync`` into the telemetry sink."""

    def __init__(self, inner: FileHandle, sink):
        super().__init__(inner)
        self._sink = sink

    def pread(self, n: int, offset: int) -> bytes:
        start = time.perf_counter()
        data = self._inner.pread(n, offset)
        self._sink.observe_io("pread", time.perf_counter() - start, len(data))
        return data

    def pwrite(self, data: bytes, offset: int) -> int:
        start = time.perf_counter()
        out = self._inner.pwrite(data, offset)
        self._sink.observe_io("pwrite", time.perf_counter() - start, len(data))
        return out

    def fsync(self) -> None:
        start = time.perf_counter()
        self._inner.fsync()
        self._sink.observe_io("fsync", time.perf_counter() - start, 0)


class InstrumentedIO(IOProvider):
    """Per-call latency instrumentation around a base :class:`IOProvider`.

    ``sink`` is duck-typed: anything with
    ``observe_io(op, seconds, nbytes)`` works, in practice a
    :class:`repro.obs.telemetry.Telemetry` (this module stays free of
    :mod:`repro.obs` imports so the storage layer never depends on the
    observability stack).  The wrapper composes: production wraps
    :class:`OsFileIO`, the fault-injection tests wrap a
    :class:`FaultInjectingIO`, and the instrumentation sees the same
    calls either way.  When telemetry is disabled no wrapper is
    installed at all, so the uninstrumented path pays nothing.
    """

    def __init__(self, base: IOProvider, sink):
        self.base = base
        self.sink = sink

    def open(self, path: str | Path) -> FileHandle:
        return _TimingHandle(self.base.open(path), self.sink)  # type: ignore[return-value]

    def exists(self, path: str | Path) -> bool:
        return self.base.exists(path)

    def replace(self, src: str | Path, dst: str | Path) -> None:
        start = time.perf_counter()
        self.base.replace(src, dst)
        self.sink.observe_io("replace", time.perf_counter() - start, 0)

    def remove(self, path: str | Path) -> None:
        self.base.remove(path)


class _InjectingHandle(FileHandle):
    """A handle that routes every write through the provider's budget."""

    def __init__(self, path: str | Path, fd: int, provider: "FaultInjectingIO"):
        super().__init__(path, fd)
        self._provider = provider

    def pread(self, n: int, offset: int) -> bytes:
        self._provider.check_alive()
        return super().pread(n, offset)

    def pwrite(self, data: bytes, offset: int) -> int:
        data = self._provider.before_write(data)
        if data:
            super().pwrite(data, offset)
        self._provider.after_write()
        return len(data)

    def fsync(self) -> None:
        self._provider.check_alive()
        self._provider.fsyncs += 1
        if self._provider.real_fsync:
            super().fsync()

    def truncate(self, size: int) -> None:
        self._provider.check_alive()
        super().truncate(size)


class FaultInjectingIO(IOProvider):
    """Deterministic fault injection around a base :class:`IOProvider`.

    Parameters
    ----------
    fail_after:
        Crash at the ``fail_after``-th write (1-based) across *all*
        handles of this provider; ``None`` never crashes (the provider
        then only counts, which is how harnesses size their sweeps).
    mode:
        ``"stop"`` drops the scheduled write entirely, ``"torn"``
        persists a seeded strict prefix of it, ``"flip"`` persists it
        with one seeded bit inverted.  The crash is raised either way.
    seed:
        Seeds the torn length / flipped bit choice.
    real_fsync:
        ``False`` (the default) counts ``fsync`` calls without paying
        for them — the crash model already decides what is durable, so
        tests need not wait on the disk.
    """

    def __init__(
        self,
        base: IOProvider | None = None,
        *,
        fail_after: int | None = None,
        mode: str = "stop",
        seed: int = 0,
        real_fsync: bool = False,
    ):
        if mode not in ("stop", "torn", "flip"):
            raise ValueError(f"unknown fault mode {mode!r}")
        self.base = base if base is not None else OsFileIO()
        self.fail_after = fail_after
        self.mode = mode
        self.rng = Random(seed)
        self.real_fsync = real_fsync
        self.writes = 0
        self.fsyncs = 0
        self.crashed = False

    # -- the crash model ---------------------------------------------------

    def check_alive(self) -> None:
        if self.crashed:
            raise InjectedCrash("the store's machine already crashed")

    def before_write(self, data: bytes) -> bytes:
        """Account one write; returns the bytes that actually land."""
        self.check_alive()
        self.writes += 1
        if self.fail_after is None or self.writes < self.fail_after:
            return data
        self.crashed = True
        if self.mode == "torn" and len(data) > 1:
            return data[: self.rng.randrange(1, len(data))]
        if self.mode == "flip" and data:
            i = self.rng.randrange(len(data))
            flipped = data[i] ^ (1 << self.rng.randrange(8))
            return data[:i] + bytes([flipped]) + data[i + 1 :]
        return b""

    def after_write(self) -> None:
        if self.crashed:
            raise InjectedCrash(
                f"injected crash at write #{self.writes} ({self.mode})"
            )

    # -- provider interface ------------------------------------------------

    def open(self, path: str | Path) -> FileHandle:
        self.check_alive()
        inner = self.base.open(path)
        handle = _InjectingHandle(inner.path, inner._fd, self)
        return handle

    def exists(self, path: str | Path) -> bool:
        return self.base.exists(path)

    def replace(self, src: str | Path, dst: str | Path) -> None:
        # A rename is one metadata write: it either happens or it does
        # not, which is exactly the atomicity the checkpoint relies on.
        self.check_alive()
        self.writes += 1
        if self.fail_after is not None and self.writes >= self.fail_after:
            self.crashed = True
            raise InjectedCrash(
                f"injected crash at write #{self.writes} (rename dropped)"
            )
        self.base.replace(src, dst)

    def remove(self, path: str | Path) -> None:
        self.check_alive()
        self.base.remove(path)
