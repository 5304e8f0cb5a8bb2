"""Durable on-disk page store: two logs, a page table, a buffer pool.

:class:`DiskPageStore` implements the :class:`~repro.storage.pagestore.PageStore`
interface over real files, so builds and queries can run
larger-than-memory while the *charged* access statistics stay
bit-identical to the simulated store.  The identity is by construction:
the base class reaches every page object through ``self._objects[pid]``
(``read``, and ``held`` for the pages an operation holds) and this
subclass swaps that dict for a :class:`BufferPool`, a bounded dict-like
whose ``__getitem__`` faults pages in from disk.  None of the inherited
charging logic (pinned pages, the search-path buffer, write
deduplication, observer events) is touched, so whether an access is
*charged* never depends on whether it was *physical*.

On disk a store is a directory of two logs of one format
(:mod:`repro.storage.wal`: framed, checksummed records), and a page's
only durable copy is the record that committed it — a header naming the
page, then its image (:mod:`repro.storage.pagecodec`: a header naming
the page class, then its fields in a fixed layout):

* ``pages.dat`` — the compacted base: every live page's committed
  image, the application blob, then a commit record carrying the
  allocation cursor, the pinned set and the page size.  It is only ever
  replaced whole (tmp + rename), so its existence says the store was
  created; a store of another format version is refused at open.
* ``wal.log`` — every commit since that base.  A commit appends the
  image of every page dirtied since the last commit whose bytes changed,
  then a commit record, in one ``pwrite`` and one fsync.

The page table maps each live page id to the ``(log, offset, length,
crc)`` of the record holding its committed image.

Write ordering (no-steal / redo-only):

1. Uncommitted dirty pages live only in the buffer pool; they are
   never evicted.
2. ``commit()`` logs their images to the WAL and fsyncs; a page whose
   image is byte-equal to its committed one (kept on its frame) is not
   logged again.  The page table points at the new records; frames are
   clean.
3. Eviction writes nothing: a clean page's image is already in its
   record, and a miss reads that record back (one ``pread``, its CRC
   checked against the page table's).
4. ``checkpoint()`` compacts: it writes every live page's committed
   image, the blob and a commit record to ``pages.dat.tmp`` in one
   ``pwrite``, fsyncs it, renames it over ``pages.dat``, repoints the
   page table and empties the WAL.

Reopening replays ``pages.dat``, then ``wal.log``, through the same
scan (last record wins, a free drops the page), truncates the WAL's
torn or uncommitted tail and writes nothing else.  A crash between a
compaction's rename and its WAL reset leaves a WAL every record of
which the new base already holds; replaying them over it rebuilds the
same state.

The one behaviour a real buffer manager adds over the simulated store is
that page objects can *leave* memory, and it does so on the strength of
the **page-mutation contract**: a page's image may change only inside an
operation that calls ``write()``, ``allocate()`` or ``free()`` on it,
and derived caches never enter the image.  The store trusts that call —
a clean victim read from its record is dropped without a look, and a
commit encodes the dirty pages only.  The contract is enforced where it
costs no measured time: :class:`repro.verify.barrier.WriteBarrier`
audits every fuzz run on both backends.  What stays here is the CRC
check of every loaded record, the drift check of a victim a commit
logged while it was resident (eviction; a drifted page is counted as
``silent_dirty``, re-classified dirty and logged, never dropped), and
the :class:`AliasingError` of ``write()`` and of a compaction that
finds such a page drifted.
"""

from __future__ import annotations

import pickle
import time
from pathlib import Path
from typing import Any, Iterator

from repro.storage.io import InstrumentedIO, IOProvider, OsFileIO
from repro.storage.page import PageKind
from repro.storage.pagecodec import CorruptionError, decode
from repro.storage.pagecodec import encode as _dumps
from repro.storage.pagestore import PageStore
from repro.storage.wal import WAL_VERSION, WriteAheadLog

__all__ = [
    "AliasingError",
    "BufferPool",
    "CorruptionError",
    "DiskPageStore",
    "restore_method",
    "snapshot_method",
]

#: A commit that leaves the WAL at least this long checkpoints.
WAL_CHECKPOINT_BYTES = 64 << 20


class AliasingError(RuntimeError):
    """``write(pid)`` reached a page whose object is no longer resident.

    The caller mutated a page object obtained in an earlier operation
    after the pool evicted it — the classic mutable-page aliasing bug
    the simulated store can never surface.
    """


def _dump_meta(blob: Any) -> bytes:
    """The application blob's bytes: a pickle, fixed at protocol 4."""
    return pickle.dumps(blob, protocol=4)


# -- the buffer pool ---------------------------------------------------------


class _Frame:
    """One resident page: the live object, the number of the operation
    that last touched it, its committed image (``None`` before its first
    commit) and whether a commit logged that image while the page was
    resident — the frames eviction and compaction check for drift."""

    __slots__ = ("obj", "op", "image", "logged")

    def __init__(self, obj: Any, op: int, image: bytes | None):
        self.obj = obj
        self.op = op
        self.image = image
        self.logged = False


class _PageMeta:
    """Page-table entry: the record holding the page's committed image
    (``log`` is ``None`` before its first commit)."""

    __slots__ = ("log", "offset", "length", "crc")

    def __init__(
        self, log: WriteAheadLog | None = None, offset: int = 0, length: int = 0, crc: int = 0
    ):
        self.log = log
        self.offset = offset
        self.length = length
        self.crc = crc


class BufferPool:
    """A bounded, dict-like page cache kept least recently touched first.

    The pool *is* the store's ``_objects`` mapping: its keys are every
    live page id (the full page table), its values the page objects,
    faulted in from their records on demand.  Iteration, ``len`` and
    ``in`` therefore see all live pages, exactly like the simulated
    store's plain dict — only *residency* is bounded.

    ``frames`` is the one order: a hit or an admission puts its frame at
    the end, stamped with the current operation's number, so the current
    operation's frames are always the tail.  Eviction rules, in order:

    * pinned pages and dirty (uncommitted) pages are never evicted;
    * pages touched by the current operation — the tail — are never
      evicted either: the access method may hold their objects right now
      (and mutate them ahead of the ``write`` call), so they stay
      resident until the next operation bracket — the simulated store's
      read-mutate-write-within-an-op contract survives unchanged;
    * a victim read from its record is simply dropped; a victim a commit
      logged while it was resident is encoded and compared with the
      committed image its frame keeps: a page that was silently mutated
      is re-classified dirty instead of evicted;
    * if no frame before the tail is evictable the pool overflows (grows
      past its budget) rather than corrupt anything, and counts it — the
      budget bounds steady-state residency, a single operation's
      working set bounds the excursion.
    """

    def __init__(self, store: "DiskPageStore", budget: int):
        if budget < 4:
            raise ValueError("pool budget must be at least 4 pages")
        self.store = store
        self.budget = budget
        #: Resident frames, least recently touched first.
        self.frames: dict[int, _Frame] = {}
        self.pages: dict[int, _PageMeta] = {}
        self.dirty: set[int] = set()
        #: Durable pages freed since the last commit.
        self.freed: set[int] = set()
        #: The current operation's number; ``begin_op`` advances it.
        self.op = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.peek_loads = 0
        self.overflows = 0
        self.silent_dirty = 0
        #: Page records read back (misses, peeks, compaction) and their bytes.
        self.reads = 0
        self.bytes_read = 0

    # -- mapping protocol (what PageStore and access methods use) ----------

    def __getitem__(self, pid: int) -> Any:
        frames = self.frames
        frame = frames.pop(pid, None)
        if frame is not None:
            frames[pid] = frame
            frame.op = self.op
            self.hits += 1
            return frame.obj
        obj, image = self._load(pid)
        self.misses += 1
        self._admit(pid, obj, image)
        return obj

    def __setitem__(self, pid: int, obj: Any) -> None:
        # Allocation only: page objects are mutated in place, never replaced.
        self.pages[pid] = _PageMeta()
        self.dirty.add(pid)
        self._admit(pid, obj, None)

    def __delitem__(self, pid: int) -> None:
        meta = self.pages.pop(pid)  # KeyError on a dead pid, like a dict
        self.frames.pop(pid, None)
        self.dirty.discard(pid)
        if meta.log is not None:
            self.freed.add(pid)

    def __contains__(self, pid: object) -> bool:
        return pid in self.pages

    def __iter__(self) -> Iterator[int]:
        return iter(self.pages)

    def __len__(self) -> int:
        return len(self.pages)

    def keys(self):
        return self.pages.keys()

    # -- faulting and eviction ---------------------------------------------

    def image(self, pid: int) -> bytes:
        """The committed image of ``pid``, read from its record.

        Invariant: a non-resident page always has a record (dirty pages
        are unevictable), and the page table names its exact bytes — so
        a load is one ``pread``.
        """
        meta = self.pages.get(pid)
        if meta is None:
            raise KeyError(pid)
        record = meta.log.read(meta.offset, meta.length, meta.crc)
        if record[:2] != ("page", pid):
            raise CorruptionError(
                f"page {pid}: the record at {meta.offset} of {meta.log.path} "
                f"is not its image"
            )
        self.reads += 1
        self.bytes_read += meta.length
        return record[3]

    def _load(self, pid: int) -> tuple[Any, bytes]:
        """The page object and the image it was decoded from."""
        image = self.image(pid)
        return decode(image), image

    def peek(self, pid: int) -> Any:
        """The page object without promotion: its frame keeps its place
        and stamp, and a non-resident page is not admitted."""
        frame = self.frames.get(pid)
        if frame is not None:
            return frame.obj
        obj = self._load(pid)[0]
        self.peek_loads += 1
        return obj

    def _admit(self, pid: int, obj: Any, image: bytes | None) -> None:
        """Make ``pid`` resident at the tail, then evict from the front
        until the pool fits.

        The scan skips dirty and pinned frames and evicts the first other
        one.  It stops at the first frame of the current operation (every
        frame after it belongs to the same operation, ``pid`` included)
        and counts an overflow.
        """
        frames = self.frames
        frames[pid] = _Frame(obj, self.op, image)
        budget = self.budget
        if len(frames) <= budget:
            return
        op, dirty, pinned = self.op, self.dirty, self.store._pinned
        evict = self._evict_inner if self.store._telemetry is None else self._evict
        while len(frames) > budget:
            for victim, frame in frames.items():
                if frame.op == op:
                    self.overflows += 1
                    return
                if victim not in dirty and victim not in pinned and evict(victim, frame):
                    break  # frames changed: rescan from the front

    def begin_op(self) -> None:
        """New operation bracket: the previous operation's working set
        becomes evictable again."""
        self.op += 1

    def _evict(self, pid: int, frame: _Frame) -> bool:
        telem = self.store._telemetry
        if telem is None:
            return self._evict_inner(pid, frame)
        start = time.perf_counter()
        evicted = self._evict_inner(pid, frame)
        if evicted:
            telem.observe(
                "storage.pool.eviction_seconds", time.perf_counter() - start
            )
        return evicted

    def _evict_inner(self, pid: int, frame: _Frame) -> bool:
        """Drop one clean frame; nothing is written.

        Returns ``False`` — and re-classifies the page dirty — when a
        victim a commit logged while it was resident has drifted from
        that image (a mutation the store was never told about).
        """
        if frame.logged and _dumps(frame.obj) != frame.image:
            self.silent_dirty += 1
            self.dirty.add(pid)
            return False
        del self.frames[pid]
        self.evictions += 1
        return True

    def stats(self) -> dict[str, int]:
        return {
            "budget": self.budget,
            "resident": len(self.frames),
            "pages": len(self.pages),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "peek_loads": self.peek_loads,
            "overflows": self.overflows,
            "silent_dirty": self.silent_dirty,
        }

    @property
    def hit_rate(self) -> float:
        probes = self.hits + self.misses
        return self.hits / probes if probes else 1.0


# -- the durable store -------------------------------------------------------


class DiskPageStore(PageStore):
    """A :class:`PageStore` whose pages live in two logs behind a pool.

    Parameters
    ----------
    path:
        Directory holding the store's two files; created when absent.
        Reopening a directory that holds a store recovers it (replay).
    pool_pages:
        Buffer-pool budget in pages.
    io:
        An :class:`~repro.storage.io.IOProvider`; tests pass
        :class:`~repro.storage.io.FaultInjectingIO`.
    fsync:
        Whether commits fsync the WAL.  Keep ``True`` wherever
        durability is the point; benches may trade it away.  A
        compaction always fsyncs.
    vector:
        Accepted for the callers that still pass it; ``True`` only.
    telemetry:
        A :class:`repro.obs.telemetry.Telemetry` (duck-typed — this
        module never imports :mod:`repro.obs`).  When set, the IO
        provider is wrapped in :class:`~repro.storage.io.InstrumentedIO`
        so every pread/pwrite/fsync lands in a latency histogram, and
        commits/checkpoints/evictions are timed; :meth:`io_stats`
        reports the summaries.  Give each store its own instance, or its
        latency is not its own.  Telemetry is strictly additive: charged
        access statistics and query results are bit-identical with it on
        or off.
    """

    def __init__(
        self,
        path: str | Path,
        page_size: int = 512,
        *,
        pool_pages: int = 128,
        path_buffer_limit: int = 6,
        vector: bool = True,
        io: IOProvider | None = None,
        fsync: bool = True,
        telemetry=None,
    ):
        if vector is not True:
            raise ValueError("vector must be True: the package has one query path")
        super().__init__(page_size, path_buffer_limit)
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.io = io if io is not None else OsFileIO()
        self._telemetry = telemetry
        if telemetry is not None:
            self.io = InstrumentedIO(self.io, telemetry)
        self.fsync_on_commit = fsync
        self.commits = 0
        self.checkpoints = 0
        self.recovered = False
        #: The opaque blob last committed via ``commit(meta=...)``; after
        #: recovery, the blob of the last committed transaction.
        self.meta_blob: Any = None
        self._pin_dirty = False
        self._closed = False
        self._in_checkpoint = False
        #: Bases written (creation and compactions) and their bytes.
        self._base_writes = self._base_bytes = 0

        if self.io.exists(self.path / "store.meta"):
            raise CorruptionError(
                f"{self.path}: a version-2 store (slotted pages.dat and a "
                f"store.meta sidecar); this store reads version {WAL_VERSION}"
            )
        # The pool is dict-like: it stands in for the base class's dict.
        self._objects = BufferPool(self, pool_pages)  # type: ignore
        self._wal = WriteAheadLog(self.path / "wal.log", self.io)
        self._base: WriteAheadLog | None = None
        try:
            if self.io.exists(self._base_path):
                self._base = WriteAheadLog(self._base_path, self.io)
                self._recover()
            else:
                # No base: anything else here is debris from a creation
                # that crashed before its base landed.  The WAL gets a
                # durable header first, so no base lands beside a torn one.
                self._wal.reset()
                self._compact()
        except BaseException:
            self._release()
            raise

    @property
    def _base_path(self) -> Path:
        return self.path / "pages.dat"

    @property
    def pool(self) -> BufferPool:
        return self._objects  # type: ignore[return-value]

    # -- PageStore overrides ------------------------------------------------

    def write(self, pid: int) -> None:
        pool = self.pool
        if pid not in pool.frames:
            if pid not in pool.pages:
                raise KeyError(pid)
            raise AliasingError(
                f"write({pid}) after the page was evicted: the caller mutated "
                f"a page object it retained across operations"
            )
        super().write(pid)
        pool.dirty.add(pid)

    def peek(self, pid: int) -> Any:
        return self.pool.peek(pid)

    def pin(self, pid: int) -> None:
        # A pinned page must be resident (it is unevictable from now on).
        if pid in self.pool.pages and pid not in self.pool.frames:
            self._objects[pid]
        if pid not in self._pinned:
            self._pin_dirty = True
        super().pin(pid)

    def unpin(self, pid: int) -> None:
        if pid in self._pinned:
            self._pin_dirty = True
        super().unpin(pid)

    def begin_operation(self) -> None:
        """Operation brackets are commit boundaries: the previous
        operation's changes become durable before the next one starts,
        and its working set becomes evictable again."""
        self.commit()
        super().begin_operation()
        self.pool.begin_op()

    # -- durability ---------------------------------------------------------

    def _wal_append(self, *args) -> tuple[int, int, int]:
        # ``storage.wal.append_seconds`` times framing; the commit writes.
        telem = self._telemetry
        if telem is None:
            return self._wal.append(*args)
        start = time.perf_counter()
        location = self._wal.append(*args)
        telem.observe("storage.wal.append_seconds", time.perf_counter() - start)
        return location

    def commit(self, meta: Any | None = None) -> bool:
        telem = self._telemetry
        if telem is None:
            return self._commit_inner(meta)
        start = time.perf_counter()
        committed = self._commit_inner(meta)
        if committed:
            telem.observe("storage.commit_seconds", time.perf_counter() - start)
        return committed

    def _commit_inner(self, meta: Any | None = None) -> bool:
        """Make everything since the last commit durable; returns whether
        a commit record was written (no-change commits are free).

        ``meta`` rides along as an opaque pickled blob — the crash
        harness stores access-method state here so recovery can rebuild
        the method object next to its pages.
        """
        pool = self.pool
        if not (pool.dirty or pool.freed or self._pin_dirty or meta is not None):
            return False
        for pid in sorted(pool.dirty):
            frame = pool.frames[pid]
            payload = _dumps(frame.obj)
            if payload == frame.image:
                continue  # an earlier record holds these bytes
            location = self._wal_append("page", pid, self._kinds[pid].value, payload)
            pool.pages[pid] = _PageMeta(self._wal, *location)
            frame.image, frame.logged = payload, True
        for pid in sorted(pool.freed):
            self._wal_append("free", pid)
        if meta is not None:
            self._wal_append("meta", _dump_meta(meta))
            self.meta_blob = meta
        self._wal.commit(self._next_id, self._pinned, fsync=self.fsync_on_commit)
        pool.dirty.clear()
        pool.freed.clear()
        self._pin_dirty = False
        self.commits += 1
        if not self._in_checkpoint and self._wal.size >= WAL_CHECKPOINT_BYTES:
            self.checkpoint()
        return True

    def checkpoint(self) -> None:
        """Commit, then compact: after a checkpoint ``pages.dat`` holds
        every live page's committed image and the WAL is empty.  With
        nothing logged since the last compaction the base already holds
        all of it, and nothing is written."""
        telem = self._telemetry
        if telem is None:
            self._checkpoint_inner()
            return
        start = time.perf_counter()
        self._checkpoint_inner()
        telem.observe("storage.checkpoint_seconds", time.perf_counter() - start)

    def _checkpoint_inner(self) -> None:
        self._in_checkpoint = True
        try:
            self.commit()
            if not self._wal.empty:
                self._compact()
                self.checkpoints += 1
        finally:
            self._in_checkpoint = False

    def _compact(self) -> None:
        """Write the committed state as a new base, then empty the WAL.

        Every live page's committed image — a resident page's from its
        frame, any other's from its record — goes to ``pages.dat.tmp``
        with the blob and a commit record in one ``pwrite``; the file is
        fsynced and renamed over ``pages.dat``, and the page table
        repointed into it.  A crash before the rename leaves the old
        base and WAL; one after it, a WAL the new base already holds.
        """
        pool = self.pool
        for pid, frame in pool.frames.items():
            if frame.logged and _dumps(frame.obj) != frame.image:
                raise AliasingError(
                    f"page {pid} drifted from its committed image before a "
                    f"compaction; a mutation bypassed write()"
                )
        tmp = self.path / "pages.dat.tmp"
        self.io.remove(tmp)
        base = WriteAheadLog(tmp, self.io)
        try:
            table = {}
            for pid in pool.pages:
                frame = pool.frames.get(pid)
                image = frame.image if frame is not None else pool.image(pid)
                table[pid] = base.append("page", pid, self._kinds[pid].value, image)
            if self.meta_blob is not None:
                base.append("meta", _dump_meta(self.meta_blob))
            base.commit(self._next_id, self._pinned, self.page_size)
            self.io.replace(tmp, self._base_path)
        except BaseException:
            base.close()
            raise
        base.path = self._base_path  # the handle follows its file
        if self._base is not None:
            self._base.close()
        self._base = base
        self._base_writes += 1
        self._base_bytes += base.size
        for pid, location in table.items():
            pool.pages[pid] = _PageMeta(base, *location)
        for frame in pool.frames.values():
            frame.logged = False
        self._wal.reset()

    def close(self) -> None:
        """Checkpoint and release the file handles; they are released
        even when the checkpoint raises."""
        if self._closed:
            return
        try:
            self.checkpoint()
        finally:
            self._release()

    def _release(self) -> None:
        self._wal.close()
        if self._base is not None:
            self._base.close()
        self._closed = True

    def __enter__(self) -> "DiskPageStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __reduce__(self):
        raise TypeError(
            "DiskPageStore holds open file handles and cannot be pickled; "
            "close it and reopen its directory instead"
        )

    # -- recovery ------------------------------------------------------------

    def _recover(self) -> None:
        """Replay the base, then the WAL; truncate the WAL's torn tail.

        The page table points each page at the last committed record of
        its image, across both logs.  Nothing is written but the
        truncation.
        """
        base, _, torn = self._base.replay()
        if torn or not base:
            raise CorruptionError(f"{self._base_path}: base is damaged")
        _, _, page_size = base[-1].fields
        if page_size != self.page_size:
            raise ValueError(
                f"{self.path}: store was created with page_size="
                f"{page_size}, not {self.page_size}"
            )
        wal, end, _ = self._wal.replay()
        pool = self.pool
        blob = None
        for log, records in ((self._base, base), (self._wal, wal)):
            for record in records:
                if record.kind == "page":
                    pid, kind_value, _ = record.fields
                    pool.pages[pid] = _PageMeta(
                        log, record.offset, record.end_offset - record.offset, record.crc
                    )
                    self._kinds[pid] = PageKind(kind_value)
                elif record.kind == "free":
                    (pid,) = record.fields
                    pool.pages.pop(pid, None)
                    self._kinds.pop(pid, None)
                elif record.kind == "meta":
                    (blob,) = record.fields
                elif record.kind == "commit":
                    self._next_id, pinned = record.fields[:2]
                    self._pinned = set(pinned)
        if blob is not None:
            self.meta_blob = pickle.loads(blob)
        self._wal.truncate_to(end)
        # Pinned pages are resident by invariant; fault them in without
        # touching the access statistics (nothing is charged yet anyway).
        for pid in sorted(self._pinned):
            if pid in pool.pages and pid not in pool.frames:
                obj, image = pool._load(pid)
                pool._admit(pid, obj, image)
        self.recovered = True

    # -- observability -------------------------------------------------------

    def io_stats(self) -> dict:
        """Physical-IO counters for reports (additive to the charged
        :class:`AccessStats`, never a substitute).

        The core keys are pinned by
        :func:`repro.obs.telemetry.validate_io_stats`.  ``pagefile``
        counts the page records read back (from either log) and the
        bases written (creation and compactions).
        ``write_amplification`` — total physical bytes written (WAL plus
        bases) over the live committed record bytes — is always
        present and deterministic for a deterministic workload; the
        ``latency`` summaries are additive and appear only when
        telemetry is attached.
        """
        pool = self.pool
        live_bytes = sum(
            entry.length for entry in pool.pages.values() if entry.log is not None
        )
        wal_stats = self._wal.stats()
        physical = wal_stats["bytes"] + self._base_bytes
        out = {
            "backend": "disk",
            "pool": {**pool.stats(), "hit_rate": round(pool.hit_rate, 6)},
            "wal": wal_stats,
            "pagefile": {
                "reads": pool.reads,
                "writes": self._base_writes,
                "bytes_read": pool.bytes_read,
                "bytes_written": self._base_bytes,
            },
            "commits": self.commits,
            "checkpoints": self.checkpoints,
            "write_amplification": round(physical / live_bytes, 4)
            if live_bytes
            else 0.0,
        }
        telem = self._telemetry
        if telem is not None:
            out["latency"] = telem.latency_summaries()
        return out


# -- access-method persistence helpers ---------------------------------------


def snapshot_method(method) -> dict:
    """A picklable snapshot of an access method's non-store state.

    Access methods keep only value state (pids, counters, capacities,
    in-core scales) outside the page store, so stripping the ``store``
    attribute leaves a plain picklable dict.  Store it via
    ``DiskPageStore.commit(meta=...)`` and rebuild with
    :func:`restore_method` after recovery.
    """
    state = {k: v for k, v in method.__dict__.items() if k != "store"}
    return {
        "class": type(method),
        "state": state,
        # Store-level configuration the method's constructor applied:
        # the constructor is bypassed on restore, so it must ride along
        # (the 2-level grid file buffers 2 pages, not the default 6).
        "path_buffer_limit": method.store.path_buffer_limit,
    }


def restore_method(store: PageStore, blob: dict):
    """Rebuild an access method from :func:`snapshot_method` output."""
    method = blob["class"].__new__(blob["class"])
    method.__dict__.update(blob["state"])
    method.store = store
    limit = blob.get("path_buffer_limit")
    if limit is not None:
        store.path_buffer_limit = limit
    return method
