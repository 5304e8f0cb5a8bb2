"""Durable on-disk page store: page file, buffer manager, WAL recovery.

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

On disk a store is a directory of three files:

* ``pages.dat`` — fixed-size slots, one per page id (``offset =
  header + pid * slot_size``); each slot holds a length/CRC32/kind
  header plus the page's image (:mod:`repro.storage.pagecodec`: a
  header naming the page class, then its fields in a fixed layout).
  Page ids are never reused, so the file is sparse where pages were
  freed.  A file of another format version is refused at open.
* ``wal.log`` — the write-ahead log (:mod:`repro.storage.wal`).  A
  commit logs the full after-image of every page dirtied since the last
  commit whose bytes are not already durable, then a commit record, in
  one ``pwrite`` and one fsync.
* ``store.meta`` — the checkpoint sidecar: the page table (pid →
  kind, CRC, length), the allocation cursor, the pinned set and an
  opaque application blob, rewritten atomically (tmp + rename) at
  every checkpoint.

Write ordering (no-steal / redo-only):

1. Uncommitted dirty pages live only in the buffer pool; they are
   never evicted and never reach the page file.
2. ``commit()`` logs their after-images to the WAL and fsyncs; a page
   whose image is byte-equal to its durable one (kept on its frame) is
   not logged again.  The change is durable; frames are clean.
3. Clean committed pages may be evicted; eviction writes the page into
   its slot (no fsync needed — the WAL already covers it).
4. ``checkpoint()`` flushes every WAL-only page to its slot, fsyncs the
   page file, atomically rewrites ``store.meta`` and truncates the WAL.

Recovery writes each page's last committed WAL image into its slot once
(none for a page a later record frees), truncates any torn or
uncommitted tail, restores the allocation cursor and pinned set from the
last commit record and ends with a checkpoint, so a recovered store is
indistinguishable from one that shut down cleanly at its last commit.

The one behaviour a real buffer manager adds over the simulated store is
that page objects can *leave* memory, and it does so on the strength of
the **page-mutation contract**: a page's image may change only inside an
operation that calls ``write()``, ``allocate()`` or ``free()`` on it,
and derived caches never enter the image.  The store trusts that call —
a clean victim whose slot is current is dropped without a look, and a
commit encodes the dirty pages only.  The contract is enforced where it
costs no measured time: :class:`repro.verify.barrier.WriteBarrier`
audits every fuzz run on both backends.  What stays here is what costs
nothing extra — the CRC check of every loaded slot, the drift check
where a WAL-only page has to be encoded anyway to write its slot
(eviction; a drifted page is counted as ``silent_dirty``, re-classified
dirty and logged, never dropped), and the :class:`AliasingError` of
``write()`` and of ``flush_to_slots`` (checkpoint).
"""

from __future__ import annotations

import base64
import json
import pickle
import struct
import time
import zlib
from pathlib import Path
from typing import Any, Iterator

from repro.storage.io import FileHandle, InstrumentedIO, IOProvider, OsFileIO
from repro.storage.page import PageKind
from repro.storage.pagecodec import CorruptionError, decode
from repro.storage.pagecodec import encode as _dumps
from repro.storage.pagestore import PageStore
from repro.storage.wal import WriteAheadLog

__all__ = [
    "AliasingError",
    "BufferPool",
    "CorruptionError",
    "DiskPageStore",
    "PageFile",
    "PageOverflowError",
    "default_slot_size",
    "restore_method",
    "snapshot_method",
]

META_FORMAT = "repro.storage/disk-meta/v1"

#: A commit that leaves the WAL at least this long checkpoints.
WAL_CHECKPOINT_BYTES = 64 << 20


class PageOverflowError(ValueError):
    """A page image does not fit its fixed-size slot."""


class AliasingError(RuntimeError):
    """``write(pid)`` reached a page whose object is no longer resident.

    The caller mutated a page object obtained in an earlier operation
    after the pool evicted it — the classic mutable-page aliasing bug
    the simulated store can never surface.
    """


def default_slot_size(page_size: int) -> int:
    """Slot bytes for a logical page size.

    Page images are larger than the paper's packed binary layout (§3
    capacities are arithmetic, not physical): over the nine standard
    structures at N = 3000 a codec image is 1.4x the logical page in the
    median and 4.8x at worst at 512 B (a BANG directory page, whose
    entries are still pickled), 1.1x / 2.5x at 8 KiB; an R-tree page is
    1.25x at 512 B (its boxes and child ids are fixed-width columns).
    Slots default to 16x the logical page, rounded up to a 4 KiB
    multiple — headroom for unbalanced directory pages, paid in sparse
    file only.
    """
    raw = 16 * page_size + PageFile.SLOT_HEADER
    return max(4096, -(-raw // 4096) * 4096)


def _dump_meta(blob: Any) -> bytes:
    """The application blob's bytes: a pickle, fixed at protocol 4."""
    return pickle.dumps(blob, protocol=4)


# -- the page file -----------------------------------------------------------


_KIND_BYTES = {PageKind.DATA: 1, PageKind.DIRECTORY: 2}
_BYTE_KINDS = {v: k for k, v in _KIND_BYTES.items()}


class PageFile:
    """Fixed-size slotted page file: ``slot(pid) = header + pid * slot_size``."""

    MAGIC = b"RPGF"
    VERSION = 2  # page-codec images only; a version-1 file may hold whole-page pickles
    _FILE_HEADER = struct.Struct("<4sIII")
    HEADER_SIZE = 16
    #: Per-slot header: payload length, CRC32, kind byte, 7 pad bytes.
    _SLOT_HEADER = struct.Struct("<IIB7x")
    SLOT_HEADER = 16

    def __init__(
        self,
        path: str | Path,
        io: IOProvider,
        slot_size: int,
        page_size: int,
        fresh: bool = False,
    ):
        self.path = Path(path)
        self.io = io
        self._fh: FileHandle = io.open(self.path)
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        if fresh and self._fh.size() != 0:
            # A crashed creation can leave a partial (even bit-flipped)
            # header behind; the caller says nothing here was ever
            # committed, so start over instead of validating garbage.
            self._fh.truncate(0)
        if self._fh.size() == 0:
            self.slot_size = slot_size
            self.page_size = page_size
            header = self._FILE_HEADER.pack(
                self.MAGIC, self.VERSION, slot_size, page_size
            )
            self._fh.pwrite(header, 0)
        else:
            header = self._fh.pread(self._FILE_HEADER.size, 0)
            magic, version, file_slot, file_page = self._FILE_HEADER.unpack(header)
            if magic != self.MAGIC:
                raise CorruptionError(f"{self.path}: not a page file")
            if version != self.VERSION:
                raise CorruptionError(
                    f"{self.path}: page file version {version}, not {self.VERSION}"
                )
            self.slot_size = file_slot
            self.page_size = file_page

    @property
    def payload_capacity(self) -> int:
        return self.slot_size - self.SLOT_HEADER

    def _offset(self, pid: int) -> int:
        return self.HEADER_SIZE + pid * self.slot_size

    def check_fits(self, pid: int, payload: bytes) -> None:
        if len(payload) > self.payload_capacity:
            raise PageOverflowError(
                f"page {pid}: page image of {len(payload)} bytes exceeds "
                f"the {self.payload_capacity}-byte slot capacity; reopen the "
                f"store with a larger slot_size"
            )

    def write_slot(self, pid: int, kind: PageKind, payload: bytes) -> int:
        """Write one page image; returns the payload's CRC32."""
        self.check_fits(pid, payload)
        crc = zlib.crc32(payload)
        slot = self._SLOT_HEADER.pack(len(payload), crc, _KIND_BYTES[kind]) + payload
        self._fh.pwrite(slot, self._offset(pid))
        self.writes += 1
        self.bytes_written += len(slot)
        return crc

    def read_slot(
        self, pid: int, expected_crc: int | None = None, length: int = 0
    ) -> tuple[PageKind, bytes]:
        """Read and checksum one page image.

        ``length`` is the payload length the caller's page table records
        (``0``: unknown).  Header and payload then arrive in one
        ``pread``; when the slot header names a different length the
        payload is read again by the header's, so a wrong hint costs a
        second read and never changes what is returned or refused.
        """
        offset = self._offset(pid)
        head = self.SLOT_HEADER
        slot = self._fh.pread(head + length, offset)
        if len(slot) < head:
            raise CorruptionError(f"page {pid}: slot missing from {self.path}")
        slot_length, crc, kind_byte = self._SLOT_HEADER.unpack_from(slot)
        if kind_byte not in _BYTE_KINDS or slot_length > self.payload_capacity:
            raise CorruptionError(f"page {pid}: slot header corrupted")
        if slot_length == length:
            payload = slot[head:]
        else:
            payload = self._fh.pread(slot_length, offset + head)
        self.reads += 1
        self.bytes_read += head + slot_length
        if len(payload) < slot_length or zlib.crc32(payload) != crc:
            raise CorruptionError(f"page {pid}: payload checksum mismatch (torn write?)")
        if expected_crc is not None and crc != expected_crc:
            raise CorruptionError(
                f"page {pid}: slot holds stale or foreign image "
                f"(crc {crc:#x}, page table expects {expected_crc:#x})"
            )
        return _BYTE_KINDS[kind_byte], payload

    def fsync(self) -> None:
        self._fh.fsync()

    def close(self) -> None:
        self._fh.close()

    def stats(self) -> dict[str, int]:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }


# -- the buffer pool ---------------------------------------------------------


class _Frame:
    """One resident page: the live object, the number of the operation
    that last touched it and its durable image (the bytes its slot or
    last WAL record holds; ``None`` before its first commit)."""

    __slots__ = ("obj", "op", "image")

    def __init__(self, obj: Any, op: int, image: bytes | None):
        self.obj = obj
        self.op = op
        self.image = image


class _PageMeta:
    """Page-table entry: where the page's durable image lives."""

    __slots__ = ("crc", "length", "on_disk", "durable")

    def __init__(self):
        self.crc: int | None = None
        self.length: int = 0
        #: The page-file slot holds the latest committed image.
        self.on_disk = False
        #: Some durable image exists (slot or WAL) — freeing the page
        #: must therefore be logged.
        self.durable = False


class BufferPool:
    """A bounded, dict-like page cache kept least recently touched first.

    The pool *is* the store's ``_objects`` mapping: its keys are every
    live page id (the full page table), its values the page objects,
    faulted in from the page file on demand.  Iteration, ``len`` and
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
    * a clean victim whose slot is current is simply dropped; a
      WAL-only victim is serialised to write its slot, and that image
      is compared with the committed one its frame keeps: a page that
      was silently mutated is re-classified dirty instead of evicted;
    * if no frame before the tail is evictable the pool overflows (grows
      past its budget) rather than corrupt anything, and counts it — the
      budget bounds steady-state residency, a single operation's
      working set bounds the excursion.
    """

    def __init__(self, store: "DiskPageStore", pagefile: PageFile, budget: int):
        if budget < 4:
            raise ValueError("pool budget must be at least 4 pages")
        self.store = store
        self.pagefile = pagefile
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
        if meta.durable:
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

    def _load(self, pid: int) -> tuple[Any, bytes]:
        """The page object and the slot image it was decoded from."""
        meta = self.pages.get(pid)
        if meta is None:
            raise KeyError(pid)
        # Invariant: a non-resident page always has a current slot image
        # (dirty pages are unevictable; WAL-only pages are written to
        # their slot as part of eviction) — so the page table's length
        # is the slot's, and header and payload come in one pread.
        _, payload = self.pagefile.read_slot(pid, meta.crc, meta.length)
        return decode(payload), payload

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
        """Write back (if needed) and drop one clean frame.

        Returns ``False`` — and re-classifies the page dirty — when a
        WAL-only victim, encoded to write its slot, has drifted from its
        committed image (a mutation the store was never told about).
        """
        meta = self.pages[pid]
        if not meta.on_disk:
            payload = _dumps(frame.obj)
            if payload != frame.image:
                self.silent_dirty += 1
                self.dirty.add(pid)
                return False
            self.pagefile.write_slot(pid, self.store._kinds[pid], payload)
            meta.on_disk = True
        del self.frames[pid]
        self.evictions += 1
        return True

    def flush_to_slots(self) -> None:
        """Write every WAL-only resident page into its slot (checkpoint)."""
        for pid, frame in self.frames.items():
            meta = self.pages[pid]
            if meta.on_disk or pid in self.dirty:
                continue
            payload = _dumps(frame.obj)
            if payload != frame.image:
                raise AliasingError(
                    f"page {pid} drifted from its committed image during a "
                    f"checkpoint flush; a mutation bypassed write()"
                )
            self.pagefile.write_slot(pid, self.store._kinds[pid], payload)
            meta.on_disk = True

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
    """A :class:`PageStore` whose pages live in a real file behind a pool.

    Parameters
    ----------
    path:
        Directory holding the store's three files; created when absent.
        Reopening a non-empty directory recovers it (WAL replay).
    pool_pages:
        Buffer-pool budget in pages.
    slot_size:
        On-disk bytes per page slot (page images are larger than
        the logical ``page_size``); adopted from the existing file when
        reopening.  Defaults to :func:`default_slot_size`.
    io:
        An :class:`~repro.storage.io.IOProvider`; tests pass
        :class:`~repro.storage.io.FaultInjectingIO`.
    fsync:
        Whether commits fsync the WAL.  Keep ``True`` wherever
        durability is the point; benches may trade it away.
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
        slot_size: int | None = None,
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

        # The sidecar is the store's existence ground truth: it lands
        # (atomically) only after the page file and WAL headers are
        # durable, so without it any pages.dat / wal.log content is
        # debris from a creation that crashed mid-flight.
        had_meta = self.io.exists(self._meta_path)
        self._pagefile = PageFile(
            self.path / "pages.dat",
            self.io,
            slot_size if slot_size is not None else default_slot_size(page_size),
            page_size,
            fresh=not had_meta,
        )
        if self._pagefile.page_size != page_size:
            raise ValueError(
                f"{self.path}: store was created with page_size="
                f"{self._pagefile.page_size}, not {page_size}"
            )
        self._wal = WriteAheadLog(self.path / "wal.log", self.io)
        # The pool is dict-like: it stands in for the base class's dict.
        self._objects = BufferPool(self, self._pagefile, pool_pages)  # type: ignore
        if had_meta:
            self._recover()
        else:
            if self._wal.version is None:
                self._wal.reset()  # debris from a crashed creation
            self._write_sidecar()

    # -- paths -------------------------------------------------------------

    @property
    def _meta_path(self) -> Path:
        return self.path / "store.meta"

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

    def _wal_append(self, *args) -> None:
        # ``storage.wal.append_seconds`` times framing; the commit writes.
        telem = self._telemetry
        if telem is None:
            self._wal.append(*args)
            return
        start = time.perf_counter()
        self._wal.append(*args)
        telem.observe("storage.wal.append_seconds", time.perf_counter() - start)

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
                continue  # a slot or an earlier WAL record holds these bytes
            self._pagefile.check_fits(pid, payload)
            entry = pool.pages[pid]
            self._wal_append("page", pid, self._kinds[pid].value, payload)
            frame.image = payload
            entry.crc, entry.length = zlib.crc32(payload), len(payload)
            entry.on_disk, entry.durable = False, True
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
        """Flush everything to the page file, rewrite the sidecar, reset
        the WAL.  After a checkpoint the WAL is empty and every live
        page's slot holds its committed image."""
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
            self.pool.flush_to_slots()
            self._pagefile.fsync()
            self._write_sidecar()
            self._wal.reset()
            self.checkpoints += 1
        finally:
            self._in_checkpoint = False

    def close(self) -> None:
        """Checkpoint and release the file handles; they are released
        even when the checkpoint raises."""
        if self._closed:
            return
        try:
            self.checkpoint()
        finally:
            self._wal.close()
            self._pagefile.close()
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

    # -- sidecar and recovery ----------------------------------------------

    def _sidecar_document(self) -> bytes:
        pool = self.pool
        pages = {}
        for pid, entry in pool.pages.items():
            if not entry.durable:
                continue  # never committed: invisible to recovery, like the WAL
            pages[str(pid)] = [self._kinds[pid].value, entry.crc, entry.length]
        doc = {
            "format": META_FORMAT,
            "page_size": self.page_size,
            "slot_size": self._pagefile.slot_size,
            "next_id": self._next_id,
            "pinned": sorted(self._pinned),
            "pages": pages,
            "meta": (
                base64.b64encode(_dump_meta(self.meta_blob)).decode("ascii")
                if self.meta_blob is not None
                else None
            ),
        }
        return json.dumps(doc, separators=(",", ":")).encode("utf-8")

    def _write_sidecar(self) -> None:
        tmp = self._meta_path.with_suffix(".meta.tmp")
        self.io.remove(tmp)
        handle = self.io.open(tmp)
        try:
            payload = self._sidecar_document()
            handle.pwrite(payload, 0)
            handle.truncate(len(payload))
            handle.fsync()
        finally:
            handle.close()
        self.io.replace(tmp, self._meta_path)

    def _recover(self) -> None:
        handle = self.io.open(self._meta_path)
        try:
            raw = handle.pread(handle.size(), 0)
        finally:
            handle.close()
        doc = json.loads(raw.decode("utf-8"))
        if doc.get("format") != META_FORMAT:
            raise CorruptionError(f"{self._meta_path}: unknown sidecar format")
        if doc["page_size"] != self.page_size:
            raise ValueError(
                f"{self.path}: store was created with page_size="
                f"{doc['page_size']}, not {self.page_size}"
            )
        pool = self.pool

        def in_slot(pid: int, kind: PageKind, crc: int, length: int) -> None:
            entry = pool.pages.setdefault(pid, _PageMeta())
            self._kinds[pid] = kind
            entry.crc, entry.length = crc, length
            entry.on_disk = entry.durable = True

        for pid_str, (kind_value, crc, length) in doc["pages"].items():
            in_slot(int(pid_str), PageKind(kind_value), crc, length)
        self._next_id = doc["next_id"]
        self._pinned = set(doc["pinned"])
        blob = base64.b64decode(doc["meta"]) if doc.get("meta") else None

        # Last image wins: each page's slot is written once, with the
        # image of its last committed record, and not at all when a later
        # committed record frees the page.
        committed, commit_end, _ = self._wal.replay()
        images: dict[int, tuple[str, bytes]] = {}
        for record in committed:
            if record.kind == "page":
                pid, kind_value, payload = record.fields
                images[pid] = (kind_value, payload)
            elif record.kind == "free":
                (pid,) = record.fields
                images.pop(pid, None)
                pool.pages.pop(pid, None)
                self._kinds.pop(pid, None)
            elif record.kind == "meta":
                (blob,) = record.fields
            elif record.kind == "commit":
                next_id, pinned = record.fields
                self._next_id = next_id
                self._pinned = set(pinned)
        for pid, (kind_value, payload) in sorted(images.items()):
            kind = PageKind(kind_value)
            in_slot(pid, kind, self._pagefile.write_slot(pid, kind, payload), len(payload))
        if blob is not None:
            self.meta_blob = pickle.loads(blob)
        self._wal.truncate_to(commit_end)
        # End recovery at a checkpoint: page file current and durable,
        # sidecar rewritten, WAL empty.
        self._pagefile.fsync()
        self._write_sidecar()
        self._wal.reset()
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
        :func:`repro.obs.telemetry.validate_io_stats`.
        ``write_amplification`` — total physical bytes written (WAL plus
        page-file) over the live committed payload bytes — is always
        present and deterministic for a deterministic workload; the
        ``latency`` summaries are additive and appear only when
        telemetry is attached.
        """
        pool = self.pool
        live_bytes = sum(
            entry.length for entry in pool.pages.values() if entry.durable
        )
        wal_stats = self._wal.stats()
        physical = wal_stats["bytes"] + self._pagefile.bytes_written
        out = {
            "backend": "disk",
            "pool": {**pool.stats(), "hit_rate": round(pool.hit_rate, 6)},
            "wal": wal_stats,
            "pagefile": self._pagefile.stats(),
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
