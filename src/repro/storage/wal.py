"""Write-ahead log: length+CRC framed records, redo-only recovery.

The durable store (:mod:`repro.storage.disk`) logs every committed
change here *before* it may touch the page file.  The log is a single
append-only file of framed records::

    +--------+-----------------+----------------+
    | header | record frame    | record frame   | ...
    +--------+-----------------+----------------+

    header = b"RWAL" + u32 version
    frame  = u32 payload_len | u32 crc32(payload) | payload

Payloads are pickled tuples; four record types exist:

* ``("page", pid, kind, payload_bytes)`` — a full after-image of one
  page (pages are small, so physical full-page logging beats logical
  deltas in both simplicity and redo idempotence);
* ``("free", pid)`` — the page was released;
* ``("meta", blob)`` — an opaque application blob (the crash harness
  stores pickled access-method state here);
* ``("commit", next_id, pinned)`` — a commit boundary carrying the
  store's allocation cursor and pinned-page set.

:meth:`WriteAheadLog.append` frames a record in memory;
:meth:`WriteAheadLog.commit` writes the group and its commit record
with one ``pwrite`` before its fsync, so a group without its commit
record never reaches the file.

Recovery (:meth:`WriteAheadLog.replay`) is redo-only: scan frames in
order, buffer each group until its ``commit`` record, apply only
complete groups, and stop at the first torn frame — a short header, a
length pointing past EOF, a CRC mismatch or a payload that does not
unpickle.  Everything from the last commit boundary onward is then
truncated, so a torn tail can never resurrect a half-written
transaction.  Full-page redo is idempotent, which is what makes "replay
over whatever the page file holds" safe.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from pathlib import Path
from typing import Any, Iterable

from repro.storage.io import FileHandle, IOProvider, OsFileIO

__all__ = ["WalRecord", "WriteAheadLog", "WAL_MAGIC", "WAL_VERSION"]

WAL_MAGIC = b"RWAL"
WAL_VERSION = 1
_HEADER = struct.Struct("<4sI")
_FRAME = struct.Struct("<II")

#: Upper bound on a single record payload; a frame whose length field
#: exceeds it is treated as torn rather than attempted (a corrupted
#: length of, say, 3 GiB must not trigger a 3 GiB read).
_MAX_PAYLOAD = 1 << 28

#: Replay reads the log in blocks of this size and walks the frames in
#: memory — a pread per block instead of two per frame, without holding
#: a second copy of a log that may be tens of MiB.
_REPLAY_BLOCK = 1 << 16


class WalRecord:
    """One decoded record plus the file offset just past its frame."""

    __slots__ = ("kind", "fields", "end_offset")

    def __init__(self, kind: str, fields: tuple, end_offset: int):
        self.kind = kind
        self.fields = fields
        self.end_offset = end_offset


class WriteAheadLog:
    """Append-only framed log over a :class:`~repro.storage.io.FileHandle`."""

    def __init__(self, path: str | Path, io: IOProvider | None = None):
        self.path = Path(path)
        self.io = io if io is not None else OsFileIO()
        existed = self.io.exists(self.path)
        self._fh: FileHandle = self.io.open(self.path)
        #: Frames of the group being built, written by the next commit.
        self._pending: list[bytes] = []
        self.records_written = self.commits = self.bytes_written = 0
        #: The header's version once written or read here (else ``None``).
        self.version: int | None = None
        if not existed or self._fh.size() == 0:
            self._write_header()
        else:
            #: Where the next group goes; ``_end`` adds the pending frames.
            self.committed_end = self._end = self._fh.size()

    # -- appending ---------------------------------------------------------

    def _write_header(self) -> None:
        # Keep a current header: rewriting it is a write a crash can tear.
        if self.version == WAL_VERSION:
            self._fh.truncate(_HEADER.size)
        else:
            self._fh.truncate(0)
            self._fh.pwrite(_HEADER.pack(WAL_MAGIC, WAL_VERSION), 0)
            self.version = WAL_VERSION
        self.committed_end = self._end = _HEADER.size

    def append(self, kind: str, *fields: Any) -> None:
        """Frame one record into the pending group (see :meth:`commit`)."""
        payload = pickle.dumps((kind, *fields), protocol=4)
        self._pending += (_FRAME.pack(len(payload), zlib.crc32(payload)), payload)
        self._end += _FRAME.size + len(payload)
        self.records_written += 1
        self.bytes_written += _FRAME.size + len(payload)

    def commit(self, next_id: int, pinned: Iterable[int], fsync: bool = True) -> None:
        """Append the commit boundary, write the group in one ``pwrite``
        and (optionally) make it durable."""
        self.append("commit", next_id, sorted(pinned))
        self._fh.pwrite(b"".join(self._pending), self.committed_end)
        self._pending.clear()
        if fsync:
            self._fh.fsync()
        self.committed_end = self._end
        self.commits += 1

    @property
    def size(self) -> int:
        """Bytes of log, including the header and the pending frames."""
        return self._end

    # -- replay ------------------------------------------------------------

    def replay(self) -> tuple[list[WalRecord], int, bool]:
        """Scan the log; return ``(committed_records, end, torn)``.

        ``committed_records`` contains every record up to and including
        the last valid ``commit``; records after it (a torn or simply
        uncommitted tail) are dropped.  ``end`` is the file offset just
        past the last commit — the caller truncates there, and the next
        commit writes there.  ``torn`` reports whether the scan stopped
        early on a damaged frame, as opposed to a clean EOF.  The file
        is read a block at a time (``_REPLAY_BLOCK``) and the frames are
        walked in memory.
        """
        file_size = self._fh.size()
        block = memoryview(b"")
        block_at = 0

        def pread(n: int, offset: int) -> memoryview:
            """``n`` bytes at ``offset`` (fewer at EOF), out of the block."""
            nonlocal block, block_at
            start = offset - block_at
            if start < 0 or start + n > len(block):
                block = memoryview(self._fh.pread(max(n, _REPLAY_BLOCK), offset))
                block_at = offset
                start = 0
            return block[start : start + n]

        header = pread(_HEADER.size, 0)
        if len(header) < _HEADER.size:
            return [], _HEADER.size, len(header) not in (0, _HEADER.size)
        magic, version = _HEADER.unpack(header)
        if magic != WAL_MAGIC or version != WAL_VERSION:
            raise ValueError(
                f"{self.path}: not a WAL file (magic {magic!r}, version {version})"
            )
        self.version = version
        records: list[WalRecord] = []
        committed: list[WalRecord] = []
        offset = commit_end = _HEADER.size
        while offset + _FRAME.size <= file_size:
            length, crc = _FRAME.unpack(pread(_FRAME.size, offset))
            if length > _MAX_PAYLOAD or offset + _FRAME.size + length > file_size:
                break
            payload = pread(length, offset + _FRAME.size)
            if len(payload) < length or zlib.crc32(payload) != crc:
                break
            try:
                kind, *fields = pickle.loads(payload)
            except Exception:  # corrupted but CRC-colliding payloads
                break
            offset += _FRAME.size + length
            records.append(WalRecord(kind, tuple(fields), offset))
            if kind == "commit":
                committed.extend(records)
                records.clear()
                commit_end = offset
        self.committed_end = self._end = commit_end
        # Every frame was whole, or the scan stopped on a damaged one.
        return committed, commit_end, offset < file_size

    def truncate_to(self, offset: int) -> None:
        """Drop everything past ``offset`` (the torn / uncommitted tail)."""
        self._fh.truncate(offset)
        self.committed_end = self._end = offset

    def reset(self) -> None:
        """Empty the log after a checkpoint: header only, made durable."""
        self._write_header()
        self._fh.fsync()

    def close(self) -> None:
        self._fh.close()

    def stats(self) -> dict[str, int]:
        return {
            "records": self.records_written,
            "commits": self.commits,
            "bytes": self.bytes_written,
            "size": self._end,
        }
