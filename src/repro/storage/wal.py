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

Recovery (:meth:`WriteAheadLog.replay`) is redo-only: scan frames in
order, buffer each group until its ``commit`` record, apply only
complete groups, and stop at the first torn frame — a short header, a
length pointing past EOF, or a CRC mismatch.  Everything from the last
commit boundary onward is then truncated, so a torn tail can never
resurrect a half-written transaction.  Full-page redo is idempotent,
which is what makes "replay over whatever the page file holds" safe.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from pathlib import Path
from typing import Any, Callable, Iterable

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
        #: Where the next frame goes (end of the valid log).
        self._end = 0
        #: End offset of the last durable commit record.
        self.committed_end = 0
        self.records_written = 0
        self.commits = 0
        self.bytes_written = 0
        if not existed or self._fh.size() == 0:
            self._write_header()
        else:
            self._end = self._fh.size()

    # -- appending ---------------------------------------------------------

    def _write_header(self) -> None:
        header = _HEADER.pack(WAL_MAGIC, WAL_VERSION)
        self._fh.pwrite(header, 0)
        self._end = len(header)
        self.committed_end = self._end

    def append(self, kind: str, *fields: Any) -> None:
        """Frame and append one record (not yet durable)."""
        payload = pickle.dumps((kind, *fields), protocol=4)
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        self._fh.pwrite(frame, self._end)
        self._end += len(frame)
        self.records_written += 1
        self.bytes_written += len(frame)

    def commit(self, next_id: int, pinned: Iterable[int], fsync: bool = True) -> None:
        """Append the commit boundary and (optionally) make it durable."""
        self.append("commit", next_id, sorted(pinned))
        if fsync:
            self._fh.fsync()
        self.committed_end = self._end
        self.commits += 1

    @property
    def size(self) -> int:
        """Bytes of valid log, including the header."""
        return self._end

    # -- replay ------------------------------------------------------------

    def replay(self) -> tuple[list[WalRecord], int, bool]:
        """Scan the log; return ``(committed_records, end, torn)``.

        ``committed_records`` contains every record up to and including
        the last valid ``commit``; records after it (a torn or simply
        uncommitted tail) are dropped.  ``end`` is the file offset just
        past the last commit — the caller truncates there.  ``torn``
        reports whether the scan stopped early on a damaged frame, as
        opposed to a clean EOF.  The file is read a block at a time
        (``_REPLAY_BLOCK``) and the frames are walked in memory.
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
        records: list[WalRecord] = []
        committed: list[WalRecord] = []
        commit_end = _HEADER.size
        offset = _HEADER.size
        torn = False
        while offset < file_size:
            frame_header = pread(_FRAME.size, offset)
            if len(frame_header) < _FRAME.size:
                torn = True
                break
            length, crc = _FRAME.unpack(frame_header)
            if length > _MAX_PAYLOAD or offset + _FRAME.size + length > file_size:
                torn = True
                break
            payload = pread(length, offset + _FRAME.size)
            if len(payload) < length or zlib.crc32(payload) != crc:
                torn = True
                break
            try:
                decoded = pickle.loads(payload)
            except Exception:  # corrupted but CRC-colliding payloads
                torn = True
                break
            offset += _FRAME.size + length
            record = WalRecord(decoded[0], tuple(decoded[1:]), offset)
            records.append(record)
            if record.kind == "commit":
                committed.extend(records)
                records.clear()
                commit_end = offset
        self._end = file_size
        self.committed_end = commit_end
        return committed, commit_end, torn

    def truncate_to(self, offset: int) -> None:
        """Drop everything past ``offset`` (the torn / uncommitted tail)."""
        self._fh.truncate(offset)
        self._end = offset
        self.committed_end = min(self.committed_end, offset)

    def reset(self) -> None:
        """Empty the log after a checkpoint: header only, made durable."""
        self._fh.truncate(0)
        self._write_header()
        self._fh.fsync()

    def fsync(self) -> None:
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
