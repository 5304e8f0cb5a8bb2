"""Units for the durable storage stack: IO shim, logs, store.

The crash *property* tests live in ``test_crash_recovery.py`` and the
pool invariants in ``test_buffer_pool.py``; this file covers the
mechanics those build on — framing, checksums, fault injection,
lifecycle parity with the simulated store, checkpoints.
"""

from __future__ import annotations

import json
import pickle
import struct
import zlib
from collections import Counter

import pytest

from repro.geometry.rect import Rect
from repro.sam.rtree import _Node
from repro.storage.disk import (
    AliasingError,
    CorruptionError,
    DiskPageStore,
    _PageMeta,
    restore_method,
    snapshot_method,
)
from repro.storage.io import FaultInjectingIO, InjectedCrash, InstrumentedIO, OsFileIO
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore
from repro.storage.wal import _REPLAY_BLOCK, WriteAheadLog
from repro.verify import AuditError
from repro.verify.barrier import WriteBarrier


class _CallCounter(Counter):
    """An ``InstrumentedIO`` sink that counts calls per operation."""

    def observe_io(self, op, seconds, nbytes):
        self[op] += 1


def _counting_io():
    calls = _CallCounter()
    return InstrumentedIO(OsFileIO(), calls), calls


def plant_image(store, pid: int, image: bytes) -> None:
    """Commit ``image`` as page ``pid``'s record behind the store's back
    and point the page table at it: the record and the table agree."""
    location = store._wal.append("page", pid, store.kind(pid).value, image)
    store._wal.commit(store._next_id, store._pinned, fsync=False)
    store.pool.pages[pid] = _PageMeta(store._wal, *location)


# -- fault-injecting IO ----------------------------------------------------


class TestFaultInjectingIO:
    def test_counts_writes_without_fail_after(self, tmp_path):
        io = FaultInjectingIO()
        h = io.open(tmp_path / "f")
        h.pwrite(b"abc", 0)
        h.pwrite(b"d", 3)
        assert io.writes == 2
        assert h.pread(4, 0) == b"abcd"
        h.close()

    def test_fail_stop_drops_the_scheduled_write(self, tmp_path):
        io = FaultInjectingIO(fail_after=2, mode="stop")
        h = io.open(tmp_path / "f")
        h.pwrite(b"aaaa", 0)
        with pytest.raises(InjectedCrash):
            h.pwrite(b"bbbb", 4)
        assert h.size() == 4  # the second write never landed

    def test_torn_write_persists_a_strict_prefix(self, tmp_path):
        io = FaultInjectingIO(fail_after=1, mode="torn", seed=3)
        h = io.open(tmp_path / "f")
        with pytest.raises(InjectedCrash):
            h.pwrite(b"x" * 100, 0)
        assert 1 <= h.size() < 100

    def test_bit_flip_persists_corrupted_data(self, tmp_path):
        io = FaultInjectingIO(fail_after=1, mode="flip", seed=5)
        h = io.open(tmp_path / "f")
        with pytest.raises(InjectedCrash):
            h.pwrite(b"\x00" * 64, 0)
        data = (tmp_path / "f").read_bytes()
        assert len(data) == 64
        assert sum(bin(b).count("1") for b in data) == 1  # exactly one bit

    def test_dead_provider_refuses_everything(self, tmp_path):
        io = FaultInjectingIO(fail_after=1)
        h = io.open(tmp_path / "f")
        with pytest.raises(InjectedCrash):
            h.pwrite(b"x", 0)
        with pytest.raises(InjectedCrash):
            h.pread(1, 0)
        with pytest.raises(InjectedCrash):
            io.open(tmp_path / "g")

    def test_determinism_per_seed(self, tmp_path):
        def torn_size(seed):
            io = FaultInjectingIO(fail_after=1, mode="torn", seed=seed)
            h = io.open(tmp_path / f"f{seed}")
            with pytest.raises(InjectedCrash):
                h.pwrite(b"y" * 500, 0)
            return h.size()

        assert torn_size(11) == torn_size(11)


# -- the WAL ----------------------------------------------------------------


class TestWriteAheadLog:
    def test_replay_returns_only_committed_groups(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append("page", 1, "data", b"one")
        wal.commit(next_id=2, pinned=[0])
        wal.append("page", 2, "data", b"two")  # never committed
        wal.close()

        wal = WriteAheadLog(tmp_path / "wal")
        records, end, torn = wal.replay()
        assert [r.kind for r in records] == ["page", "commit"]
        assert records[0].fields == (1, "data", b"one")
        assert records[1].fields == (2, [0])
        assert not torn
        wal.truncate_to(end)
        assert wal.size == end

    def test_torn_tail_is_detected_and_truncated(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append("page", 1, "data", b"x" * 50)
        wal.commit(next_id=2, pinned=[])
        end_of_commit = wal.size
        wal.append("page", 2, "data", b"y" * 50)
        wal.commit(next_id=3, pinned=[])
        wal._fh.truncate(wal.size - 7)  # tear the last commit frame
        wal.close()

        wal = WriteAheadLog(tmp_path / "wal")
        records, end, torn = wal.replay()
        assert torn
        assert end == end_of_commit
        assert [r.kind for r in records] == ["page", "commit"]

    def test_corrupt_frame_stops_replay(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append("page", 1, "data", b"clean")
        wal.commit(next_id=2, pinned=[])
        mid = wal.size
        wal.append("page", 2, "data", b"doomed")
        wal.commit(next_id=3, pinned=[])
        # flip one payload byte of the second group
        raw = bytearray((tmp_path / "wal").read_bytes())
        raw[mid + 10] ^= 0xFF
        (tmp_path / "wal").write_bytes(raw)
        wal.close()

        wal = WriteAheadLog(tmp_path / "wal")
        records, end, torn = wal.replay()
        assert torn and end == mid
        assert [r.kind for r in records] == ["page", "commit"]

    def test_replay_reads_blocks_not_frames(self, tmp_path):
        """Frames are walked in memory: a pread per block of log, and a
        frame larger than a block still arrives whole."""
        io, calls = _counting_io()
        wal = WriteAheadLog(tmp_path / "wal", io)
        big = bytes(range(256)) * 1024  # 256 KiB, several replay blocks
        for pid in range(200):
            wal.append("page", pid, "data", big if pid == 120 else b"p" * 300)
            if pid % 10 == 9:
                wal.commit(next_id=pid + 1, pinned=[])
        wal.append("page", 999, "data", b"uncommitted")
        size = wal.size
        wal.close()

        wal = WriteAheadLog(tmp_path / "wal", io)
        before = calls["pread"]
        records, end, torn = wal.replay()
        assert calls["pread"] - before <= 4 + size // _REPLAY_BLOCK
        assert not torn and end < size
        pages = [r for r in records if r.kind == "page"]
        assert [r.fields[0] for r in pages] == list(range(200))
        assert records[-1].kind == "commit" and records[-1].end_offset == end
        assert pages[120].fields[2] == big
        assert all(type(r.fields[2]) is bytes for r in pages)

    def test_reset_empties_the_log(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append("meta", b"blob")
        wal.commit(next_id=9, pinned=[])
        wal.reset()
        records, _, torn = wal.replay()
        assert records == [] and not torn

    def test_rejects_foreign_file(self, tmp_path):
        (tmp_path / "wal").write_bytes(b"NOTAWAL!")
        with pytest.raises(CorruptionError, match="not a version-3 log"):
            WriteAheadLog(tmp_path / "wal").replay()

    def test_every_record_type_round_trips(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        sent = [
            ("page", (7, "data", b"\x00image\xff" * 40)),
            ("page", (2**40, "directory", b"")),
            ("free", (3,)),
            ("meta", (pickle.dumps({"applied": 1}),)),
            ("commit", (9, [])),
            ("meta", (b"",)),
            ("commit", (2**33, [0, 5, 2**40])),
        ]
        for kind, fields in sent:
            if kind == "commit":
                wal.commit(*fields)
            else:
                wal.append(kind, *fields)
        wal.close()
        records, end, torn = WriteAheadLog(tmp_path / "wal").replay()
        assert [(r.kind, r.fields) for r in records] == sent
        assert not torn and end == (tmp_path / "wal").stat().st_size

    def test_a_group_is_one_write_and_a_reset_none(self, tmp_path):
        io, calls = _counting_io()
        wal = WriteAheadLog(tmp_path / "wal", io)
        for pid in range(5):
            wal.append("page", pid, "data", b"x" * 100)
        wal.append("free", 9)
        assert calls["pwrite"] == 0  # a new log's header waits for its first group
        assert (tmp_path / "wal").stat().st_size == 0
        wal.commit(next_id=10, pinned=[1])
        assert calls["pwrite"] == 1 and calls["fsync"] == 1
        assert (tmp_path / "wal").stat().st_size == wal.size == wal.committed_end
        wal.reset()  # keeps the current header: no write a crash could tear
        assert calls["pwrite"] == 1
        assert (tmp_path / "wal").stat().st_size == 8
        # A log without a header on disk gets one from its reset, alone.
        fresh = WriteAheadLog(tmp_path / "fresh", io)
        fresh.reset()
        assert calls["pwrite"] == 2 and (tmp_path / "fresh").stat().st_size == 8

    def test_a_record_reads_back_by_its_location(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        first = wal.append("page", 4, "data", b"four")
        second = wal.append("page", 5, "directory", b"five" * 100)
        wal.commit(next_id=6, pinned=[])
        assert wal.read(*first) == ("page", 4, "data", b"four")
        assert wal.read(*second) == ("page", 5, "directory", b"five" * 100)
        replayed = [r for r in wal.replay()[0] if r.kind == "page"]
        assert [(r.offset, r.end_offset - r.offset, r.crc) for r in replayed] == [
            first, second,
        ]  # fmt: skip

    def test_a_torn_group_is_dropped_whole(self, tmp_path):
        io = FaultInjectingIO()
        wal = WriteAheadLog(tmp_path / "wal", io)
        wal.append("page", 1, "data", b"a" * 200)
        wal.commit(next_id=2, pinned=[])
        first_end = wal.size
        for pid in (2, 3, 4):
            wal.append("page", pid, "data", bytes([pid]) * 200)
        io.fail_after = io.writes + 1  # tear the group's one write
        io.mode = "torn"
        with pytest.raises(InjectedCrash):
            wal.commit(next_id=5, pinned=[])
        assert first_end < (tmp_path / "wal").stat().st_size < wal.size
        records, end, torn = WriteAheadLog(tmp_path / "wal").replay()
        assert torn and end == first_end
        assert [(r.kind, r.fields[0]) for r in records] == [("page", 1), ("commit", 2)]


# -- the durable store ------------------------------------------------------


def _fresh(tmp_path, **kw):
    kw.setdefault("pool_pages", 8)
    return DiskPageStore(tmp_path / "store", **kw)


class TestDiskPageStore:
    def test_lifecycle_matches_simulated_semantics(self, tmp_path):
        sim, disk = PageStore(), _fresh(tmp_path)
        for store in (sim, disk):
            store.begin_operation()
            a = store.allocate(PageKind.DATA, [1])
            b = store.allocate(PageKind.DIRECTORY, [2])
            store.write(a)
            store.write(b)
            store.begin_operation()
            assert store.read(a) == [1]
            store.free(b)
            assert store.page_ids() == [a]
            assert store.kind(a) is PageKind.DATA
        assert sim.stats == disk.stats

    def test_reopen_recovers_committed_state(self, tmp_path):
        store = _fresh(tmp_path)
        store.begin_operation()
        a = store.allocate(PageKind.DATA, ["alpha"])
        store.write(a)
        store.pin(a)
        store.commit(meta={"tag": 42})
        store.close()

        back = _fresh(tmp_path)
        assert back.recovered
        assert back.meta_blob == {"tag": 42}
        assert back.peek(a) == ["alpha"]
        assert back.is_pinned(a)
        # allocation cursor survives: new pages never reuse ids
        assert back.allocate(PageKind.DATA, []) == a + 1

    def test_uncommitted_tail_is_dropped_on_recovery(self, tmp_path):
        io = FaultInjectingIO()
        store = DiskPageStore(tmp_path / "store", pool_pages=8, io=io)
        store.begin_operation()
        a = store.allocate(PageKind.DATA, ["durable"])
        store.write(a)
        store.commit()
        store.begin_operation()
        store.read(a).append("lost")  # mutation after the last commit
        store.write(a)
        io.crashed = True  # die before the next commit

        back = _fresh(tmp_path)
        assert back.peek(a) == ["durable"]

    def test_peek_is_uncharged_and_never_promotes(self, tmp_path):
        store = _fresh(tmp_path)
        pids = []
        store.begin_operation()
        for i in range(12):  # larger than the pool
            pid = store.allocate(PageKind.DATA, [i])
            store.write(pid)
            pids.append(pid)
        store.commit()
        store.begin_operation()
        extra = store.allocate(PageKind.DATA, ["extra"])  # admission evicts
        store.write(extra)
        evicted = [p for p in pids if p not in store.pool.frames]
        assert evicted, "pool should have evicted something"
        before = store.stats.snapshot()
        target = evicted[0]
        assert store.peek(target) == [pids.index(target)]
        assert store.stats == before
        assert target not in store.pool.frames

    def test_write_without_residency_is_an_aliasing_error(self, tmp_path):
        store = _fresh(tmp_path)
        store.begin_operation()
        a = store.allocate(PageKind.DATA, ["held"])
        store.write(a)
        store.commit()
        store.begin_operation()
        del store.pool.frames[a]  # simulate an eviction of the held page
        with pytest.raises(AliasingError):
            store.write(a)

    def test_silent_mutation_is_caught_at_the_next_boundary(self, tmp_path):
        store = _fresh(tmp_path)
        WriteBarrier(store)
        store.begin_operation()
        a = store.allocate(PageKind.DATA, ["v1"])
        b = store.allocate(PageKind.DATA, ["other"])
        store.write(a)
        store.write(b)
        store.commit()
        store.begin_operation()
        store.read(a)[0] = "v2"  # mutate WITHOUT store.write(a)
        store.write(b)  # some other write makes the commit happen
        with pytest.raises(AuditError) as err:
            store.begin_operation()
        (violation,) = err.value.violations
        assert violation.code == "contract.unwritten"
        assert violation.message.startswith(f"page {a} (data, list) changed")
        # The commit logged b only; a's frame still holds the image a
        # commit logged, so the compaction refuses the drift as well.
        assert store.pool.silent_dirty == 0
        with pytest.raises(AliasingError, match=f"page {a} drifted"):
            store.checkpoint()

    def test_checkpoint_empties_wal_and_survives_reopen(self, tmp_path):
        store = _fresh(tmp_path)
        store.begin_operation()
        a = store.allocate(PageKind.DATA, list(range(10)))
        store.write(a)
        store.checkpoint()
        assert store._wal.size == store._wal.committed_end
        assert store.checkpoints == 1
        store.close()
        assert _fresh(tmp_path).peek(a) == list(range(10))

    def test_a_close_after_a_checkpoint_writes_nothing(self, tmp_path):
        """Nothing logged since the last compaction: neither a second
        checkpoint nor ``close()`` rewrites the base."""
        io = FaultInjectingIO(fail_after=None)
        store = _fresh(tmp_path, io=io)
        store.begin_operation()
        a = store.allocate(PageKind.DATA, list(range(10)))
        store.write(a)
        store.checkpoint()
        writes = io.writes
        store.checkpoint()
        store.close()
        assert io.writes == writes
        assert store.checkpoints == 1
        assert _fresh(tmp_path).peek(a) == list(range(10))

    def test_an_image_larger_than_a_page_survives_every_path(self, tmp_path):
        """A record holds an image of any length: 8 000 bytes at a 512 B
        page survive commit, eviction, reopen and compaction."""
        store = DiskPageStore(tmp_path / "store", pool_pages=4)
        store.begin_operation()
        big = store.allocate(PageKind.DATA, ["x" * 8000])
        store.write(big)
        for i in range(6):  # later operations push the page out of the pool
            store.begin_operation()
            store.write(store.allocate(PageKind.DATA, [i]))
        store.begin_operation()
        assert big not in store.pool.frames
        assert store.read(big) == ["x" * 8000]
        _crash(store)
        store = _fresh(tmp_path, pool_pages=4)
        assert store.peek(big) == ["x" * 8000]
        store.checkpoint()
        store.close()
        assert _fresh(tmp_path).peek(big) == ["x" * 8000]

    def test_a_page_file_of_another_version_is_refused_at_open(self, tmp_path):
        """The slotted layout (a version-2 ``RPGF`` page file beside a
        ``store.meta`` sidecar) is refused at open, before any replay,
        whichever of its two files is found."""
        directory = tmp_path / "store"
        directory.mkdir()
        (directory / "pages.dat").write_bytes(struct.pack("<4sIII", b"RPGF", 2, 8192, 512))
        (directory / "wal.log").write_bytes(struct.pack("<4sI", b"RWAL", 1))
        (directory / "store.meta").write_text(
            json.dumps({"format": "repro.storage/disk-meta/v1", "page_size": 512})
        )
        with pytest.raises(CorruptionError, match="version-2 store"):
            _fresh(tmp_path)
        (directory / "store.meta").unlink()
        with pytest.raises(CorruptionError, match="version 2"):
            _fresh(tmp_path)

    def test_page_size_mismatch_is_rejected(self, tmp_path):
        _fresh(tmp_path).close()
        with pytest.raises(ValueError, match="page_size"):
            DiskPageStore(tmp_path / "store", page_size=8192, pool_pages=8)

    def test_store_is_not_picklable(self, tmp_path):
        with pytest.raises(TypeError, match="cannot be pickled"):
            pickle.dumps(_fresh(tmp_path))

    def test_io_stats_shape(self, tmp_path):
        store = _fresh(tmp_path)
        stats = store.io_stats()
        assert stats["backend"] == "disk"
        for section in ("pool", "wal", "pagefile"):
            assert isinstance(stats[section], dict)


# -- the commit protocol ----------------------------------------------------


def _crash(store) -> None:
    """Drop the store's handles without a checkpoint."""
    store._wal.close()
    store._base.close()


class TestCommitProtocol:
    """One record per changed page, one write per commit, no write at
    recovery."""

    def test_an_unchanged_write_logs_nothing_and_still_recovers(self, tmp_path):
        store = _fresh(tmp_path)
        store.begin_operation()
        a = store.allocate(PageKind.DATA, ["v1"])
        b = store.allocate(PageKind.DATA, ["b1"])
        store.write(a)
        store.write(b)
        store.commit()
        for checkpoint in (False, True):  # image in the WAL, then in the base
            if checkpoint:
                store.checkpoint()
            records = store._wal.records_written
            store.begin_operation()
            store.read(a)
            store.write(a)  # written, not changed
            store.commit(meta="unchanged")
            assert store._wal.records_written == records + 2  # meta + commit
            store.begin_operation()
            store.read(b)[0] = f"b{2 + checkpoint}"
            store.write(a)
            store.write(b)
            store.commit()
            assert store._wal.records_written == records + 4  # b + commit
        _crash(store)
        store = _fresh(tmp_path)
        assert store.recovered
        assert store.peek(a) == ["v1"] and store.peek(b) == ["b3"]
        assert store.meta_blob == "unchanged"

    def test_recovery_writes_nothing(self, tmp_path):
        store = _fresh(tmp_path)
        store.begin_operation()
        a = store.allocate(PageKind.DATA, [0])
        b = store.allocate(PageKind.DIRECTORY, ["doomed"])
        store.write(a)
        store.write(b)
        for n in range(1, 6):
            store.begin_operation()
            store.read(a)[0] = n
            store.write(a)
            store.read(b).append(n)
            store.write(b)
            store.commit()
        store.begin_operation()
        store.free(b)
        store.commit()
        logged = Counter(
            r.fields[0] for r in store._wal.replay()[0] if r.kind == "page"
        )
        assert logged == {a: 6, b: 6}
        last_a = [r for r in store._wal.replay()[0] if r.kind == "page"][-2]
        _crash(store)
        io = FaultInjectingIO()
        store = _fresh(tmp_path, io=io)
        assert io.writes == 0
        assert store.page_ids() == [a] and store.peek(a) == [5]
        # a's page-table entry names its last committed record; b has none.
        meta = store.pool.pages[a]
        assert (meta.log, meta.offset, meta.crc) == (store._wal, last_a.offset, last_a.crc)

    def test_a_torn_commit_recovers_the_previous_one(self, tmp_path):
        io = FaultInjectingIO()
        store = _fresh(tmp_path, io=io)
        store.begin_operation()
        pids = [store.allocate(PageKind.DATA, [i]) for i in range(4)]
        for pid in pids:
            store.write(pid)
        store.commit(meta="first")
        store.begin_operation()
        for pid in pids:
            store.read(pid).append("lost")
            store.write(pid)
        io.fail_after, io.mode = io.writes + 1, "torn"
        with pytest.raises(InjectedCrash):
            store.commit(meta="second")
        store = _fresh(tmp_path)
        assert store.recovered and store.meta_blob == "first"
        assert [store.peek(pid) for pid in pids] == [[0], [1], [2], [3]]

    def test_an_equal_crc_is_not_an_equal_image(self, tmp_path, monkeypatch):
        monkeypatch.setattr(zlib, "crc32", lambda data, value=0: 0)  # all collide
        store = _fresh(tmp_path)
        store.begin_operation()
        a = store.allocate(PageKind.DATA, ["old"])
        store.write(a)
        store.commit()
        for checkpoint in (False, True):  # durable in the WAL, then in the base
            if checkpoint:
                store.checkpoint()
            records = store._wal.records_written
            store.begin_operation()
            store.read(a)[0] = "new" if checkpoint else "mid"  # same length
            store.write(a)
            store.commit()
            assert store._wal.records_written == records + 2  # a + commit
        _crash(store)
        store = _fresh(tmp_path)
        assert store.recovered and store.peek(a) == ["new"]
        store.close()
        assert _fresh(tmp_path).peek(a) == ["new"]

    def test_a_long_wal_checkpoints_inside_commits(self, tmp_path, monkeypatch):
        from repro.storage import disk

        monkeypatch.setattr(disk, "WAL_CHECKPOINT_BYTES", 4096)
        store = _fresh(tmp_path)
        header = store._wal.size
        depth, deepest, wal_after = 0, 0, []
        inner = store._checkpoint_inner

        def nested_checkpoint():
            nonlocal depth, deepest
            depth += 1
            deepest = max(deepest, depth)
            try:
                inner()
            finally:
                depth -= 1
            wal_after.append(store._wal.size)

        store._checkpoint_inner = nested_checkpoint
        shadow: dict[int, list] = {}
        for n in range(40):
            store.begin_operation()
            pid = store.allocate(PageKind.DATA, ["x" * 200, n])
            store.write(pid)
            shadow[pid] = ["x" * 200, n]
            if n:
                old = min(shadow)
                store.read(old)[1] = -n
                store.write(old)
                shadow[old][1] = -n
            store.commit()
        assert store.checkpoints >= 2  # each fired inside a commit
        # A checkpoint whose own commit passes the threshold does not
        # start another one.
        store.begin_operation()
        for n in range(20):
            pid = store.allocate(PageKind.DATA, ["y" * 200, n])
            store.write(pid)
            shadow[pid] = ["y" * 200, n]
        store.checkpoint()
        assert deepest == 1
        assert wal_after == [header] * store.checkpoints
        # Commits after the last checkpoint, then changes never committed.
        for n in range(3):
            store.begin_operation()
            pid = store.allocate(PageKind.DATA, ["z", n])
            store.write(pid)
            shadow[pid] = ["z", n]
            store.commit()
        assert store._wal.size > header
        store.begin_operation()
        store.write(store.allocate(PageKind.DATA, ["lost"]))
        store.read(min(shadow))[1] = "lost"
        store.write(min(shadow))
        _crash(store)
        store = _fresh(tmp_path)
        assert store.recovered
        assert sorted(store.page_ids()) == sorted(shadow)
        assert all(store.peek(pid) == value for pid, value in shadow.items())

    def test_a_torn_header_left_by_a_crashed_creation_is_reset(self, tmp_path):
        (tmp_path / "store").mkdir()
        (tmp_path / "store" / "wal.log").write_bytes(b"RW")
        store = _fresh(tmp_path)
        store.begin_operation()
        a = store.allocate(PageKind.DATA, ["kept"])
        store.write(a)
        store.commit()
        _crash(store)
        assert _fresh(tmp_path).peek(a) == ["kept"]


# -- the miss path ----------------------------------------------------------


def _rid(pid: int) -> int:
    return 1000 + pid


def _leaf(i: int, rows: int = 3) -> _Node:
    """An R-tree leaf as page ``i`` of a fresh store (page ids start at 0)."""
    node = _Node(is_leaf=True)
    node.rects = [Rect((0.01 * i, 0.1 * k), (0.01 * i + 0.5, 0.1 * k + 0.3)) for k in range(rows)]
    node.children = [_rid(i)]
    return node


class TestMissPath:
    """A miss is one ``pread``, and it refuses what two used to refuse."""

    POOL = 4

    def _spilled(self, tmp_path, pages=10, **kw):
        """A store holding more committed pages than its pool; returns
        ``(store, non-resident pids)``."""
        store = DiskPageStore(tmp_path / "store", pool_pages=self.POOL, fsync=False, **kw)
        pids = []
        for i in range(pages):
            store.begin_operation()
            pid = store.allocate(PageKind.DATA, _leaf(i))
            store.write(pid)
            pids.append(pid)
        store.begin_operation()
        store.begin_operation()
        cold = [p for p in pids if p not in store.pool.frames]
        assert len(cold) >= 4
        return store, cold

    def test_one_pread_per_miss_and_per_peek_load(self, tmp_path):
        io, calls = _counting_io()
        store, cold = self._spilled(tmp_path, io=io)
        pool = store.pool
        for pid in cold[:3]:
            before = calls["pread"], pool.misses
            assert store.read(pid).children == [_rid(pid)]
            assert (calls["pread"], pool.misses) == (before[0] + 1, before[1] + 1)
        pid = next(p for p in cold if p not in pool.frames)
        before = calls["pread"], pool.peek_loads, pool.misses
        assert store.peek(pid).children == [_rid(pid)]
        assert (calls["pread"], pool.peek_loads, pool.misses) == (
            before[0] + 1, before[1] + 1, before[2],
        )  # fmt: skip

    def test_stale_truncated_and_flipped_slots_are_still_refused(self, tmp_path):
        """A miss checks the record it reads (a page's slot is now its
        log record) against the page table: a flipped image byte, a
        page-table entry naming another record's CRC or length, and a
        log cut inside the record are each refused, by ``read`` and by
        ``peek``, and count no miss."""
        store, cold = self._spilled(tmp_path)
        flipped, stale, short, cut = cold[0], cold[1], cold[2], max(cold)
        pages = store.pool.pages
        assert all(pages[pid].log is store._wal for pid in cold)
        path = store.path / "wal.log"
        # One flipped image bit, frame header intact.
        raw = bytearray(path.read_bytes())
        meta = pages[flipped]
        raw[meta.offset + meta.length - 20] ^= 0x10
        path.write_bytes(raw)
        # A page table naming another image's CRC, then another length.
        pages[stale].crc = pages[cold[3]].crc
        pages[short].length -= 3
        # The log ends inside the last cold page's record.
        store._wal._fh.truncate(pages[cut].offset + pages[cut].length - 10)
        for pid, message in (
            (flipped, "fails its checksum"),
            (stale, "stale or foreign"),
            (short, "stale or foreign"),
            (cut, "cut short"),
        ):
            for load in (store.read, store.peek):
                with pytest.raises(CorruptionError, match=message):
                    load(pid)
        assert store.pool.misses == 0 and store.pool.peek_loads == 0

    def test_a_whole_page_pickle_is_refused_and_counts_no_miss(self, tmp_path):
        """A CRC-valid record whose image is a whole-page pickle
        (``0x80``), the format before the page codec, is corrupt to both
        loads."""
        store, cold = self._spilled(tmp_path)
        pid = cold[0]
        plant_image(store, pid, pickle.dumps(_leaf(pid), 4))
        for load in (store.read, store.peek):
            with pytest.raises(CorruptionError, match="starts with 0x80"):
                load(pid)
        assert store.pool.misses == 0 and store.pool.peek_loads == 0

    def test_unwritten_rtree_mutation_is_caught_at_the_next_boundary(self, tmp_path):
        store, cold = self._spilled(tmp_path)
        WriteBarrier(store)
        a, b, *rest = cold
        store.begin_operation()
        for pid in (a, b):  # off disk: each still packed, columns and no rows
            assert store.read(pid).rects._image[0] is None
            assert not store.pool.frames[pid].logged  # eviction would drop it unread
        store.read(a).rects[0] = Rect((0.0, 0.0), (0.5, 0.5))  # no store.write(a)
        store.read(b).rects.append(Rect((0.1, 0.1), (0.2, 0.2)))  # nor store.write(b)
        with pytest.raises(AuditError) as err:
            store.begin_operation()
        assert [v.code for v in err.value.violations] == ["contract.unwritten"] * 2
        assert [v.message.split(" (")[0] for v in err.value.violations] == [
            f"page {a}", f"page {b}",
        ]  # fmt: skip
        assert "(data, _Node)" in err.value.violations[0].message
        assert store.pool.silent_dirty == 0

    def test_a_drifted_wal_only_victim_is_counted_and_caught(self, tmp_path):
        store, cold = self._spilled(tmp_path)
        WriteBarrier(store)
        pool = store.pool
        store.begin_operation()
        a = store.allocate(PageKind.DATA, _leaf(20))
        store.write(a)
        store.begin_operation()  # commits a: logged while resident
        assert pool.frames[a].logged
        store.peek(a).rects.pop()  # a peek is not held: a stays evictable
        for pid in cold:  # misses; the scan meets a and checks it for drift
            store.read(pid)
        # The store counts the drift and keeps a resident as dirty, so the
        # barrier sees it at the very next boundary.
        assert pool.silent_dirty == 1 and a in pool.dirty
        with pytest.raises(AuditError) as err:
            store.begin_operation()
        (violation,) = err.value.violations
        assert violation.code == "contract.unwritten"
        assert violation.message.startswith(f"page {a} (data, _Node) changed")

    def test_the_default_store_pickles_nothing_it_was_not_told_to_write(
        self, tmp_path, monkeypatch
    ):
        """The page-mutation contract, trusted: a clean victim read from
        its record is a dict delete, and a commit pickles dirty pages only
        (the write barrier checks the trust, see the test above)."""
        from repro.storage import disk

        store, _ = self._spilled(tmp_path)
        store.checkpoint()  # the base now holds every committed page
        pool = store.pool
        assert not any(frame.logged for frame in pool.frames.values())
        dumped, encode = [], disk._dumps
        monkeypatch.setattr(disk, "_dumps", lambda obj: dumped.append(obj) or encode(obj))
        before = pool.evictions, pool.misses
        for _ in range(2):  # a query-only phase: misses and evictions, no writes
            for pid in store.page_ids():
                store.begin_operation()
                assert store.read(pid).children == [_rid(pid)]
        assert pool.evictions >= before[0] + 10 and pool.misses >= before[1] + 10
        assert dumped == [] and pool.silent_dirty == 0
        # A meta-less commit: three pages handed out, one written.
        store.begin_operation()
        a, b, c = store.page_ids()[:3]
        nodes = [store.read(pid) for pid in (a, b, c)]
        nodes[1].children.append(7)
        store.write(b)
        assert store.commit() and dumped == [nodes[1]]
        store.close()
        back = DiskPageStore(tmp_path / "store", pool_pages=self.POOL, fsync=False)
        assert back.peek(b).children == [_rid(b), 7]


class TestPageFile:
    """``pages.dat``, the base a checkpoint compacts the committed state
    into: its page records read back, and are refused, like the WAL's."""

    POOL = TestMissPath.POOL
    _spilled = TestMissPath._spilled

    def _compacted(self, tmp_path):
        """A checkpointed store whose non-resident pages live in the base."""
        store, cold = self._spilled(tmp_path)
        store.checkpoint()
        assert all(store.pool.pages[pid].log is store._base for pid in cold)
        return store, cold

    def test_roundtrip_and_crc(self, tmp_path):
        store, cold = self._compacted(tmp_path)
        pages = store.pool.pages
        replayed = {r.fields[0]: r for r in store._base.replay()[0] if r.kind == "page"}
        for pid in cold:
            meta = pages[pid]
            record = replayed[pid]
            assert (meta.offset, meta.length, meta.crc) == (
                record.offset, record.end_offset - record.offset, record.crc,
            )  # fmt: skip
            assert store._base.read(meta.offset, meta.length, meta.crc)[:3] == (
                "page", pid, "data",
            )  # fmt: skip
            assert store.read(pid).children == [_rid(pid)]
        store.close()
        back = DiskPageStore(tmp_path / "store", pool_pages=self.POOL, fsync=False)
        assert all(back.peek(pid).children == [_rid(pid)] for pid in cold)

    def test_corrupted_payload_is_detected(self, tmp_path):
        store, cold = self._compacted(tmp_path)
        pid = cold[0]
        meta = store.pool.pages[pid]
        path = store.path / "pages.dat"
        raw = bytearray(path.read_bytes())
        raw[meta.offset + meta.length - 20] ^= 0x10
        path.write_bytes(raw)
        for load in (store.read, store.peek):
            with pytest.raises(CorruptionError, match="fails its checksum"):
                load(pid)
        assert store.pool.misses == 0 and store.pool.peek_loads == 0
        _crash(store)
        with pytest.raises(CorruptionError, match="base is damaged"):
            DiskPageStore(tmp_path / "store", pool_pages=self.POOL, fsync=False)

    def test_stale_slot_vs_page_table(self, tmp_path):
        store, cold = self._compacted(tmp_path)
        store.pool.pages[cold[0]].crc = store.pool.pages[cold[1]].crc
        for load in (store.read, store.peek):
            with pytest.raises(CorruptionError, match="stale or foreign"):
                load(cold[0])
        assert store.read(cold[1]).children == [_rid(cold[1])]


# -- method persistence helpers ---------------------------------------------


def test_snapshot_and_restore_method(tmp_path):
    from repro.pam.gridfile import GridFile

    store = _fresh(tmp_path, pool_pages=16)
    grid = GridFile(store)
    for i in range(50):
        grid.insert((i / 50.0, (i * 7 % 50) / 50.0), i)
    blob = pickle.loads(pickle.dumps(snapshot_method(grid)))
    store.commit()

    clone = restore_method(store, blob)
    assert sorted(clone.iter_records()) == sorted(grid.iter_records())
    clone.audit()
