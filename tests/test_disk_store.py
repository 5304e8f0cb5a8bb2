"""Units for the durable storage stack: IO shim, WAL, page file, store.

The crash *property* tests live in ``test_crash_recovery.py`` and the
pool invariants in ``test_buffer_pool.py``; this file covers the
mechanics those build on — framing, checksums, fault injection,
lifecycle parity with the simulated store, checkpoints.
"""

from __future__ import annotations

import pickle
import zlib
from collections import Counter

import pytest

from repro.geometry.rect import Rect
from repro.sam.rtree import _Node
from repro.storage.disk import (
    AliasingError,
    CorruptionError,
    DiskPageStore,
    PageFile,
    PageOverflowError,
    default_slot_size,
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
        with pytest.raises(ValueError, match="not a WAL"):
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
        header_only = (tmp_path / "wal").stat().st_size
        for pid in range(5):
            wal.append("page", pid, "data", b"x" * 100)
        wal.append("free", 9)
        assert calls["pwrite"] == 1  # the header
        assert (tmp_path / "wal").stat().st_size == header_only
        wal.commit(next_id=10, pinned=[1])
        assert calls["pwrite"] == 2 and calls["fsync"] == 1
        assert (tmp_path / "wal").stat().st_size == wal.size == wal.committed_end
        wal.reset()  # keeps the current header: no write a crash could tear
        assert calls["pwrite"] == 2
        assert (tmp_path / "wal").stat().st_size == header_only

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


# -- the page file ----------------------------------------------------------


class TestPageFile:
    def test_roundtrip_and_crc(self, tmp_path):
        pf = PageFile(tmp_path / "pages", OsFileIO(), 4096, 512)
        crc = pf.write_slot(3, PageKind.DATA, b"payload")
        kind, payload = pf.read_slot(3, expected_crc=crc)
        assert kind is PageKind.DATA and payload == b"payload"

    def test_overflow_is_loud(self, tmp_path):
        pf = PageFile(tmp_path / "pages", OsFileIO(), 4096, 512)
        with pytest.raises(PageOverflowError):
            pf.write_slot(0, PageKind.DATA, b"x" * 4096)

    def test_corrupted_payload_is_detected(self, tmp_path):
        pf = PageFile(tmp_path / "pages", OsFileIO(), 4096, 512)
        pf.write_slot(0, PageKind.DIRECTORY, b"sensitive")
        raw = bytearray((tmp_path / "pages").read_bytes())
        raw[PageFile.HEADER_SIZE + PageFile.SLOT_HEADER] ^= 0x01
        (tmp_path / "pages").write_bytes(raw)
        pf2 = PageFile(tmp_path / "pages", OsFileIO(), 4096, 512)
        with pytest.raises(CorruptionError, match="checksum"):
            pf2.read_slot(0)

    def test_stale_slot_vs_page_table(self, tmp_path):
        pf = PageFile(tmp_path / "pages", OsFileIO(), 4096, 512)
        pf.write_slot(0, PageKind.DATA, b"old")
        with pytest.raises(CorruptionError, match="stale"):
            pf.read_slot(0, expected_crc=0xDEAD)

    def test_length_hint_is_one_pread_and_a_wrong_hint_only_costs_a_second(self, tmp_path):
        io, calls = _counting_io()
        pf = PageFile(tmp_path / "pages", io, 4096, 512)
        crc = pf.write_slot(2, PageKind.DATA, b"payload")
        for hint, preads in ((7, 1), (0, 2), (3, 2), (4000, 2)):
            before = calls["pread"]
            assert pf.read_slot(2, crc, hint) == (PageKind.DATA, b"payload")
            assert calls["pread"] - before == preads, hint
        assert pf.bytes_read == 4 * (PageFile.SLOT_HEADER + 7)

    def test_default_slot_size_scales_with_page_size(self):
        assert default_slot_size(512) >= 16 * 512
        assert default_slot_size(8192) >= 16 * 8192
        assert default_slot_size(512) % 4096 == 0


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
        # The commit logged b only; a's image is still only in the WAL,
        # so the checkpoint's flush refuses the drift as well.
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

    def test_page_overflow_names_the_remedy(self, tmp_path):
        store = DiskPageStore(tmp_path / "store", pool_pages=8, slot_size=4096)
        store.begin_operation()
        a = store.allocate(PageKind.DATA, ["x" * 8000])
        store.write(a)
        with pytest.raises(PageOverflowError, match="slot_size"):
            store.commit()

    def test_a_page_file_of_another_version_is_refused_at_open(self, tmp_path):
        """A version-1 page file may hold whole-page pickles: the store
        refuses it when opened, sidecar present, before any miss."""
        store = _fresh(tmp_path)
        store.begin_operation()
        store.write(store.allocate(PageKind.DATA, ["kept"]))
        store.close()
        path = tmp_path / "store" / "pages.dat"
        raw = bytearray(path.read_bytes())
        raw[4:8] = (1).to_bytes(4, "little")  # the header's version field
        path.write_bytes(raw)
        assert (tmp_path / "store" / "store.meta").exists()
        with pytest.raises(CorruptionError, match="version 1"):
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
    store._pagefile.close()


class TestCommitProtocol:
    """One record per changed page, one write per commit, one slot write
    per page at recovery."""

    def test_an_unchanged_write_logs_nothing_and_still_recovers(self, tmp_path):
        store = _fresh(tmp_path)
        store.begin_operation()
        a = store.allocate(PageKind.DATA, ["v1"])
        b = store.allocate(PageKind.DATA, ["b1"])
        store.write(a)
        store.write(b)
        store.commit()
        for checkpoint in (False, True):  # image in the WAL, then in the slot
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

    def test_recovery_writes_each_page_once(self, tmp_path):
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
        _crash(store)
        store = _fresh(tmp_path)
        assert store._pagefile.writes == 1  # a's last image; b's none
        assert store.page_ids() == [a] and store.peek(a) == [5]

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
        for checkpoint in (False, True):  # durable in the WAL, then in the slot
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

    def test_a_length_only_stale_page_table_reads_the_slot_it_names(self, tmp_path):
        io, calls = _counting_io()
        store, cold = self._spilled(tmp_path, io=io)
        store.pool.pages[cold[0]].length += 3  # the CRC still names the slot's image
        before = calls["pread"]
        assert store.peek(cold[0]).children == [_rid(cold[0])]
        assert calls["pread"] == before + 2

    def test_stale_truncated_and_flipped_slots_are_still_refused(self, tmp_path):
        store, cold = self._spilled(tmp_path)
        stale, flipped, cut = cold[0], cold[1], max(cold)
        pagefile = store._pagefile
        # A slot rewritten behind the page table's back: other length, other CRC.
        pagefile.write_slot(stale, PageKind.DATA, pickle.dumps(_leaf(99, rows=5), 4))
        with pytest.raises(CorruptionError, match="stale"):
            store.read(stale)
        with pytest.raises(CorruptionError, match="stale"):
            store.peek(stale)
        # One flipped payload bit, length and header intact.
        path = store.path / "pages.dat"
        raw = bytearray(path.read_bytes())
        raw[pagefile._offset(flipped) + PageFile.SLOT_HEADER + 20] ^= 0x10
        path.write_bytes(raw)
        with pytest.raises(CorruptionError, match="checksum"):
            store.read(flipped)
        # The file ends inside the last cold slot's payload, then before its header.
        handle = pagefile._fh
        handle.truncate(pagefile._offset(cut) + PageFile.SLOT_HEADER + 10)
        with pytest.raises(CorruptionError, match="checksum"):
            store.read(cut)
        handle.truncate(pagefile._offset(cut) + 4)
        with pytest.raises(CorruptionError, match="slot missing"):
            store.peek(cut)
        assert store.pool.misses == 0 and store.pool.peek_loads == 0

    def test_a_whole_page_pickle_is_refused_and_counts_no_miss(self, tmp_path):
        """A CRC-valid slot whose image is a whole-page pickle (``0x80``),
        the format before the page codec, is corrupt to both loads."""
        store, cold = self._spilled(tmp_path)
        pid = cold[0]
        payload = pickle.dumps(_leaf(pid), 4)
        meta = store.pool.pages[pid]
        meta.crc = store._pagefile.write_slot(pid, PageKind.DATA, payload)
        meta.length = len(payload)
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
            assert store.pool.pages[pid].on_disk  # a current slot: eviction would drop it
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
        store.begin_operation()  # commits a: its image is in the WAL only
        assert not pool.pages[a].on_disk and a in pool.frames
        store.peek(a).rects.pop()  # a peek is not held: a stays evictable
        for pid in cold:  # misses; the scan meets a and encodes it for its slot
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
        """The page-mutation contract, trusted: a clean victim whose slot
        is current is a dict delete, and a commit pickles dirty pages only
        (the write barrier checks the trust, see the test above)."""
        from repro.storage import disk

        store, _ = self._spilled(tmp_path)
        store.checkpoint()  # every committed page now has a current slot
        pool = store.pool
        assert all(m.on_disk for m in pool.pages.values())
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
