"""Buffer-pool invariants (ISSUE satellite: pool correctness).

Four guarantees, each pinned by a test:

* a pinned page is never evicted, no matter the pressure;
* the budget bounds *steady-state* residency — between operation
  brackets the pool never holds more clean evictable frames than its
  budget, and a single operation's working set bounds the excursion;
* an uncharged ``peek`` never promotes a page into the pool and never
  perturbs hit/miss accounting;
* a scripted access sequence produces exactly the hit/miss/eviction
  counts the pool's order predicts — frames kept least recently touched
  first, a hit moved to the end, the first clean unpinned frame before
  the current operation's tail evicted.  The numbers in
  ``TestScriptedCounts`` are hand-traced, so an accidental policy
  change shows up as a counter diff, not a vague slowdown.

A hypothesis shadow-dict test then drives random op streams against the
store and checks contents, the order, residency and recovery all at
once.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.disk import DiskPageStore
from repro.storage.page import PageKind

POOL = 4  # the minimum budget; keeps hand traces short


@pytest.fixture
def store(tmp_path):
    s = DiskPageStore(tmp_path / "store", pool_pages=POOL, fsync=False)
    yield s
    if not s._closed:
        s.close()


def _alloc(store, value):
    pid = store.allocate(PageKind.DATA, [value])
    store.write(pid)
    return pid


class TestScriptedCounts:
    def test_scripted_sequence_counts(self, store):
        pool = store.pool
        # Phase 1: fill the pool exactly.  Writes are neither hits nor
        # misses; nothing is evictable while dirty.  Order: a b c d.
        store.begin_operation()
        a, b, c, d = (_alloc(store, v) for v in "abcd")
        store.commit()
        assert (pool.hits, pool.misses, pool.evictions) == (0, 0, 0)
        assert list(pool.frames) == [a, b, c, d]

        # Phase 2: admit a fifth page at the end (e is the operation's
        # tail, so exempt); `a`, at the front, goes.  Order: b c d e.
        store.begin_operation()
        e = _alloc(store, "e")
        store.commit()
        assert (pool.hits, pool.misses, pool.evictions) == (0, 0, 1)
        assert a not in pool.frames

        # Phase 3: fault `a` back in (miss, evicts `b` from the front),
        # then re-read `a` and `e` (hits, each moved to the end).
        # Order: c d a e.
        store.begin_operation()
        assert store.read(a) == ["a"]
        assert store.read(a) == ["a"]
        assert store.read(e) == ["e"]
        assert (pool.hits, pool.misses, pool.evictions) == (2, 1, 2)
        assert list(pool.frames) == [c, d, a, e]

        # Phase 4: fault `b` back (miss); `c` is at the front, so `c`
        # goes.  Order: d a e b.
        store.begin_operation()
        assert store.read(b) == ["b"]
        assert (pool.hits, pool.misses, pool.evictions) == (2, 2, 3)
        assert list(pool.frames) == [d, a, e, b]
        assert (pool.peek_loads, pool.overflows) == (0, 0)

    def test_a_reread_page_outlives_older_ones(self, store):
        """A hit moves its frame to the end: `a`, read again one operation
        after its admission, outlives `b`, the oldest frame untouched
        since."""
        pool = store.pool
        store.begin_operation()
        a, b, c, d = (_alloc(store, v) for v in "abcd")
        store.begin_operation()
        assert store.read(a) == ["a"]
        assert list(pool.frames) == [b, c, d, a]
        store.begin_operation()
        e = _alloc(store, "e")
        store.commit()
        assert (pool.hits, pool.misses, pool.evictions) == (1, 0, 1)
        assert list(pool.frames) == [c, d, a, e]

    def test_hit_rate(self, store):
        store.begin_operation()
        a = _alloc(store, 1)
        store.commit()
        store.begin_operation()
        store.read(a)
        assert store.pool.hit_rate == 1.0


class TestPinnedPages:
    def test_pinned_page_survives_any_pressure(self, store):
        store.begin_operation()
        root = _alloc(store, "root")
        store.pin(root)
        store.commit()
        for i in range(5 * POOL):
            store.begin_operation()
            _alloc(store, i)
            store.commit()
            assert root in store.pool.frames, f"pinned page evicted at step {i}"
        assert store.read(root) == ["root"]
        assert store.pool.evictions > 0  # pressure was real

    def test_unpinned_page_becomes_evictable(self, store):
        store.begin_operation()
        root = _alloc(store, "root")
        store.pin(root)
        store.commit()
        store.unpin(root)
        store.commit()
        for i in range(3 * POOL):
            store.begin_operation()
            _alloc(store, i)
            store.commit()
        assert root not in store.pool.frames


class TestBudget:
    def test_steady_state_residency_is_bounded(self, store):
        for i in range(6 * POOL):
            store.begin_operation()
            _alloc(store, i)
            store.commit()
            assert len(store.pool.frames) <= POOL
        assert store.pool.overflows == 0

    def test_single_op_working_set_overflows_loudly(self, store):
        store.begin_operation()
        pids = [_alloc(store, i) for i in range(3 * POOL)]
        # One operation touched 3x the budget: every frame is dirty or
        # op-protected, so the pool grows instead of corrupting.
        assert len(store.pool.frames) == 3 * POOL
        assert store.pool.overflows > 0
        store.commit()
        # The next brackets shrink residency back under budget as
        # admissions find evictable frames again.
        store.begin_operation()
        extra = _alloc(store, "extra")
        store.commit()
        assert len(store.pool.frames) <= POOL
        # Nothing was lost along the way.
        store.begin_operation()
        for i, pid in enumerate(pids):
            assert store.read(pid) == [i]

    def test_budget_floor_is_enforced(self, tmp_path):
        with pytest.raises(ValueError, match="at least 4"):
            DiskPageStore(tmp_path / "store", pool_pages=2)


class TestPeek:
    def test_peek_never_promotes_never_charges(self, store):
        store.begin_operation()
        pids = [_alloc(store, i) for i in range(2 * POOL)]
        store.commit()
        store.begin_operation()
        _alloc(store, "pressure")  # force evictions
        store.commit()
        victim = next(p for p in pids if p not in store.pool.frames)
        before = (
            store.stats.snapshot(),
            store.pool.hits,
            store.pool.misses,
            dict.fromkeys(store.pool.frames),
        )
        assert store.peek(victim) == [pids.index(victim)]
        after = (
            store.stats.snapshot(),
            store.pool.hits,
            store.pool.misses,
            dict.fromkeys(store.pool.frames),
        )
        assert before == after
        assert store.pool.peek_loads == 1

    def test_peek_of_resident_page_reads_the_live_object(self, store):
        store.begin_operation()
        pid = _alloc(store, "live")
        obj = store.read(pid)
        obj.append("mutated")
        store.write(pid)
        assert store.peek(pid) == ["live", "mutated"]
        assert store.pool.peek_loads == 0  # no slot IO for resident pages


# -- randomized shadow-dict property test -----------------------------------


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.just(("alloc",)),
            st.tuples(st.just("write"), st.integers(0, 200), st.integers()),
            st.tuples(st.just("read"), st.integers(0, 200)),
            st.tuples(st.just("free"), st.integers(0, 200)),
            st.tuples(st.just("pin"), st.integers(0, 200)),
            st.just(("commit",)),
        ),
        min_size=5,
        max_size=80,
    )
)
def test_pool_matches_shadow_dict(tmp_path_factory, ops):
    """Random op streams: the pool behaves exactly like a plain dict."""
    tmp = tmp_path_factory.mktemp("pool-shadow")
    store = DiskPageStore(tmp / "store", pool_pages=POOL, fsync=False)
    shadow: dict[int, list] = {}
    counter = 0
    try:
        for op in ops:
            store.begin_operation()
            misses = store.pool.misses
            live = sorted(shadow)
            if op[0] == "alloc":
                pid = store.allocate(PageKind.DATA, [counter])
                store.write(pid)
                shadow[pid] = [counter]
                counter += 1
            elif not live:
                continue
            elif op[0] == "write":
                pid = live[op[1] % len(live)]
                obj = store.read(pid)
                obj.append(op[2])
                store.write(pid)
                shadow[pid].append(op[2])
            elif op[0] == "read":
                pid = live[op[1] % len(live)]
                assert store.read(pid) == shadow[pid]
            elif op[0] == "free":
                pid = live[op[1] % len(live)]
                store.free(pid)
                del shadow[pid]
            elif op[0] == "pin":
                pid = live[op[1] % len(live)]
                store.pin(pid)
            elif op[0] == "commit":
                store.commit()
            # Invariants, every step: pinned and dirty pages resident,
            # page table matches the shadow exactly.
            pool = store.pool
            assert all(p in pool.frames for p in store._pinned)
            assert all(p in pool.frames for p in pool.dirty)
            assert sorted(pool.pages) == sorted(shadow)
            # The current operation's frames are the order's tail ...
            stamps = [frame.op for frame in pool.frames.values()]
            older = stamps.index(pool.op) if pool.op in stamps else len(stamps)
            assert all(stamp == pool.op for stamp in stamps[older:])
            # ... and right after an admission the pool is over budget only
            # when nothing before the tail could go.  (A later step that
            # admits nothing, say a hit, can find a frame committed since
            # then still over budget: the next admission evicts it.)
            if op[0] == "alloc" or pool.misses > misses:
                assert len(pool.frames) <= POOL or all(
                    p in pool.dirty or p in store._pinned
                    for p in list(pool.frames)[:older]
                )
        # Everything survives a full close/reopen cycle.
        store.close()
        store = DiskPageStore(tmp / "store", pool_pages=POOL, fsync=False)
        assert sorted(store.page_ids()) == sorted(shadow)
        for pid, value in shadow.items():
            assert store.peek(pid) == value
    finally:
        if not store._closed:
            store.close()
