"""Crash-recovery property tests (ISSUE satellite: fault injection).

The harness runs a seeded 200-op fuzz stream against a
:class:`~repro.storage.disk.DiskPageStore`, committing after every
operation with the access-method state riding in the commit's meta
blob.  A :class:`~repro.storage.io.FaultInjectingIO` kills the store at
a chosen write index — fail-stop, torn write, or bit flip — and the
test then recovers from disk with a *fresh* IO provider, restores the
method from the last committed meta blob, audits it, and diffs
``iter_records()`` against an oracle replay of exactly the committed
operation prefix.  Anything the WAL claims was committed must be there,
bit for bit; anything after the crash point must be gone.

Coverage knobs:

* the deterministic tests sample fail points through the whole write
  budget of their stream: fail-stop every ``writes // 25``-th index,
  torn writes and bit flips every ``writes // 8``-th, mid-checkpoint
  crashes every ``writes // 12``-th.  ``REPRO_CRASH_STRIDE=1`` makes all
  of them sweep every write index (a step of CI's storage job);
* the hypothesis test samples random ``(structure, seed, fail point,
  mode)`` tuples on a shorter stream, so every run explores new crash
  points beyond the deterministic grid.

Structures chosen to cover distinct storage behaviours: ``GRID-1``
(pinned in-core directory + deletes), ``BUDDY+`` (``pack()`` fuses data
pages and repoints directory entries outside any operation bracket; it
writes every page it changes, as the write barrier checks in the fuzz
on both backends), ``R`` (a SAM with deletes).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.rect import Rect
from repro.storage.disk import DiskPageStore, restore_method, snapshot_method
from repro.storage.io import FaultInjectingIO, InjectedCrash
from repro.verify.fuzz import STRUCTURES, make_ops

CRASH_STRUCTURES = ("GRID-1", "BUDDY+", "R")
POOL = 8


# -- applying fuzz ops without the differential oracle -----------------------


def _apply(am, kind: str, op: list) -> None:
    tag = op[0]
    if kind == "pam":
        if tag == "insert":
            am.insert(tuple(op[1]), op[2])
        elif tag == "delete":
            am.delete(tuple(op[1]), op[2])
        elif tag == "pack":
            am.pack()
        elif tag == "range":
            am.range_query(Rect(tuple(op[1]), tuple(op[2])))
        elif tag == "exact":
            am.exact_match(tuple(op[1]))
        elif tag == "pm":
            am.partial_match({axis: value for axis, value in op[1]})
        else:  # pragma: no cover - generator bug
            raise ValueError(f"unknown PAM op {tag!r}")
    else:
        if tag == "insert":
            am.insert(Rect(tuple(op[1]), tuple(op[2])), op[3])
        elif tag == "delete":
            am.delete(Rect(tuple(op[1]), tuple(op[2])), op[3])
        elif tag == "point":
            am.point_query(tuple(op[1]))
        elif tag in ("intersection", "containment", "enclosure"):
            getattr(am, tag)(Rect(tuple(op[1]), tuple(op[2])))
        else:  # pragma: no cover - generator bug
            raise ValueError(f"unknown SAM op {tag!r}")


def _committed_records(kind: str, ops: list[list]) -> list[list]:
    """``expected[k]`` = sorted ``iter_records()`` after ``ops[:k]``."""
    shadow: dict[int, object] = {}
    expected = [[]]
    for op in ops:
        if op[0] == "insert":
            if kind == "pam":
                shadow[op[2]] = tuple(op[1])
            else:
                shadow[op[3]] = Rect(tuple(op[1]), tuple(op[2]))
        elif op[0] == "delete":
            shadow.pop(op[2] if kind == "pam" else op[3], None)
        expected.append(sorted(((key, rid) for rid, key in shadow.items()), key=repr))
    return expected


# -- one crash + recovery cycle ----------------------------------------------


def _run_until_crash(path, spec, ops, io) -> None:
    """Apply ``ops`` with a per-op meta commit until the IO dies."""
    store = DiskPageStore(path, pool_pages=POOL, io=io)
    am = spec["factory"](store)
    for i, op in enumerate(ops):
        _apply(am, spec["kind"], op)
        store.commit(meta={"applied": i + 1, "method": snapshot_method(am)})
    store.close()


def _recover_and_check(path, spec, expected) -> int:
    """Reopen with healthy IO; audit; diff records. Returns ops recovered."""
    store = DiskPageStore(path, pool_pages=POOL)
    try:
        blob = store.meta_blob
        if blob is None:
            # Died before the first op's commit (possibly even before
            # the initial sidecar landed): no method to restore, but
            # reopening must still have succeeded cleanly.
            assert store.page_ids() == sorted(store.page_ids())
            return 0
        assert store.recovered
        applied = blob["applied"]
        am = restore_method(store, blob["method"])
        am.audit()
        got = sorted(am.iter_records(), key=repr)
        assert got == expected[applied], (
            f"recovered state diverges from the committed prefix "
            f"(applied={applied})"
        )
        return applied
    finally:
        store.close()


def _crash_cycle(tmp, spec, ops, expected, fail_after, mode, seed) -> int:
    io = FaultInjectingIO(fail_after=fail_after, mode=mode, seed=seed)
    died = False
    try:
        _run_until_crash(tmp, spec, ops, io)
    except InjectedCrash:
        died = True
    assert died, f"stream finished before write #{fail_after}; widen the sweep"
    return _recover_and_check(tmp, spec, expected)


# -- deterministic sweeps ----------------------------------------------------


def _count_writes(tmp, spec, ops) -> int:
    io = FaultInjectingIO(fail_after=None)
    _run_until_crash(tmp, spec, ops, io)
    return io.writes


def _sweep_points(writes: int, sampled: range) -> list[int]:
    """``sampled`` by default; every ``REPRO_CRASH_STRIDE``-th index of
    ``1 .. writes`` when that is set."""
    stride = int(os.environ.get("REPRO_CRASH_STRIDE", "0") or 0)
    return list(range(1, writes + 1, stride) if stride > 0 else sampled)


@pytest.mark.parametrize("name", CRASH_STRUCTURES)
def test_crash_sweep_recovers_committed_prefix(name, tmp_path):
    """Fail-stop at every ``stride``-th write index of a 200-op stream."""
    spec = STRUCTURES[name]
    ops = make_ops(spec, 200, seed=42)
    expected = _committed_records(spec["kind"], ops)
    writes = _count_writes(tmp_path / "dry", spec, ops)
    assert writes > 200  # the stream must actually stress the WAL
    recovered_counts = set()
    for i, fail_after in enumerate(
        _sweep_points(writes, range(1, writes + 1, max(1, writes // 25)))
    ):
        applied = _crash_cycle(
            tmp_path / f"run{i}", spec, ops, expected, fail_after, "stop", seed=1
        )
        recovered_counts.add(applied)
    # Crash points spread over the whole stream: early crashes recover
    # little, late crashes recover almost everything.
    assert min(recovered_counts) < 20
    assert max(recovered_counts) > 150


@pytest.mark.parametrize("mode", ["torn", "flip"])
@pytest.mark.parametrize("name", CRASH_STRUCTURES)
def test_corrupting_crashes_never_surface_bad_data(name, mode, tmp_path):
    """Torn writes and bit flips at sampled indices (every index under
    ``REPRO_CRASH_STRIDE=1``): the damaged tail is detected (checksums)
    and dropped, never replayed."""
    spec = STRUCTURES[name]
    ops = make_ops(spec, 120, seed=9)
    expected = _committed_records(spec["kind"], ops)
    writes = _count_writes(tmp_path / "dry", spec, ops)
    sampled = range(3, writes, max(1, writes // 8))
    for i, fail_after in enumerate(_sweep_points(writes, sampled)):
        _crash_cycle(
            tmp_path / f"{mode}{i}", spec, ops, expected, fail_after, mode, seed=i
        )


def test_crash_during_checkpoint_is_recoverable(tmp_path):
    """The checkpoint path (slot flush + sidecar rename + WAL reset) has
    its own write pattern; crash through all of it (at sampled indices,
    or every one under ``REPRO_CRASH_STRIDE=1``)."""
    spec = STRUCTURES["GRID-1"]
    ops = make_ops(spec, 60, seed=5)
    expected = _committed_records(spec["kind"], ops)

    def run(io):
        store = DiskPageStore(tmp_path / "ckpt", pool_pages=POOL, io=io)
        am = spec["factory"](store)
        for i, op in enumerate(ops):
            _apply(am, spec["kind"], op)
            store.commit(meta={"applied": i + 1, "method": snapshot_method(am)})
            if (i + 1) % 10 == 0:
                store.checkpoint()
        store.close()

    run(FaultInjectingIO(fail_after=None))
    writes = FaultInjectingIO(fail_after=None)
    import shutil

    shutil.rmtree(tmp_path / "ckpt")
    run(writes)
    sampled = range(5, writes.writes, max(1, writes.writes // 12))
    for i, fail_after in enumerate(_sweep_points(writes.writes, sampled)):
        shutil.rmtree(tmp_path / "ckpt", ignore_errors=True)
        io = FaultInjectingIO(fail_after=fail_after, mode="stop", seed=i)
        try:
            run(io)
        except InjectedCrash:
            pass
        _recover_and_check(tmp_path / "ckpt", spec, expected)


# -- randomized exploration --------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(CRASH_STRUCTURES),
    seed=st.integers(0, 2**16),
    frac=st.floats(0.01, 0.99),
    mode=st.sampled_from(["stop", "torn", "flip"]),
)
def test_crash_recovery_property(tmp_path_factory, name, seed, frac, mode):
    """Random (structure, stream seed, crash point, failure mode)."""
    tmp = tmp_path_factory.mktemp("crash-prop")
    spec = STRUCTURES[name]
    ops = make_ops(spec, 60, seed=seed)
    expected = _committed_records(spec["kind"], ops)
    writes = _count_writes(tmp / "dry", spec, ops)
    fail_after = max(1, int(writes * frac))
    _crash_cycle(tmp / "run", spec, ops, expected, fail_after, mode, seed=seed)
