"""Deterministic differential fuzzer for every access method.

``python -m repro.verify.fuzz`` generates a seeded operation sequence
(inserts, deletes, all query types, drawn from the paper's data
distributions) per structure, applies it both to the structure and to a
brute-force oracle, compares every query answer and delete outcome, and
runs the structure's invariant auditor after every ``--audit-every``
mutations.  At the end, the records ``iter_records()`` yields must be
the oracle's live records.  A failure is shrunk to a minimal operation
sequence with a greedy delta-debugging pass and written to
``results/fuzz/`` as a self-contained JSON reproducer ``{structure,
seed, ops, failure}``.

Operation sequences are precomputed from ``--seed`` alone, so a run is
fully reproducible; per-structure seeds are derived with a stable CRC
so adding a structure never perturbs the others.
"""

from __future__ import annotations

import argparse
import json
import sys
import zlib
from collections import Counter
from pathlib import Path
from random import Random
from typing import Any, Callable

from repro.geometry.rect import Rect
from repro.pam.bang import BangFile
from repro.pam.buddytree import BuddyTree
from repro.pam.gridfile import GridFile
from repro.pam.hbtree import HBTree
from repro.pam.kdbtree import KdBTree
from repro.pam.mlgf import MultilevelGridFile
from repro.pam.plop import PlopHashing, QuantileHashing
from repro.pam.twingrid import TwinGridFile
from repro.pam.twolevelgrid import TwoLevelGridFile
from repro.pam.zbtree import ZOrderBTree
from repro.sam.clipping import ClippingSAM
from repro.sam.overlapping import OverlappingPlop
from repro.sam.rplustree import RPlusTree
from repro.sam.rtree import RTree
from repro.sam.transformation import TransformationSAM
from repro.storage.factory import make_store
from repro.storage.pagestore import PageStore
from repro.verify.barrier import WriteBarrier
from repro.verify.invariants import AuditError
from repro.verify.oracle import PamOracle, SamOracle
from repro.workloads.distributions import generate_point_file
from repro.workloads.rect_distributions import generate_rect_file

__all__ = ["STRUCTURES", "fuzz_structure", "main"]

#: Point distributions mixed into the PAM pools ("real" is excluded
#: only because generating it dominates the runtime).
_POINT_FILES = ("diagonal", "sinus", "bit", "x_parallel", "cluster", "uniform")

#: Rectangle distributions mixed into the SAM pools.
_RECT_FILES = (
    "uniform_small",
    "uniform_large",
    "gaussian_square",
    "gaussian_slim",
    "diagonal",
)


def _spec(
    kind: str,
    factory: Callable[[PageStore], Any],
    deletes: bool = False,
    pack_every: int | None = None,
) -> dict:
    return {
        "kind": kind,
        "factory": factory,
        "deletes": deletes,
        "pack_every": pack_every,
    }


#: The fuzz matrix: every access method of the repro, including the
#: option variants whose code paths differ (MBR bookkeeping, entry
#: encodings, packing).  BUDDY+ mixes pack() calls into the sequence
#: and therefore — like the paper's build — never deletes: deleting
#: from a packed file would rewrite regions of shared pages.
STRUCTURES: dict[str, dict] = {
    # -- point access methods
    "GRID": _spec("pam", lambda s: TwoLevelGridFile(s)),
    "GRID-1": _spec("pam", lambda s: GridFile(s), deletes=True),
    "TWIN": _spec("pam", lambda s: TwinGridFile(s)),
    "BANG": _spec("pam", lambda s: BangFile(s)),
    "BANG*": _spec(
        "pam", lambda s: BangFile(s, variable_length_entries=True)
    ),
    "BANG-MBR": _spec("pam", lambda s: BangFile(s, minimal_regions=True)),
    "HB": _spec("pam", lambda s: HBTree(s)),
    "HB-MBR": _spec("pam", lambda s: HBTree(s, minimal_regions=True)),
    "BUDDY": _spec("pam", lambda s: BuddyTree(s), deletes=True),
    "BUDDY+": _spec("pam", lambda s: BuddyTree(s), pack_every=120),
    "MLGF": _spec("pam", lambda s: MultilevelGridFile(s), deletes=True),
    "KDB": _spec("pam", lambda s: KdBTree(s)),
    "ZB": _spec("pam", lambda s: ZOrderBTree(s)),
    "PLOP": _spec("pam", lambda s: PlopHashing(s)),
    "QUANTILE": _spec("pam", lambda s: QuantileHashing(s)),
    # -- spatial access methods
    "R": _spec("sam", lambda s: RTree(s), deletes=True),
    "R-GREENE": _spec("sam", lambda s: RTree(s, split_policy="greene")),
    "R+": _spec("sam", lambda s: RPlusTree(s)),
    "T-BANG": _spec(
        "sam",
        lambda s: TransformationSAM(
            s, lambda store, dims: BangFile(store, dims=dims, variable_length_entries=True)
        ),
    ),
    "T-BUDDY": _spec(
        "sam",
        lambda s: TransformationSAM(
            s, lambda store, dims: BuddyTree(store, dims=dims)
        ),
    ),
    "PLOP-SAM": _spec("sam", lambda s: OverlappingPlop(s)),
    "CLIP": _spec("sam", lambda s: ClippingSAM(s)),
}


def structure_seed(name: str, base_seed: int) -> int:
    """A per-structure seed that is stable across matrix edits."""
    return (base_seed * 1_000_003 + zlib.crc32(name.encode())) % (2**31)


# -- operation generation --------------------------------------------------


def _point_pool(n: int, seed: int) -> list[tuple[float, ...]]:
    """``n`` distinct points mixing the paper's distributions."""
    per = -(-n // len(_POINT_FILES))
    pool: list[tuple[float, ...]] = []
    seen: set[tuple[float, ...]] = set()
    for i, name in enumerate(_POINT_FILES):
        for point in generate_point_file(name, per, seed=seed * 37 + i + 1):
            if point not in seen:
                seen.add(point)
                pool.append(point)
    Random(seed).shuffle(pool)
    return pool


def _rect_pool(n: int, seed: int) -> list[Rect]:
    per = -(-n // len(_RECT_FILES))
    pool: list[Rect] = []
    for i, name in enumerate(_RECT_FILES):
        pool.extend(generate_rect_file(name, per, seed=seed * 41 + i + 1))
    Random(seed).shuffle(pool)
    return pool


def make_pam_ops(
    n_ops: int, seed: int, deletes: bool, pack_every: int | None
) -> list[list]:
    """A seeded PAM operation sequence (JSON-serialisable)."""
    rng = Random(seed)
    pool = _point_pool(n_ops + 64, seed)
    ops: list[list] = []
    live: list[tuple[tuple[float, ...], int]] = []
    dead: list[tuple[float, ...]] = []
    next_rid = 0
    pool_i = 0
    inserts_since_pack = 0
    for _ in range(n_ops):
        draw = rng.random()
        if draw < (0.5 if deletes else 0.6) or not live:
            if dead and rng.random() < 0.25:
                # Reinsertion of a previously deleted point exercises
                # the merge/split hysteresis paths.
                point = dead.pop(rng.randrange(len(dead)))
            else:
                point = pool[pool_i]
                pool_i += 1
            ops.append(["insert", list(point), next_rid])
            live.append((point, next_rid))
            next_rid += 1
            inserts_since_pack += 1
            if pack_every and inserts_since_pack >= pack_every:
                ops.append(["pack"])
                inserts_since_pack = 0
        elif deletes and draw < 0.62:
            if live and rng.random() < 0.8:
                point, rid = live.pop(rng.randrange(len(live)))
                dead.append(point)
                ops.append(["delete", list(point), rid])
            else:
                # A certain miss: rid -1 is never assigned.
                ops.append(["delete", [rng.random(), rng.random()], -1])
        elif draw < 0.78:
            if live and rng.random() < 0.7:
                center, _ = live[rng.randrange(len(live))]
            else:
                center = (rng.random(), rng.random())
            half = rng.choice((0.005, 0.02, 0.08, 0.25))
            lo = [max(0.0, c - half) for c in center]
            hi = [min(1.0, c + half) for c in center]
            ops.append(["range", lo, hi])
        elif draw < 0.9:
            if live and rng.random() < 0.7:
                point, _ = live[rng.randrange(len(live))]
            else:
                point = (rng.random(), rng.random())
            ops.append(["exact", list(point)])
        else:
            axis = rng.randrange(2)
            if live and rng.random() < 0.7:
                value = live[rng.randrange(len(live))][0][axis]
            else:
                value = rng.random()
            ops.append(["pm", [[axis, value]]])
    return ops


def make_sam_ops(n_ops: int, seed: int, deletes: bool) -> list[list]:
    """A seeded SAM operation sequence (JSON-serialisable)."""
    rng = Random(seed)
    pool = _rect_pool(n_ops + 64, seed)
    ops: list[list] = []
    live: list[tuple[Rect, int]] = []
    next_rid = 0
    pool_i = 0
    for _ in range(n_ops):
        draw = rng.random()
        if draw < (0.5 if deletes else 0.6) or not live:
            rect = pool[pool_i]
            pool_i += 1
            ops.append(["insert", list(rect.lo), list(rect.hi), next_rid])
            live.append((rect, next_rid))
            next_rid += 1
        elif deletes and draw < 0.62:
            if live and rng.random() < 0.8:
                rect, rid = live.pop(rng.randrange(len(live)))
                ops.append(["delete", list(rect.lo), list(rect.hi), rid])
            else:
                x, y = rng.random() * 0.9, rng.random() * 0.9
                ops.append(
                    ["delete", [x, y], [x + 0.01, y + 0.01], -1]
                )
        elif draw < 0.72:
            if live and rng.random() < 0.7:
                rect, _ = live[rng.randrange(len(live))]
                point = rect.center if rng.random() < 0.5 else rect.lo
            else:
                point = (rng.random(), rng.random())
            ops.append(["point", list(point)])
        else:
            qtype = rng.choice(("intersection", "containment", "enclosure"))
            if qtype == "enclosure" and live and rng.random() < 0.5:
                # A window inside a stored rectangle, so enclosure
                # queries actually hit.
                rect, _ = live[rng.randrange(len(live))]
                cx, cy = rect.center
                lo = [cx, cy]
                hi = [min(1.0, cx + 1e-4), min(1.0, cy + 1e-4)]
            else:
                half = rng.choice((0.01, 0.05, 0.15, 0.4))
                center = (rng.random(), rng.random())
                lo = [max(0.0, c - half) for c in center]
                hi = [min(1.0, c + half) for c in center]
            ops.append([qtype, lo, hi])
    return ops


def make_ops(spec: dict, n_ops: int, seed: int) -> list[list]:
    if spec["kind"] == "pam":
        return make_pam_ops(n_ops, seed, spec["deletes"], spec["pack_every"])
    return make_sam_ops(n_ops, seed, spec["deletes"])


# -- differential execution ------------------------------------------------


def _failure(index: int, op: list, code: str, detail: str) -> dict:
    return {"op_index": index, "op": op, "code": code, "detail": detail}


def _mismatch(index, op, got, want) -> dict:
    return _failure(
        index,
        op,
        "mismatch",
        f"structure answered {got!r}, oracle answered {want!r}",
    )


def run_ops(
    spec: dict,
    ops: list[list],
    audit_every: int,
    store_factory: Callable[[], PageStore] | None = None,
) -> dict | None:
    """Run ``ops`` differentially; returns a failure record or None.

    ``store_factory`` builds the page store under test; ``None`` defers
    to :func:`repro.storage.factory.make_store` (and so to
    ``REPRO_STORE_BACKEND``), keeping the simulated store the default.

    The page-mutation contract is part of the verdict on both backends:
    the store runs under a :class:`WriteBarrier`, which raises an
    ``AuditError`` (``contract.unwritten``) at the operation boundary
    after a page changed without a ``write()``.  The store is
    closed on the way out, whatever the verdict; a close that raises is
    a finding only when the run itself found nothing.
    """
    store = store_factory() if store_factory is not None else make_store()
    failure = None
    try:
        failure = _differential(spec, ops, audit_every, store)
    finally:
        try:
            store.close()
        except Exception as exc:  # noqa: BLE001 - a failed close is a finding
            failure = failure or _failure(*_last(ops), "exception", repr(exc))
    return failure


def _last(ops: list[list]) -> tuple[int, list | None]:
    return len(ops) - 1, ops[-1] if ops else None


def _differential(
    spec: dict, ops: list[list], audit_every: int, store: PageStore
) -> dict | None:
    barrier = WriteBarrier(store)
    am = spec["factory"](store)
    oracle = PamOracle() if spec["kind"] == "pam" else SamOracle()
    mutations = 0
    for index, op in enumerate(ops):
        kind = op[0]
        mutated = False
        try:
            if spec["kind"] == "pam":
                if kind == "insert":
                    point, rid = tuple(op[1]), op[2]
                    am.insert(point, rid)
                    oracle.insert(point, rid)
                    mutated = True
                elif kind == "delete":
                    point, rid = tuple(op[1]), op[2]
                    got = am.delete(point, rid)
                    want = oracle.delete(point, rid)
                    if got != want:
                        return _mismatch(index, op, got, want)
                    mutated = True
                elif kind == "pack":
                    am.pack()
                    mutated = True
                elif kind == "range":
                    rect = Rect(tuple(op[1]), tuple(op[2]))
                    got = sorted(am.range_query(rect), key=repr)
                    want = oracle.range_query(rect)
                    if got != want:
                        return _mismatch(index, op, got, want)
                elif kind == "exact":
                    point = tuple(op[1])
                    got = sorted(am.exact_match(point), key=repr)
                    want = oracle.exact_match(point)
                    if got != want:
                        return _mismatch(index, op, got, want)
                elif kind == "pm":
                    specified = {axis: value for axis, value in op[1]}
                    got = sorted(am.partial_match(specified), key=repr)
                    want = oracle.partial_match(specified)
                    if got != want:
                        return _mismatch(index, op, got, want)
                else:
                    raise ValueError(f"unknown PAM op {kind!r}")
            else:
                if kind == "insert":
                    rect = Rect(tuple(op[1]), tuple(op[2]))
                    am.insert(rect, op[3])
                    oracle.insert(rect, op[3])
                    mutated = True
                elif kind == "delete":
                    rect = Rect(tuple(op[1]), tuple(op[2]))
                    got = am.delete(rect, op[3])
                    want = oracle.delete(rect, op[3])
                    if got != want:
                        return _mismatch(index, op, got, want)
                    mutated = True
                elif kind == "point":
                    point = tuple(op[1])
                    got = sorted(am.point_query(point), key=repr)
                    want = oracle.point_query(point)
                    if got != want:
                        return _mismatch(index, op, got, want)
                elif kind in ("intersection", "containment", "enclosure"):
                    rect = Rect(tuple(op[1]), tuple(op[2]))
                    got = sorted(getattr(am, kind)(rect), key=repr)
                    want = getattr(oracle, kind)(rect)
                    if got != want:
                        return _mismatch(index, op, got, want)
                else:
                    raise ValueError(f"unknown SAM op {kind!r}")
        except AuditError as err:
            return _failure(index, op, "audit", str(err))
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            return _failure(index, op, "exception", repr(exc))
        if mutated:
            mutations += 1
            if audit_every and mutations % audit_every == 0:
                try:
                    am.audit()
                except AuditError as err:
                    return _failure(index, op, "audit", str(err))
    try:
        barrier.check()
        am.audit()
    except AuditError as err:
        return _failure(*_last(ops), "audit", str(err))
    # The audit passed, so the walk is sound; its records must be the
    # oracle's, not just as many.
    stored = sorted(am.iter_records(), key=repr)
    live = sorted(oracle.records, key=repr)
    if stored != live:
        held, want = Counter(map(repr, stored)), Counter(map(repr, live))
        return _failure(
            *_last(ops),
            "records",
            f"iter_records() yields {len(stored)} records, the oracle holds "
            f"{len(live)}; missing {sorted(want - held)[:3]}, extra "
            f"{sorted(held - want)[:3]}",
        )
    return None


# -- shrinking -------------------------------------------------------------


def shrink_ops(
    still_fails: Callable[[list[list]], bool], ops: list[list]
) -> list[list]:
    """Greedy delta-debugging: drop chunks while the failure persists."""
    current = list(ops)
    chunk = max(len(current) // 2, 1)
    while True:
        shrunk = False
        i = 0
        while i < len(current):
            candidate = current[:i] + current[i + chunk :]
            if candidate and still_fails(candidate):
                current = candidate
                shrunk = True
            else:
                i += chunk
        if chunk == 1:
            if not shrunk:
                return current
        elif not shrunk:
            chunk = max(chunk // 2, 1)


# -- the harness -----------------------------------------------------------


def fuzz_structure(
    name: str,
    n_ops: int,
    seed: int,
    audit_every: int,
    out_dir: Path,
    store_factory: Callable[[], PageStore] | None = None,
) -> dict | None:
    """Fuzz one structure; on failure, shrink and write a reproducer."""
    spec = STRUCTURES[name]
    sseed = structure_seed(name, seed)
    ops = make_ops(spec, n_ops, sseed)
    failure = run_ops(spec, ops, audit_every, store_factory)
    if failure is None:
        return None
    shrunk = shrink_ops(
        lambda candidate: run_ops(spec, candidate, audit_every, store_factory)
        is not None,
        ops,
    )
    final = run_ops(spec, shrunk, audit_every, store_factory) or failure
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name.replace('*', 'star').replace('+', 'plus')}-seed{seed}.json"
    path.write_text(
        json.dumps(
            {
                "structure": name,
                "seed": seed,
                "structure_seed": sseed,
                "ops": shrunk,
                "failure": final,
            },
            indent=2,
        )
    )
    final = dict(final)
    final["reproducer"] = str(path)
    final["shrunk_ops"] = len(shrunk)
    return final


def replay(path: str | Path) -> dict | None:
    """Re-run a written reproducer file; returns the failure or None."""
    blob = json.loads(Path(path).read_text())
    return run_ops(STRUCTURES[blob["structure"]], blob["ops"], audit_every=1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.fuzz",
        description="Differential fuzz harness for every access method.",
    )
    parser.add_argument(
        "--ops", type=int, default=1000, help="operations per structure"
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument(
        "--structures",
        default="",
        help="comma-separated structure names (default: all)",
    )
    parser.add_argument(
        "--audit-every",
        type=int,
        default=50,
        help="audit after this many mutations (0: only at the end)",
    )
    parser.add_argument(
        "--out",
        default="results/fuzz",
        help="directory for shrunk reproducers",
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=("sim", "disk"),
        help="page-store backend (default: REPRO_STORE_BACKEND, else sim)",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        help="base directory for disk-backend store files "
        "(kept for post-mortems; default: a temporary directory)",
    )
    parser.add_argument(
        "--pool-pages",
        type=int,
        default=None,
        help="disk-backend buffer pool budget in pages",
    )
    args = parser.parse_args(argv)
    store_factory = None
    if args.backend or args.store_dir or args.pool_pages:
        store_factory = lambda: make_store(  # noqa: E731
            backend=args.backend or "disk",
            directory=args.store_dir,
            pool_pages=args.pool_pages,
        )
    names = (
        [n.strip() for n in args.structures.split(",") if n.strip()]
        if args.structures
        else list(STRUCTURES)
    )
    unknown = [n for n in names if n not in STRUCTURES]
    if unknown:
        parser.error(
            f"unknown structures {unknown}; choose from {sorted(STRUCTURES)}"
        )
    out_dir = Path(args.out)
    failures = 0
    for name in names:
        failure = fuzz_structure(
            name, args.ops, args.seed, args.audit_every, out_dir, store_factory
        )
        if failure is None:
            print(f"{name:10s} ok   ({args.ops} ops)")
        else:
            failures += 1
            print(
                f"{name:10s} FAIL [{failure['code']}] at op "
                f"{failure['op_index']} -> {failure.get('reproducer')} "
                f"({failure.get('shrunk_ops')} ops after shrinking)"
            )
            print(f"           {failure['detail']}")
    if failures:
        print(f"{failures}/{len(names)} structures failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
