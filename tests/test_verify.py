"""The verification subsystem itself: auditors, oracle, fuzzer, wiring.

Three angles: (1) every structure's auditor is green on honest builds,
(2) auditors actually *detect* injected page-level corruption, and
(3) the differential fuzzer finds, shrinks and replays a planted bug.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.geometry.rect import Rect
from repro.pam.buddytree import BuddyTree
from repro.pam.gridfile import _GridLayer
from repro.pam.mlgf import MultilevelGridFile
from repro.pam.plop import QuantileHashing
from repro.sam.rtree import RTree
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore
from repro.verify import Audit, AuditError, Violation, run_audit
from repro.verify.barrier import WriteBarrier
from repro.verify.fuzz import (
    STRUCTURES,
    fuzz_structure,
    make_ops,
    replay,
    run_ops,
    shrink_ops,
    structure_seed,
)
from repro.verify.oracle import PamOracle, SamOracle

from tests.conftest import make_clustered_points, make_points, make_rects


class TestAuditorsGreen:
    """Honest builds across every structure carry zero violations."""

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_audit_green_after_build(self, name):
        spec = STRUCTURES[name]
        am = spec["factory"](PageStore())
        if spec["kind"] == "pam":
            for rid, point in enumerate(make_points(150, seed=7)):
                am.insert(point, rid)
        else:
            for rid, rect in enumerate(make_rects(150, seed=7)):
                am.insert(rect, rid)
        if spec["pack_every"]:
            am.pack()
        assert run_audit(am) == []
        am.audit()  # must not raise

    @pytest.mark.parametrize("name", ["BUDDY", "BANG", "HB", "GRID", "KDB"])
    def test_audit_green_on_clustered_data(self, name):
        am = STRUCTURES[name]["factory"](PageStore())
        for rid, point in enumerate(make_clustered_points(200, seed=3)):
            am.insert(point, rid)
        assert run_audit(am) == []

    def test_audit_green_after_deletions(self):
        tree = BuddyTree(PageStore(), 2)
        points = make_points(120, seed=11)
        for rid, point in enumerate(points):
            tree.insert(point, rid)
        for rid, point in enumerate(points[::2]):
            assert tree.delete(point, 2 * rid)
        assert run_audit(tree) == []

    def test_buddy_plus_mixed_pack_insert_sequence(self):
        """Regression: directory splits after pack() used to separate
        entries sharing a data page (violating property 4) and to leave
        stale MBRs behind after unsharing.  This replays the seeded fuzz
        sequence that found both."""
        from repro.verify.fuzz import make_ops, run_ops, structure_seed

        spec = STRUCTURES["BUDDY+"]
        ops = make_ops(spec, 400, structure_seed("BUDDY+", 0))
        assert run_ops(spec, ops, audit_every=10) is None

    def test_mro_dispatch_covers_subclasses(self):
        """MLGF and QUANTILE have no auditor of their own; the base
        class auditor must be found through the MRO, not reported
        missing."""
        for cls in (MultilevelGridFile, QuantileHashing):
            am = cls(PageStore(), 2)
            for rid, point in enumerate(make_points(60, seed=5)):
                am.insert(point, rid)
            violations = run_audit(am)
            assert violations == []

    def test_unregistered_type_reports_missing_auditor(self):
        class NotAnAccessMethod:
            store = PageStore()

            def iter_records(self):
                return iter(())

            def __len__(self):
                return 0

        violations = run_audit(NotAnAccessMethod())
        assert [v.code for v in violations] == ["auditor.missing"]


class TestCorruptionDetection:
    """Auditors flag page-level corruption injected behind the API."""

    def _data_pages(self, store):
        return [
            pid for pid in store.page_ids() if store.kind(pid) == PageKind.DATA
        ]

    def test_buddy_detects_misplaced_record(self):
        tree = BuddyTree(PageStore(), 2)
        for rid, point in enumerate(make_points(120, seed=1)):
            tree.insert(point, rid)
        pages = self._data_pages(tree.store)
        assert len(pages) >= 2
        src = tree.store.peek(pages[0])
        dst = tree.store.peek(pages[1])
        dst.records.append(src.records.pop())
        codes = {v.code for v in run_audit(tree)}
        assert "buddy.mbr-exact" in codes
        with pytest.raises(AuditError) as err:
            tree.audit()
        assert err.value.violations

    def test_buddy_detects_lost_record(self):
        tree = BuddyTree(PageStore(), 2)
        for rid, point in enumerate(make_points(80, seed=2)):
            tree.insert(point, rid)
        page = tree.store.peek(self._data_pages(tree.store)[0])
        page.records.pop()
        codes = {v.code for v in run_audit(tree)}
        assert "records.count" in codes

    def test_rtree_detects_stale_mbr(self):
        tree = RTree(PageStore(), 2)
        for rid, rect in enumerate(make_rects(80, seed=1)):
            tree.insert(rect, rid)
        root = tree.store.peek(tree._root_pid)
        assert not root.is_leaf, "need a directory root for this test"
        lo, hi = root.rects[0].lo, root.rects[0].hi
        root.rects[0] = Rect(lo, tuple(min(1.0, h + 0.25) for h in hi))
        codes = {v.code for v in run_audit(tree)}
        assert "rtree.mbr-exact" in codes

    def test_audit_error_message_lists_codes(self):
        tree = BuddyTree(PageStore(), 2)
        for rid, point in enumerate(make_points(120, seed=1)):
            tree.insert(point, rid)
        pages = self._data_pages(tree.store)
        dst = tree.store.peek(pages[1])
        dst.records.append(tree.store.peek(pages[0]).records.pop())
        with pytest.raises(AuditError, match=r"buddy\.mbr-exact"):
            tree.audit()

    def test_violation_is_hashable_value_object(self):
        a = Violation("x.code", "message")
        b = Violation("x.code", "message")
        assert a == b and hash(a) == hash(b)

    def test_audit_object_collects_checks(self):
        tree = BuddyTree(PageStore(), 2)
        audit = Audit(tree)
        assert audit.check(True, "ok", "never recorded")
        assert not audit.check(False, "bad", "recorded")
        assert [v.code for v in audit.violations] == ["bad"]


class TestOracles:
    def test_pam_oracle_round_trip(self):
        oracle = PamOracle()
        oracle.insert((0.1, 0.2), 0)
        oracle.insert((0.3, 0.4), 1)
        assert oracle.exact_match((0.1, 0.2)) == [0]
        assert oracle.partial_match({0: 0.3}) == [((0.3, 0.4), 1)]
        assert oracle.delete((0.1, 0.2), 0)
        assert not oracle.delete((0.1, 0.2), 0)
        assert oracle.range_query(Rect.unit(2)) == [((0.3, 0.4), 1)]

    def test_sam_oracle_query_types(self):
        oracle = SamOracle()
        oracle.insert(Rect((0.1, 0.1), (0.4, 0.4)), "a")
        oracle.insert(Rect((0.2, 0.2), (0.3, 0.3)), "b")
        probe = Rect((0.15, 0.15), (0.35, 0.35))
        assert oracle.intersection(probe) == ["a", "b"]
        assert oracle.containment(probe) == ["b"]
        assert oracle.enclosure(Rect((0.25, 0.25), (0.26, 0.26))) == ["a", "b"]
        assert oracle.point_query((0.25, 0.25)) == ["a", "b"]
        assert oracle.delete(Rect((0.2, 0.2), (0.3, 0.3)), "b")
        assert oracle.intersection(probe) == ["a"]


class TestFuzzer:
    def test_ops_are_deterministic(self):
        for name in ("BUDDY", "R"):
            spec = STRUCTURES[name]
            seed = structure_seed(name, 0)
            assert make_ops(spec, 80, seed) == make_ops(spec, 80, seed)

    def test_structure_seeds_are_distinct(self):
        seeds = {structure_seed(name, 0) for name in STRUCTURES}
        assert len(seeds) == len(STRUCTURES)

    @pytest.mark.parametrize("name", ["GRID-1", "BUDDY", "BUDDY+", "R", "CLIP"])
    def test_run_ops_green_smoke(self, name):
        spec = STRUCTURES[name]
        ops = make_ops(spec, 150, structure_seed(name, 0))
        assert run_ops(spec, ops, audit_every=25) is None

    def test_fuzz_structure_green_writes_nothing(self, tmp_path):
        assert fuzz_structure("ZB", 100, 0, 20, tmp_path) is None
        assert list(tmp_path.iterdir()) == []

    def test_fuzzer_finds_shrinks_and_replays_planted_bug(
        self, tmp_path, monkeypatch
    ):
        class _LyingBuddy(BuddyTree):
            """Drops every rid >= 3 from exact-match answers."""

            def exact_match(self, point):
                return [
                    rid
                    for rid in super().exact_match(point)
                    if not (isinstance(rid, int) and rid >= 3)
                ]

        spec = {
            "kind": "pam",
            "factory": lambda s: _LyingBuddy(s, 2),
            "deletes": False,
            "pack_every": None,
        }
        points = make_points(6, seed=9)
        ops = [["insert", list(p), rid] for rid, p in enumerate(points)]
        ops += [["exact", list(p)] for p in points]
        failure = run_ops(spec, ops, audit_every=0)
        assert failure is not None and failure["code"] == "mismatch"

        shrunk = shrink_ops(
            lambda candidate: run_ops(spec, candidate, 0) is not None, ops
        )
        # Minimal reproducer: one insert with rid >= 3, one exact query.
        assert len(shrunk) == 2
        assert shrunk[0][0] == "insert" and shrunk[0][2] >= 3
        assert shrunk[1] == ["exact", shrunk[0][1]]

        monkeypatch.setitem(STRUCTURES, "LYING", spec)
        report = fuzz_structure("LYING", 40, 0, 10, tmp_path)
        assert report is not None and report["code"] == "mismatch"
        path = tmp_path / "LYING-seed0.json"
        assert report["reproducer"] == str(path)
        blob = json.loads(path.read_text())
        assert blob["structure"] == "LYING"
        assert blob["ops"] and blob["failure"]["code"] == "mismatch"
        assert replay(path) is not None

    def test_reproducer_filenames_escape_shell_chars(self, tmp_path, monkeypatch):
        class _Broken(BuddyTree):
            def exact_match(self, point):
                return []

        spec = {
            "kind": "pam",
            "factory": lambda s: _Broken(s, 2),
            "deletes": False,
            "pack_every": None,
        }
        monkeypatch.setitem(STRUCTURES, "BAD*", spec)
        report = fuzz_structure("BAD*", 40, 0, 0, tmp_path)
        assert report is not None
        assert (tmp_path / "BADstar-seed0.json").is_file()

    def test_cli_green_run(self, tmp_path, capsys):
        from repro.verify.fuzz import main

        rc = main(
            [
                "--ops",
                "80",
                "--seed",
                "0",
                "--structures",
                "GRID,BUDDY",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "GRID" in out and "ok" in out

    def test_cli_rejects_unknown_structure(self, tmp_path):
        from repro.verify.fuzz import main

        with pytest.raises(SystemExit):
            main(["--structures", "NOPE", "--out", str(tmp_path)])


def _pack_without_directory_write(self):
    """``BuddyTree.pack`` as it was before it wrote the directory pages
    whose entries ``_fuse`` repoints."""
    write = self.store.write
    self.store.write = lambda pid: (
        write(pid) if self.store.kind(pid) is PageKind.DATA else None
    )
    try:
        return _REAL_PACK(self)
    finally:
        del self.store.write


_REAL_PACK = BuddyTree.pack


class TestWriteBarrier:
    """The page-mutation contract: a page image changes only inside an
    operation that calls write()/allocate()/free() on it."""

    @pytest.mark.parametrize("name", list(STRUCTURES))
    def test_every_structure_keeps_the_contract(self, name):
        spec = STRUCTURES[name]
        ops = make_ops(spec, 300, structure_seed(name, 7))
        assert run_ops(spec, ops, audit_every=0, store_factory=PageStore) is None

    def test_the_barrier_sees_windows_not_calls(self):
        store = PageStore()
        barrier = WriteBarrier(store)
        store.begin_operation()  # operation 0
        pid = store.allocate(PageKind.DATA, [1])
        store.read(pid).append(2)  # allocated in this window: no write needed
        store.begin_operation()  # operation 1
        store.read(pid).append(3)  # ahead of its write, in the same window
        store.write(pid)
        store.begin_operation()  # operation 2
        doomed = store.allocate(PageKind.DIRECTORY, {})
        store.begin_operation()  # operation 3
        store.read(doomed)["x"] = 1
        store.free(doomed)
        store.begin_operation()  # operation 4
        store.read(pid).append(4)  # and nobody calls write()
        with pytest.raises(AuditError) as err:
            store.begin_operation()
        (violation,) = err.value.violations
        assert violation.code == "contract.unwritten"
        assert "page 0 (data, list)" in violation.message
        assert "during operation 4 " in violation.message
        barrier.check()  # reported once: the new image is the baseline now

    def test_held_pages_are_paid_for_by_their_operation(self):
        store = PageStore()
        barrier = WriteBarrier(store)
        root = store.allocate(PageKind.DIRECTORY, {})
        store.pin(root)
        page = store.allocate(PageKind.DATA, [1])
        store.held(page)  # allocated in this window
        store.begin_operation()  # operation 0
        store.held(root)  # pinned: resident by definition, never read
        store.held(page)  # a lookahead at a page the operation then reads
        store.read(page)
        store.begin_operation()  # operation 1
        store.held(page).append(2)  # ahead of its write
        store.write(page)
        store.begin_operation()  # operation 2
        store.held(page)  # and nothing reads, writes or allocates it
        with pytest.raises(AuditError) as err:
            store.begin_operation()
        (violation,) = err.value.violations
        assert violation.code == "contract.uncharged"
        assert violation.message.startswith("page 1 (data, list) reached through held()")
        assert "during operation 2," in violation.message
        barrier.check()  # a window of its own

    def test_a_method_that_reaches_past_its_reads_is_shrunk(self, tmp_path, monkeypatch):
        class _Lookahead(RTree):
            """Holds children of the root ahead of a point query: all of
            them, or only those whose rectangle the replay descends into."""

            everything = True

            def _point_query(self, point):
                root = self.store.held(self._root_pid)  # pinned
                if not root.is_leaf:
                    for rect, child in zip(root.rects, root.children):
                        if self.everything or rect.contains_point(point):
                            self.store.held(child)
                return super()._point_query(point)

        spec = {
            "kind": "sam",
            "factory": lambda s: _Lookahead(s),
            "deletes": False,
            "pack_every": None,
        }
        monkeypatch.setitem(STRUCTURES, "LOOKAHEAD", spec)
        small = lambda: PageStore(128)  # noqa: E731 - a root split within a few inserts
        report = fuzz_structure("LOOKAHEAD", 300, 0, 0, tmp_path, small)
        assert report["code"] == "audit" and "contract.uncharged" in report["detail"]
        assert "(data, _Node) reached through held()" in report["detail"]
        ops = json.loads((tmp_path / "LOOKAHEAD-seed0.json").read_text())["ops"]
        assert report["shrunk_ops"] == len(ops) < 40
        op = int(re.search(r"during operation (\d+),", report["detail"])[1])
        assert ops[op][0] == "point"
        # A lookahead at exactly what the replay reads is the plan's contract.
        monkeypatch.setattr(_Lookahead, "everything", False)
        stream = make_ops(spec, 300, structure_seed("LOOKAHEAD", 0))
        assert run_ops(spec, stream, audit_every=0, store_factory=small) is None

    def test_the_barrier_keeps_the_observer_it_replaced(self):
        from repro.obs.tracer import Tracer

        store = PageStore()
        tracer = Tracer().attach(store)
        WriteBarrier(store)
        store.begin_operation()
        store.write(store.allocate(PageKind.DATA, [1]))
        store.begin_operation()
        assert len(tracer.finish()) == 2 and tracer.stats() == store.stats

    def test_a_forgetful_method_is_shrunk_to_a_reproducer(self, tmp_path, monkeypatch):
        class _Scribbler(BuddyTree):
            """Reorders the records of a data page on every range query:
            the answers stay right, the image moves, nobody calls write()."""

            def _range_query(self, rect):
                store = self.store
                for pid in store.page_ids():
                    if store.kind(pid) is PageKind.DATA and len(store.peek(pid).records) > 1:
                        store.read(pid).records.reverse()
                        break
                return super()._range_query(rect)

        spec = {
            "kind": "pam",
            "factory": lambda s: _Scribbler(s, 2),
            "deletes": False,
            "pack_every": None,
        }
        monkeypatch.setitem(STRUCTURES, "SCRIBBLER", spec)
        report = fuzz_structure("SCRIBBLER", 60, 0, 0, tmp_path, PageStore)
        assert report["code"] == "audit" and "contract.unwritten" in report["detail"]
        blob = json.loads((tmp_path / "SCRIBBLER-seed0.json").read_text())
        kinds = [op[0] for op in blob["ops"]]  # a partial match runs as a range query
        assert kinds[:2] == ["insert", "insert"] and kinds[2:] in (["range"], ["pm"])

    def test_grid_without_its_getstate_is_caught(self, tmp_path, monkeypatch):
        monkeypatch.delattr(_GridLayer, "__getstate__")
        report = fuzz_structure("GRID", 300, 7, 0, tmp_path, PageStore)
        assert report["code"] == "audit" and report["shrunk_ops"] < 100
        assert "contract.unwritten" in report["detail"] and "_SubGrid" in report["detail"]

    def test_pack_without_its_directory_write_is_caught(self, tmp_path, monkeypatch):
        monkeypatch.setattr(BuddyTree, "pack", _pack_without_directory_write)
        # Small pages: the root was written by the insert whose window
        # pack() shares, so it takes a second directory level to show.
        report = fuzz_structure("BUDDY+", 300, 7, 0, tmp_path, lambda: PageStore(192))
        assert report["code"] == "audit" and report["op"] == ["pack"]
        assert "contract.unwritten" in report["detail"] and "_DirNode" in report["detail"]

    def test_unbracketed_pack_is_attributed_to_the_window_it_ran_in(self, monkeypatch):
        points = make_clustered_points(150, seed=3)

        def packed(pack):
            monkeypatch.setattr(BuddyTree, "pack", pack)
            store = PageStore(192)  # two directory levels by 150 records
            WriteBarrier(store)
            tree = BuddyTree(store, 2)
            for rid, point in enumerate(points):
                tree.insert(point, rid)  # operations 0 .. 149
            assert tree.pack() > 0  # no bracket of its own: still operation 149
            return tree

        assert len(packed(_REAL_PACK).range_query(Rect.unit(2))) == 150
        with pytest.raises(AuditError, match=r"_DirNode\) changed during operation 149 "):
            packed(_pack_without_directory_write).range_query(Rect.unit(2))


class TestExperimentWiring:
    def test_build_pam_audit_flag(self):
        from repro.core.comparison import build_pam

        pam = build_pam(
            lambda s, dims=2: BuddyTree(s, dims),
            make_points(60, seed=4),
            audit=True,
        )
        assert len(pam) == 60

    def test_build_sam_audit_flag(self):
        from repro.core.comparison import build_sam

        sam = build_sam(
            lambda s, dims=2: RTree(s, dims), make_rects(60, seed=4), audit=True
        )
        assert len(sam) == 60

    def test_audit_env_variable(self, monkeypatch):
        from repro.core.comparison import build_pam, run_pam_experiment

        audits = []
        monkeypatch.setattr(BuddyTree, "audit", lambda self: audits.append(self))
        factories = {"BUDDY": lambda s, dims=2: BuddyTree(s, dims)}
        points = make_points(40, seed=4)
        monkeypatch.setenv("REPRO_AUDIT", "1")
        build_pam(factories["BUDDY"], points)  # builders take values only
        run_pam_experiment(factories, points, audit=False)  # explicit beats the env
        assert audits == []
        run_pam_experiment(factories, points)  # the entry point follows it
        assert len(audits) == 1

    def test_audit_reaches_cells_run_by_name(self, monkeypatch):
        """An explicit ``audit=True`` travels to every job, whether the
        cell's structure comes from a factory or a registered name."""
        from repro.core.comparison import run_experiment

        audits = []
        monkeypatch.setattr(BuddyTree, "audit", lambda self: audits.append(self))
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        run_experiment("pam", ["BUDDY"], make_points(40, seed=4), audit=True)
        assert len(audits) == 1

    def test_parallel_experiment_audits_in_workers(self):
        from repro.core.comparison import run_pam_experiment, run_sam_experiment
        from repro.core.testbed import standard_pam_factories, standard_sam_factories

        points, rects = make_points(80, seed=6), make_rects(60, seed=6)
        for run, names, data in (
            (run_pam_experiment, list(standard_pam_factories())[:2], points),
            (run_sam_experiment, list(standard_sam_factories())[:2], rects),
        ):
            audited = run(names, data, workers=2, audit=True)
            plain = run(names, data, audit=False)
            for name in names:
                assert audited[name].query_costs == plain[name].query_costs

    def test_experiment_with_audit_enabled(self):
        from repro.core.comparison import run_pam_experiment

        results = run_pam_experiment(
            {"BUDDY": lambda s, dims=2: BuddyTree(s, dims)},
            make_points(80, seed=6),
            audit=True,
        )
        assert results["BUDDY"].metrics.records == 80
