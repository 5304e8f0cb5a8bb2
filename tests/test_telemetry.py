"""Tests for per-store IO latency telemetry.

The contract under test, in order of importance:

1. **Bit-identity** — with telemetry on, every observable artefact
   (query results, charged stats, explain traces, structure snapshots)
   is identical to a telemetry-off run, on both store backends.
2. **Latency belongs to its store** — every disk store gets its own
   :class:`Telemetry`, so a structure's ``storage.latency`` counts are
   a function of that structure's run alone.
3. ``DiskPageStore.io_stats()`` keeps its pinned key set, and the
   run-report ``storage`` block round-trips through the report CLI.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.comparison import run_experiment
from repro.core.testbed import standard_pam_factories
from repro.obs.__main__ import main as obs_main
from repro.obs.telemetry import (
    IO_STATS_KEYS,
    IO_STATS_PAGEFILE_KEYS,
    IO_STATS_POOL_KEYS,
    IO_STATS_WAL_KEYS,
    Telemetry,
    validate_io_stats,
)
from repro.storage.disk import DiskPageStore
from repro.storage.factory import make_store
from repro.storage.page import PageKind
from repro.verify.fuzz import STRUCTURES, make_ops

from tests.conftest import make_points
from tests.test_backend_equivalence import _run_backend


@pytest.fixture
def disk_telemetry(tmp_path, monkeypatch):
    """``REPRO_STORE_BACKEND=disk REPRO_TELEMETRY=1``, stores under tmp."""
    monkeypatch.setenv("REPRO_STORE_BACKEND", "disk")
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "stores"))
    monkeypatch.setenv("REPRO_TELEMETRY", "1")


def _disk_workload(tmp_path, telemetry=None, *, fsync=False):
    """A small canonical disk workload: build, evict, commit, checkpoint."""
    store = DiskPageStore(
        tmp_path / "store",
        page_size=512,
        pool_pages=8,
        fsync=fsync,
        telemetry=telemetry,
    )
    pids = []
    for i in range(32):
        store.begin_operation()  # one op per page: auto-commit keeps the
        pids.append(  # dirty set small, so the pool genuinely evicts
            store.allocate(PageKind.DATA, {"i": i, "pad": list(range(40))})
        )
    store.commit()
    for pid in pids:  # touch everything: 32 pages through an 8-frame pool
        store.begin_operation()
        store.read(pid)
    store.checkpoint()
    for pid in pids:  # post-checkpoint: misses pread the page file, clean
        store.begin_operation()  # frames evict
        store.read(pid)
    return store, pids


def _latency_counts(storage) -> dict[tuple[str, str], int]:
    """``(structure, series) -> count`` over per-structure io_stats blocks."""
    return {
        (name, series): summary["count"]
        for name, block in storage.items()
        for series, summary in block["latency"].items()
    }


class TestTelemetryCore:
    def test_observe_io_fills_histogram(self):
        telem = Telemetry()
        telem.observe_io("pread", 0.002, 512)
        telem.observe_io("pread", 0.004, 512)
        telem.observe_io("fsync", 0.01, 0)
        hists = telem.histograms
        assert set(hists) == {"storage.io.pread_seconds", "storage.io.fsync_seconds"}
        assert hists["storage.io.pread_seconds"].count == 2
        assert hists["storage.io.fsync_seconds"].count == 1

    def test_summary_matches_exact_percentiles(self):
        telem = Telemetry()
        for v in range(1, 101):
            telem.observe("x", float(v))
        hist = telem.histograms["x"]
        summary = telem.latency_summaries()["x"]
        assert summary["count"] == 100
        assert summary["p50"] == hist.percentile(50) == 50
        assert summary["p90"] == hist.percentile(90) == 90
        assert summary["p99"] == hist.percentile(99) == 99
        assert summary["min"] == 1 and summary["max"] == 100

    def test_explicit_instance_beats_environment(self, disk_telemetry):
        telem = Telemetry()
        with make_store(telemetry=telem) as given, make_store(telemetry=None) as off:
            assert given._telemetry is telem
            assert off._telemetry is None
            assert "latency" not in off.io_stats()

    def test_env_gives_every_disk_store_its_own_instance(
        self, disk_telemetry, monkeypatch
    ):
        with make_store() as a, make_store() as b:
            assert a._telemetry is not None and b._telemetry is not None
            assert a._telemetry is not b._telemetry
        monkeypatch.delenv("REPRO_TELEMETRY")
        with make_store() as plain:
            assert plain._telemetry is None


IDENTITY_STRUCTURES = ("GRID-1", "BUDDY+", "R")
N_OPS = 200


class TestBitIdentity:
    """The acceptance criterion: telemetry changes no observable number."""

    @pytest.mark.parametrize("page_size", (512, 8192))
    @pytest.mark.parametrize("name", IDENTITY_STRUCTURES)
    def test_sim_and_disk_identical_with_telemetry_on(
        self, name, page_size, tmp_path, monkeypatch
    ):
        spec = STRUCTURES[name]
        ops = make_ops(spec, N_OPS, seed=31)

        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        baseline_sim = _run_backend(make_store(page_size, backend="sim"), spec, ops)
        baseline_disk = _run_backend(
            DiskPageStore(
                tmp_path / "off", page_size=page_size, pool_pages=8, fsync=False
            ),
            spec,
            ops,
        )

        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        on_sim = _run_backend(make_store(page_size, backend="sim"), spec, ops)
        telem = Telemetry()
        disk = DiskPageStore(
            tmp_path / "on",
            page_size=page_size,
            pool_pages=8,
            fsync=False,
            telemetry=telem,
        )
        on_disk = _run_backend(disk, spec, ops)

        for key in baseline_sim:
            assert on_sim[key] == baseline_sim[key], f"sim {key} diverged"
            assert on_disk[key] == baseline_disk[key], f"disk {key} diverged"

        # ...and the instrumentation genuinely measured the disk run.
        assert telem.histograms["storage.io.pwrite_seconds"].count > 0
        assert telem.histograms["storage.commit_seconds"].count > 0
        disk.close()


class TestIoStatsSchema:
    """The io_stats document keys are pinned; its latency is the store's own."""

    def test_keys_pinned_without_telemetry(self, tmp_path):
        store, _ = _disk_workload(tmp_path)
        stats = store.io_stats()
        for key in IO_STATS_KEYS:
            assert key in stats, f"io_stats lost key {key!r}"
        for key in IO_STATS_POOL_KEYS:
            assert key in stats["pool"], f"pool block lost key {key!r}"
        for key in IO_STATS_WAL_KEYS:
            assert key in stats["wal"], f"wal block lost key {key!r}"
        for key in IO_STATS_PAGEFILE_KEYS:
            assert key in stats["pagefile"], f"pagefile block lost {key!r}"
        assert "write_amplification" in stats
        assert validate_io_stats(stats) == []
        assert "latency" not in stats  # additive: telemetry-only
        store.close()

    def test_telemetry_adds_latency(self, tmp_path):
        telem = Telemetry()
        store, _ = _disk_workload(tmp_path, telem)
        stats = store.io_stats()
        assert validate_io_stats(stats) == []
        assert set(stats) == {*IO_STATS_KEYS, "write_amplification", "latency"}
        latency = stats["latency"]
        assert latency["storage.commit_seconds"]["count"] >= 1
        assert latency["storage.io.pwrite_seconds"]["count"] >= 1
        store.close()

    def test_validator_reports_missing_keys(self):
        assert validate_io_stats({}) != []
        assert validate_io_stats({"backend": "disk"}) != []
        assert validate_io_stats("not a mapping") == ["io_stats is not a mapping"]

    def test_latency_belongs_to_its_store(self, disk_telemetry):
        """The same two-structure run, twice in one process: every
        latency count repeats, and each structure's commit series counts
        exactly its own store's commits."""
        factories = {n: standard_pam_factories()[n] for n in ("GRID", "HB")}
        points = make_points(200, seed=5)
        runs = [run_experiment("pam", factories, points).storage for _ in range(2)]
        first, second = map(_latency_counts, runs)
        assert first and second == first
        for name, block in runs[1].items():
            commits = block["latency"]["storage.commit_seconds"]["count"]
            assert commits == block["commits"], name

    def test_storage_block_round_trips_through_report(
        self, tmp_path, disk_telemetry, capsys
    ):
        from repro.obs.export import validate_run_report
        from repro.pam.twolevelgrid import TwoLevelGridFile

        report = run_experiment(
            "pam",
            {"GRID": lambda s, dims=2: TwoLevelGridFile(s, dims)},
            make_points(150, seed=5),
            seed=23,
        ).to_report("telemetry-roundtrip")
        saved = report.save(tmp_path / "report.json")
        data = json.loads(saved.read_text())
        assert validate_run_report(data) == []
        assert data["structures"]["GRID"]["storage"]["backend"] == "disk"
        assert obs_main(["report", str(saved)]) == 0
        out = capsys.readouterr().out
        assert "storage disk" in out
        assert "hit_rate=" in out
        assert "fsync   count=" in out
        assert "wa=" in out


class TestCli:
    def test_validate_ok_and_mixed_schemas(self, tmp_path, capsys):
        report = Path(__file__).resolve().parents[1] / "results/RUN-PAM-uniform.json"
        entry = next(iter(json.loads(report.read_text())["structures"].values()))
        snapshot = tmp_path / "snapshot.json"
        snapshot.write_text(json.dumps(entry["snapshot"]))
        assert obs_main(["validate", str(snapshot), str(report)]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 2

    def test_validate_flags_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema":"nope"}\n')
        assert obs_main(["validate", str(bad)]) == 1
        assert "unknown schema" in capsys.readouterr().err
