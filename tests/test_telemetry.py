"""Tests for the live storage telemetry layer (ISSUE tentpole).

The contract under test, in order of importance:

1. **Bit-identity** — with telemetry on, every observable artefact
   (query results, charged stats, explain traces, structure snapshots)
   is identical to a telemetry-off run, on both store backends.
2. The flight recorder is schema-valid and deterministic where it
   claims to be (merges).
3. ``DiskPageStore.io_stats()`` keeps its pinned key set, and the
   run-report ``storage`` block round-trips through the report CLI.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.telemetry import (
    IO_STATS_KEYS,
    IO_STATS_PAGEFILE_KEYS,
    IO_STATS_POOL_KEYS,
    IO_STATS_WAL_KEYS,
    TIMELINE_SCHEMA,
    FlightRecorder,
    Telemetry,
    active_telemetry,
    merge_timelines,
    read_timeline,
    set_telemetry,
    validate_io_stats,
    validate_timeline,
)
from repro.storage.disk import DiskPageStore
from repro.storage.page import PageKind
from repro.verify.fuzz import STRUCTURES, make_ops

from tests.test_backend_equivalence import _run_backend


@pytest.fixture(autouse=True)
def _no_leaked_global_telemetry():
    """Whatever a test installs process-wide must not outlive it."""
    yield
    set_telemetry(None)


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


class TestTelemetryCore:
    def test_observe_io_fills_histogram_and_byte_counter(self):
        telem = Telemetry()
        telem.observe_io("pread", 0.002, 512)
        telem.observe_io("pread", 0.004, 512)
        telem.observe_io("fsync", 0.01, 0)
        hists = telem.histograms
        assert hists["storage.io.pread_seconds"].count == 2
        assert hists["storage.io.fsync_seconds"].count == 1
        assert telem.counters["storage.io.pread_bytes"] == 1024
        # zero-byte ops (fsync) never create a bytes counter
        assert "storage.io.fsync_bytes" not in telem.counters

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

    def test_explicit_instance_beats_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert active_telemetry() is None
        telem = Telemetry()
        set_telemetry(telem)
        assert active_telemetry() is telem
        set_telemetry(None)
        assert active_telemetry() is None

    def test_env_instance_is_a_shared_singleton(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        first = active_telemetry()
        assert first is not None
        assert active_telemetry() is first


IDENTITY_STRUCTURES = ("GRID-1", "BUDDY+", "R")
N_OPS = 200


class TestBitIdentity:
    """The acceptance criterion: telemetry changes no observable number."""

    @pytest.mark.parametrize("page_size", (512, 8192))
    @pytest.mark.parametrize("name", IDENTITY_STRUCTURES)
    def test_sim_and_disk_identical_with_telemetry_on(
        self, name, page_size, tmp_path
    ):
        spec = STRUCTURES[name]
        ops = make_ops(spec, N_OPS, seed=31)

        from repro.storage.factory import make_store

        baseline_sim = _run_backend(make_store(page_size, backend="sim"), spec, ops)
        baseline_disk = _run_backend(
            DiskPageStore(
                tmp_path / "off", page_size=page_size, pool_pages=8, fsync=False
            ),
            spec,
            ops,
        )

        telem = Telemetry()
        set_telemetry(telem)  # the query driver also observes
        on_sim = _run_backend(make_store(page_size, backend="sim"), spec, ops)
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


class TestFlightRecorder:
    def test_records_validates_and_finalises(self, tmp_path):
        telem = Telemetry()
        path = tmp_path / "timeline.jsonl"
        with FlightRecorder(telem, path, interval_seconds=0.01, label="unit"):
            for i in range(50):
                telem.counters["ops"] = i + 1
                telem.observe("x_seconds", 0.001)
        assert validate_timeline(*read_timeline(path)) == []
        header, samples = read_timeline(path)
        assert header["schema"] == TIMELINE_SCHEMA
        assert header["interval_seconds"] == 0.01
        assert header["label"] == "unit"
        assert samples[-1]["final"] is True
        assert samples[-1]["counters"]["ops"] == 50
        assert samples[-1]["histograms"]["x_seconds"]["count"] == 50
        assert [s["seq"] for s in samples] == list(range(len(samples)))

    def test_run_shorter_than_interval_still_samples_once(self, tmp_path):
        telem = Telemetry()
        recorder = FlightRecorder(
            telem, tmp_path / "t.jsonl", interval_seconds=60.0
        )
        recorder.start()
        recorder.stop()
        assert recorder.samples_written == 1
        assert validate_timeline(*read_timeline(recorder.path)) == []

    def test_pool_gauges_appear_in_samples(self, tmp_path):
        telem = Telemetry()
        store, _ = _disk_workload(tmp_path, telem)
        sample = telem.sample()
        assert sample["gauges"]["storage.stores"] == 1
        assert sample["gauges"]["storage.pool.resident"] <= 8
        assert sample["gauges"]["storage.pool.budget"] == 8
        assert sample["gauges"]["storage.wal.bytes_since_checkpoint"] >= 0
        store.close()

    def test_bad_interval_and_double_start_rejected(self, tmp_path):
        telem = Telemetry()
        with pytest.raises(ValueError):
            FlightRecorder(telem, tmp_path / "t.jsonl", interval_seconds=0)
        recorder = FlightRecorder(telem, tmp_path / "t.jsonl").start()
        with pytest.raises(ValueError):
            recorder.start()
        recorder.stop()

    def test_validator_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema":"nope","kind":"header"}\n')
        assert validate_timeline(*read_timeline(path))


class TestMergeTimelines:
    def _record(self, tmp_path, worker: str, n: int):
        telem = Telemetry()
        path = tmp_path / f"timeline-{worker}.jsonl"
        recorder = FlightRecorder(
            telem, path, interval_seconds=60.0, label=worker, worker=worker
        ).start()
        telem.counters["ops"] = n
        recorder.stop()
        return path

    def test_merge_is_deterministic_and_valid(self, tmp_path):
        a = self._record(tmp_path, "w-a", 3)
        b = self._record(tmp_path, "w-b", 5)
        out1 = tmp_path / "merged1.jsonl"
        out2 = tmp_path / "merged2.jsonl"
        header, merged = merge_timelines([a, b], out1)
        merge_timelines([a, b], out2)
        assert out1.read_bytes() == out2.read_bytes()
        assert header["sources"] == ["w-a", "w-b"]
        assert validate_timeline(*read_timeline(out1)) == []
        assert [s["worker"] for s in merged] == ["w-a", "w-b"]
        assert [s["seq"] for s in merged] == [0, 1]
        assert all("worker_seq" in s for s in merged)

    def test_merge_rejects_non_timeline(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema":"other"}\n')
        with pytest.raises(ValueError):
            merge_timelines([bad])


class TestIoStatsSchema:
    """ISSUE satellite: the io_stats document keys are pinned."""

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

    def test_storage_block_round_trips_through_report(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.obs.export import validate_run_report
        from repro.obs.runner import traced_pam_run
        from repro.pam.twolevelgrid import TwoLevelGridFile

        from tests.conftest import make_points

        monkeypatch.setenv("REPRO_STORE_BACKEND", "disk")
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "stores"))
        _, report = traced_pam_run(
            {"GRID": lambda s, dims=2: TwoLevelGridFile(s, dims)},
            make_points(150, seed=5),
            seed=23,
            label="telemetry-roundtrip",
        )
        saved = report.save(tmp_path / "report.json")
        data = json.loads(saved.read_text())
        assert validate_run_report(data) == []
        assert data["structures"]["GRID"]["storage"]["backend"] == "disk"
        assert obs_main(["report", str(saved)]) == 0
        out = capsys.readouterr().out
        assert "storage disk" in out
        assert "hit_rate=" in out
        assert obs_main(["report", str(saved), "--format", "markdown"]) == 0
        assert "| write amp |" in capsys.readouterr().out


class TestCli:
    def _timeline(self, tmp_path):
        telem = Telemetry()
        telem.counters["ops"] = 5
        telem.observe("x_seconds", 0.01)
        recorder = FlightRecorder(
            telem, tmp_path / "t.jsonl", interval_seconds=60.0, label="cli"
        ).start()
        recorder.stop()
        return recorder.path

    def test_validate_ok_and_mixed_schemas(self, tmp_path, capsys):
        timeline = self._timeline(tmp_path)
        report = Path(__file__).resolve().parents[1] / "results/RUN-PAM-uniform.json"
        assert obs_main(["validate", str(timeline), str(report)]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 2

    def test_validate_flags_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema":"nope"}\n')
        assert obs_main(["validate", str(bad)]) == 1
        assert "unknown schema" in capsys.readouterr().err

    def test_render_sparklines(self, tmp_path, capsys):
        timeline = self._timeline(tmp_path)
        assert obs_main(["telemetry", "render", str(timeline)]) == 0
        out = capsys.readouterr().out
        assert "ops" in out and "x_seconds.p50" in out

    def test_render_metric_glob(self, tmp_path, capsys):
        timeline = self._timeline(tmp_path)
        assert obs_main(["telemetry", "render", str(timeline), "--metric", "zzz*"]) == 0
        assert "no metrics match" in capsys.readouterr().out

    def test_render_missing_file_exits_one(self, tmp_path, capsys):
        assert obs_main(["telemetry", "render", str(tmp_path / "absent.jsonl")]) == 1
        assert "error" in capsys.readouterr().err

    def test_diff_reports_deltas(self, tmp_path, capsys):
        old = self._timeline(tmp_path)
        new_dir = tmp_path / "new"
        new_dir.mkdir()
        new = self._timeline(new_dir)
        assert obs_main(["telemetry", "diff", str(old), str(new)]) == 0
        assert "ops" in capsys.readouterr().out


class TestDriverAndParallelTelemetry:
    def test_query_driver_observes_latency_and_slow_queries(self):
        """Every query lands in the latency histogram."""
        from repro.geometry.rect import Rect
        from repro.query.driver import run_query_file
        from repro.storage.factory import make_store

        spec = STRUCTURES["GRID-1"]
        am = spec["factory"](make_store(512, backend="sim"))
        for i in range(50):
            am.insert((i / 50.0, (i * 7 % 50) / 50.0), i)
        telem = Telemetry()
        set_telemetry(telem)
        queries = [Rect((0.0, 0.0), (0.5, 0.5)), Rect((0.2, 0.2), (0.9, 0.9))]
        run_query_file(am, "range", queries, am.range_query)
        assert telem.histograms["query.latency_seconds"].count == 2

    def test_parallel_jobs_write_mergeable_timelines(self, tmp_path, monkeypatch):
        from repro.parallel.runner import run_parallel_experiment

        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path))
        data = [((i % 17) / 17.0, (i % 13) / 13.0) for i in range(120)]
        outcome = run_parallel_experiment(
            "pam", ["GRID", "BUDDY"], data, page_size=512, workers=1
        )
        assert set(outcome.results) == {"GRID", "BUDDY"}
        parts = sorted(tmp_path.glob("timeline-*.jsonl"))
        merged = tmp_path / "timeline-merged.jsonl"
        assert merged in parts
        parts.remove(merged)
        assert len(parts) == 2
        for part in parts + [merged]:
            assert validate_timeline(*read_timeline(part)) == []
        header, samples = read_timeline(merged)
        assert header["merged"] is True
        assert len(header["sources"]) == 2
        workers = {s["worker"] for s in samples}
        assert len(workers) == 2
