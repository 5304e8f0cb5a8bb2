"""Tests for the traced runners' ledger plumbing and artefact wiring."""

import importlib.util
from pathlib import Path

import pytest

from repro.core.comparison import run_pam_experiment
from repro.core.testbed import run_standard_pam_testbed, standard_pam_factories
from repro.obs.export import JsonlTraceSink
from repro.obs.ledger import Ledger, collect_fingerprint, storage_io_totals
from repro.obs.runner import record_to_ledger, traced_pam_run, traced_sam_run
from repro.pam.twolevelgrid import TwoLevelGridFile
from repro.sam.rtree import RTree

from tests.conftest import make_points, make_rects

PAM_FACTORIES = {"GRID": lambda s, dims=2: TwoLevelGridFile(s, dims)}
SAM_FACTORIES = {"R-Tree": lambda s, dims=2: RTree(s, dims)}


@pytest.fixture(autouse=True)
def no_ambient_ledger(monkeypatch):
    monkeypatch.delenv("REPRO_LEDGER", raising=False)


class TestLedgerPlumbing:
    def test_off_by_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        points = make_points(120, seed=3)
        traced_pam_run(PAM_FACTORIES, points, seed=19, label="unit")
        assert not list(tmp_path.rglob("*.jsonl"))

    def test_explicit_path_records_entry(self, tmp_path):
        path = tmp_path / "L.jsonl"
        points = make_points(120, seed=3)
        _, report = traced_pam_run(
            PAM_FACTORIES, points, seed=19, label="unit", ledger=str(path)
        )
        entries, problems = Ledger(path).read()
        assert problems == []
        assert len(entries) == 1
        entry = entries[0]
        assert entry.label == "unit"
        assert entry.source == "repro.obs.runner"
        assert entry.fingerprint["scale"] == len(points)
        assert entry.fingerprint["seed"] == 19
        # Timings in the entry mirror the report's timers.
        grid = entry.metrics["structures"]["GRID"]
        assert grid["build_seconds"] == report.structures["GRID"]["build"]["seconds"]
        # Access totals ride along for the gate's drift check, with the
        # snapshot's redundancy block folded in so drift in either trips it.
        expected = dict(report.structures["GRID"]["totals"])
        expected["redundancy"] = dict(
            report.structures["GRID"]["snapshot"]["redundancy"]
        )
        # ... and, on the durable backend, the deterministic IO counters.
        if "storage" in report.structures["GRID"]:
            expected["storage_io"] = storage_io_totals(
                report.structures["GRID"]["storage"]
            )
        assert entry.totals["GRID"] == expected

    def test_env_opt_in(self, tmp_path, monkeypatch):
        path = tmp_path / "ENV.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(path))
        rects = make_rects(100, seed=4)
        traced_sam_run(SAM_FACTORIES, rects, seed=23, label="sam-unit")
        entries = Ledger(path).entries()
        assert len(entries) == 1
        assert entries[0].meta["kind"] == "sam"

    def test_false_disables_even_with_env(self, tmp_path, monkeypatch):
        path = tmp_path / "ENV.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(path))
        points = make_points(100, seed=3)
        traced_pam_run(PAM_FACTORIES, points, seed=19, ledger=False)
        assert not path.exists()

    def test_record_to_ledger_workers_in_fingerprint(self, tmp_path):
        points = make_points(100, seed=3)
        _, report = traced_pam_run(PAM_FACTORIES, points, seed=19, label="w")
        path = tmp_path / "L.jsonl"
        record_to_ledger(report, ledger=str(path), workers=4)
        (entry,) = Ledger(path).entries()
        assert entry.fingerprint["workers"] == 4

    def test_identity_runs_pass_the_gate(self, tmp_path):
        from repro.obs.ledger import gate_run

        path = tmp_path / "L.jsonl"
        points = make_points(100, seed=3)
        _, report = traced_pam_run(PAM_FACTORIES, points, seed=19, label="a")
        record_to_ledger(report, ledger=str(path))
        record_to_ledger(report, ledger=str(path))
        result = gate_run(Ledger(path), max_regression=50)
        assert result.ok, result.failures


class TestSinkPlumbing:
    def test_runner_streams_spans_to_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        points = make_points(100, seed=3)
        with JsonlTraceSink(path) as sink:
            traced_pam_run(
                PAM_FACTORIES,
                points,
                seed=19,
                record_events=True,
                sink=sink,
            )
            assert sink.spans_written >= len(points)
        assert path.exists()


class TestParallelLedger:
    def test_parallel_run_records_with_worker_count(self, tmp_path):
        from repro.parallel.runner import traced_parallel_run

        path = tmp_path / "L.jsonl"
        points = make_points(150, seed=3)
        traced_parallel_run(
            "pam",
            ["GRID"],
            points,
            seed=19,
            label="par",
            workers=2,
            ledger=str(path),
        )
        (entry,) = Ledger(path).entries()
        assert entry.fingerprint["workers"] == 2
        assert entry.label == "par"


# -- every driver records a disk run as a disk run ---------------------------

_BENCH_CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"
_NAMES = ["GRID", "BUDDY"]
_FACTORIES = {name: standard_pam_factories()[name] for name in _NAMES}


def _experiment(points, ledger, tmp_path, monkeypatch):
    run_pam_experiment(_FACTORIES, points, seed=19, ledger=ledger)
    return None  # no report


def _traced_in_process(points, ledger, tmp_path, monkeypatch):
    return traced_pam_run(_FACTORIES, points, seed=19, ledger=ledger)[1]


def _traced_inline_jobs(points, ledger, tmp_path, monkeypatch):
    from repro.parallel.runner import traced_parallel_run

    # Structure *names* go through run_specs even at workers=1.
    return traced_parallel_run(
        "pam", _NAMES, points, seed=19, workers=1, ledger=ledger
    )[1]


def _traced_pooled(points, ledger, tmp_path, monkeypatch):
    return run_standard_pam_testbed(points, seed=19, workers=2, ledger=ledger)[1]


def _bench_session(points, ledger, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "150")
    monkeypatch.setenv("REPRO_RUN_REPORT", "1")
    monkeypatch.setenv("REPRO_LEDGER", ledger)
    monkeypatch.delenv("REPRO_BENCH_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_EXPLAIN", raising=False)
    spec = importlib.util.spec_from_file_location("bench_on_disk", _BENCH_CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RESULTS_DIR", tmp_path / "results")
    return module.pam_report("uniform")


class TestDiskBackendDriversAgree:
    """A disk run must never gate against a sim run's timings: every
    driver fingerprints the backend and carries the IO counters."""

    DRIVERS = [
        _experiment,
        _traced_in_process,
        _traced_inline_jobs,
        _traced_pooled,
        _bench_session,
    ]

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_storage_reaches_ledger_and_report(self, driver, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_BACKEND", "disk")
        path = tmp_path / "L.jsonl"
        report = driver(make_points(150, seed=3), str(path), tmp_path, monkeypatch)
        (entry,) = Ledger(path).entries()
        expected_keys = set(
            collect_fingerprint(page_size=512, scale=150, seed=19, storage={})
        )
        assert set(entry.fingerprint) == expected_keys
        assert entry.fingerprint["storage"]["backend"] == "disk"
        assert entry.totals
        for name, totals in entry.totals.items():
            assert totals["storage_io"]["backend"] == "disk", name
        if report is not None:
            for name, structure in report.structures.items():
                assert structure["storage"]["backend"] == "disk", name
                assert entry.totals[name]["storage_io"] == storage_io_totals(
                    structure["storage"]
                )
