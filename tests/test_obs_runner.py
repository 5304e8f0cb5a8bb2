"""Tests for the experiment runner's artefact wiring."""

import importlib.util
from pathlib import Path

import pytest

from repro.core.comparison import run_experiment
from repro.core.testbed import run_standard_pam_testbed, standard_pam_factories
from repro.obs.telemetry import validate_io_stats

from tests.conftest import make_points


# -- every driver records a disk run as a disk run ---------------------------

_BENCH_CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"
_NAMES = ["GRID", "BUDDY"]
_FACTORIES = {name: standard_pam_factories()[name] for name in _NAMES}


def _report_blocks(report):
    return {name: entry["storage"] for name, entry in report.structures.items()}


def _experiment(points, tmp_path, monkeypatch):
    # run_pam_experiment returns results only; its outcome carries the blocks.
    return run_experiment("pam", _FACTORIES, points, seed=19).storage


def _traced_in_process(points, tmp_path, monkeypatch):
    # Factories run their cells as inline jobs.
    return _report_blocks(run_experiment("pam", _FACTORIES, points).to_report())


def _traced_inline_jobs(points, tmp_path, monkeypatch):
    # Structure names resolve through the registry, here inline too.
    return _report_blocks(run_experiment("pam", _NAMES, points).to_report())


def _traced_pooled(points, tmp_path, monkeypatch):
    return _report_blocks(run_standard_pam_testbed(points, seed=19, workers=2)[1])


def _bench_session(points, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "150")
    monkeypatch.delenv("REPRO_BENCH_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_EXPLAIN", raising=False)
    spec = importlib.util.spec_from_file_location("bench_on_disk", _BENCH_CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RESULTS_DIR", tmp_path / "results")
    return _report_blocks(module.run_report("pam", "uniform"))


class TestDiskBackendDriversAgree:
    """Every driver carries each structure's physical-IO ``storage``
    block out of a disk run, whichever process built the structure."""

    DRIVERS = [
        _experiment,
        _traced_in_process,
        _traced_inline_jobs,
        _traced_pooled,
        _bench_session,
    ]

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_disk_storage_block(self, driver, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_BACKEND", "disk")
        blocks = driver(make_points(150, seed=3), tmp_path, monkeypatch)
        assert set(_NAMES) <= set(blocks)
        for name, block in blocks.items():
            assert block["backend"] == "disk", name
            assert validate_io_stats(block) == [], name
