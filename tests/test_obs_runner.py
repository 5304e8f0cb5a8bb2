"""Tests for the experiment runner's artefact wiring."""

import pytest

from repro.bench.__main__ import report_path, run_session
from repro.config import RunConfig
from repro.core.comparison import run_experiment
from repro.core.testbed import standard_pam_factories
from repro.obs.export import RunReport
from repro.obs.telemetry import validate_io_stats

from tests.conftest import make_points


# -- every driver records a disk run as a disk run ---------------------------

_NAMES = ["GRID", "BUDDY"]
_FACTORIES = {name: standard_pam_factories()[name] for name in _NAMES}


def _report_blocks(report):
    return {name: entry["storage"] for name, entry in report.structures.items()}


def _experiment(points, tmp_path, monkeypatch):
    return run_experiment("pam", _FACTORIES, points, seed=19).storage


def _traced_in_process(points, tmp_path, monkeypatch):
    # Factories run their cells in this process.
    return _report_blocks(run_experiment("pam", _FACTORIES, points).to_report())


def _traced_inline_jobs(points, tmp_path, monkeypatch):
    # Structure names resolve through the registry.
    return _report_blocks(run_experiment("pam", _NAMES, points).to_report())


def _bench_session(points, tmp_path, monkeypatch):
    # One session of ``python -m repro.bench``, saved and read back.
    run_session("pam", "uniform", tmp_path, RunConfig(bench_scale=150))
    return _report_blocks(RunReport.load(report_path(tmp_path, "pam", "uniform")))


class TestDiskBackendDriversAgree:
    """Every driver carries each structure's physical-IO ``storage``
    block out of a disk run, whichever driver built the structure."""

    DRIVERS = [
        _experiment,
        _traced_in_process,
        _traced_inline_jobs,
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
