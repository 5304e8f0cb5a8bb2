"""Tests for the shared bench infrastructure in ``benchmarks/conftest.py``.

The conftest is loaded by file path (it is pytest plugin code, not an
importable package module), which also exercises that it imports
cleanly outside a bench session.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"


@pytest.fixture(scope="module")
def bench_conftest():
    spec = importlib.util.spec_from_file_location("bench_conftest_under_test", _CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestWorkersKnob:
    def test_default_is_serial(self, bench_conftest, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_WORKERS", raising=False)
        assert bench_conftest.bench_workers() == 1

    def test_env_opt_in(self, bench_conftest, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "3")
        assert bench_conftest.bench_workers() == 3
