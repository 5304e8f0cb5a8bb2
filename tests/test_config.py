"""Every ``REPRO_*`` switch in one table: variable x raw string -> field.

:meth:`repro.config.RunConfig.from_env` is the only reader of the
environment, so this table is the whole specification of what a switch
string means.  Rows whose id ends in ``-defect`` are strings the six
parsers this module replaced got wrong (silently ignored, read as a
path, or a bare ``int()`` traceback).
"""

import itertools
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest

from repro.config import RunConfig
from repro.storage import factory
from repro.storage.factory import make_store
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore

OFF = ("", "0", "off", "no", "false", "none", "  OFF  ")
ON = ("1", "on", "true", "yes", " True ")
FLAGS = ("audit", "telemetry")
LOCATIONS = ("explain", "store_dir")

ROWS = [
    *((name, raw, False) for name in FLAGS + LOCATIONS for raw in OFF),
    *((name, raw, True) for name in FLAGS + LOCATIONS for raw in ON),
    *((name, "maybe", ValueError) for name in FLAGS),
    *((name, " traces.d ", Path("traces.d")) for name in LOCATIONS),
    # Numbers are numbers, not flags: only "" is "the default".
    ("bench_scale", "", 10_000),
    ("bench_scale", "4321", 4321),
    ("bench_scale", "0", ValueError),
    ("bench_scale", "off", ValueError),
    ("bench_scale", "2k", ValueError),
    ("store_backend", "", "sim"),
    ("store_backend", "sim", "sim"),
    ("store_backend", " DISK ", "disk"),
    ("store_backend", "tape", ValueError),
    ("store_backend", "1", ValueError),
]

DEFECTS = {
    ("audit", "none"),
    ("explain", "none"),
    ("bench_scale", "2k"),
}


def variable(name: str) -> str:
    return f"REPRO_{name.upper()}"


def row_id(row) -> str:
    name, raw, _ = row
    return f"{variable(name)}={raw.strip()}" + ("-defect" if (name, raw) in DEFECTS else "")


@pytest.mark.parametrize("name, raw, expected", ROWS, ids=map(row_id, ROWS))
def test_switch_table(name, raw, expected):
    environ = {variable(name): raw}
    if expected is ValueError:
        with pytest.raises(ValueError, match=variable(name)):
            RunConfig.from_env(environ)
        return
    value = getattr(RunConfig.from_env(environ), name)
    assert value == expected and type(value) is type(expected)


def test_every_defect_has_a_row():
    assert DEFECTS <= {(name, raw) for name, raw, _ in ROWS}


def test_table_covers_every_field():
    assert {name for name, _, _ in ROWS} == {f.name for f in fields(RunConfig)}
    assert len(fields(RunConfig)) == 6


def test_unset_is_the_default_and_other_variables_are_ignored():
    assert RunConfig.from_env({}) == RunConfig()
    assert RunConfig.from_env({"REPRO_CI": "1", "HOME": "/"}) == RunConfig()
    assert not any(getattr(RunConfig(), name) for name in FLAGS + LOCATIONS)


def test_from_env_reads_the_live_environment_uncached(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "4321")
    assert RunConfig.from_env().bench_scale == 4321
    monkeypatch.setenv("REPRO_BENCH_SCALE", "77")
    assert RunConfig.from_env().bench_scale == 77
    monkeypatch.delenv("REPRO_BENCH_SCALE")
    assert RunConfig.from_env().bench_scale == 10_000


def test_make_store_follows_the_config_and_explicit_arguments_win(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_STORE_BACKEND", "disk")
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
    with make_store() as store, make_store(directory=tmp_path / "x") as other:
        assert store.path.parent == tmp_path and other.path.parent == tmp_path / "x"
    assert type(make_store(backend="sim")) is PageStore


def test_make_store_never_recovers_a_store_left_under_its_base(monkeypatch, tmp_path):
    """A persistent base directory outlives the process that wrote it; a
    later one whose store names repeat must still get fresh stores."""

    def repeat_names():
        # What a later process with this pid meets: a pid-and-counter
        # name repeats, and so does every name drawn at random here.
        monkeypatch.setattr(factory, "_counter", itertools.count(), raising=False)
        monkeypatch.setattr(tempfile, "_get_candidate_names", lambda: iter("ab"))

    repeat_names()
    with make_store(backend="disk", directory=tmp_path) as old:
        old.begin_operation()
        old.write(old.allocate(PageKind.DATA, ["old"]))
    repeat_names()
    with make_store(backend="disk", directory=tmp_path) as new:
        assert new.path != old.path
        assert not new.recovered and new.page_ids() == []
