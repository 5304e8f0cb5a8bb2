"""Tests for the exporters: touch summaries and renders."""

import json

import pytest

from repro.core.comparison import run_experiment
from repro.core.stats import AccessStats
from repro.obs.__main__ import main as obs_main
from repro.obs.export import (
    build_run_report,
    summarise_touches,
    validate_run_report,
)
from repro.obs.tracer import Span
from repro.pam.twolevelgrid import TwoLevelGridFile

from tests.conftest import make_points

PAM_FACTORIES = {"GRID": lambda s, dims=2: TwoLevelGridFile(s, dims)}


@pytest.fixture(scope="module")
def pam_report():
    points = make_points(200, seed=5)
    return run_experiment("pam", PAM_FACTORIES, points, seed=23).to_report("unit")


class TestTouchSummaries:
    def test_report_carries_build_ops_and_query_touches(self, pam_report):
        entry = pam_report.structures["GRID"]
        ops = entry["build"]["ops"]
        assert "insert" in ops
        assert ops["insert"]["operations"] == 200
        assert ops["insert"]["charged"] == sum(
            ops["insert"][k]
            for k in ("data_reads", "data_writes", "dir_reads", "dir_writes")
        )
        for q in entry["queries"].values():
            assert set(q["touches"]) == {
                "operations",
                "data_reads",
                "data_writes",
                "dir_reads",
                "dir_writes",
                "charged",
                "free",
            }

    def test_summarise_touches_totals_match_spans(self):
        spans = [
            Span("A", "q", 0, data_reads=2, free_accesses=1),
            Span("A", "q", 1, dir_reads=3),
        ]
        touches = summarise_touches(spans)
        assert touches["A"]["q"]["charged"] == 5
        assert touches["A"]["q"]["free"] == 1
        assert touches["A"]["q"]["operations"] == 2

    def test_round_trip_still_validates(self, pam_report, tmp_path):
        saved = pam_report.save(tmp_path / "r.json")
        assert validate_run_report(json.loads(saved.read_text())) == []

    def test_build_report_without_timers(self):
        report = build_run_report(
            label="empty",
            kind="pam",
            scale=0,
            page_size=512,
            seed=None,
            results={},
            totals={},
            spans=[],
        )
        assert report.structures == {}


class TestMarkdownRender:
    """The run report's one render: the text layout (its markdown twin
    and ``report --format`` are gone)."""

    @staticmethod
    def touch_pairs(report):
        """Row label -> the [charged, free] cells its render must show."""
        entry = report.structures["GRID"]
        rows = {label: q["touches"] for label, q in entry["queries"].items()}
        rows["insert"] = entry["build"]["ops"]["insert"]
        assert any(touch["free"] for touch in rows.values())
        return {k: [str(t["charged"]), str(t["free"])] for k, t in rows.items()}

    def test_render_text_unchanged_default(self, pam_report):
        assert "GRID" in pam_report.render()
        rows = [r.split() for r in pam_report.render().splitlines()]
        cells = {r[-11]: r[-4:-2] for r in rows if len(r) >= 11}
        for label, pair in self.touch_pairs(pam_report).items():
            assert cells[label] == pair

    def test_render_prints_query_seconds(self, pam_report):
        rows = {
            r.split()[0]: r.split()
            for r in pam_report.render().splitlines()
            if r.startswith(" " * 10)
        }
        for label, q in pam_report.structures["GRID"]["queries"].items():
            assert rows[label][-1] == f"{q['seconds']:.3f}s"

    def test_report_has_one_layout(self, pam_report, tmp_path):
        saved = pam_report.save(tmp_path / "r.json")
        with pytest.raises(SystemExit) as exc:
            obs_main(["report", str(saved), "--format", "markdown"])
        assert exc.value.code == 2


class TestQuerySeconds:
    """Each query file's ``seconds`` is that file's own wall time."""

    def test_a_costly_file_reports_more_seconds_than_a_cheap_one(self, monkeypatch):
        from repro.core import comparison

        real = comparison.query_files

        def two_files(kind, method, seed=None):
            label, query_kind, queries, operation = real(kind, method, seed)[2]
            return [
                ("cheap", query_kind, queries[:1], operation),
                ("costly", query_kind, list(queries) * 10, operation),
            ]

        monkeypatch.setattr(comparison, "query_files", two_files)
        points = make_points(200, seed=5)
        report = run_experiment("pam", PAM_FACTORIES, points, seed=23).to_report("unit")
        queries = report.structures["GRID"]["queries"]
        assert 0 < queries["cheap"]["seconds"] < queries["costly"]["seconds"] / 5

    def test_a_result_without_file_times_splits_evenly(self):
        from repro.core.comparison import MethodResult
        from repro.core.stats import BuildMetrics

        metrics = BuildMetrics(0.0, 0.0, 0.0, 0, 0, 0, 0, 0)
        result = MethodResult("A", metrics, query_costs={"q1": 1.0, "q2": 2.0})
        report = build_run_report(
            label="hand-built",
            kind="pam",
            scale=0,
            page_size=512,
            seed=None,
            results={"A": result},
            totals={"A": AccessStats()},
            spans=[Span("A", "q1", 0, data_reads=1), Span("A", "q2", 0, data_reads=2)],
            timers={"A/queries": 3.0},
        )
        queries = report.structures["A"]["queries"]
        assert queries["q1"]["seconds"] == queries["q2"]["seconds"] == 1.5
