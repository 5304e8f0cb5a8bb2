"""Tests for run reports, their schema, the experiment runner and the CLI."""

import copy
import json

import pytest

from repro.core.comparison import (
    build_pam,
    build_sam,
    run_experiment,
    run_queries,
)
from repro.obs.export import (
    RUN_REPORT_SCHEMA,
    RunReport,
    summarise_spans,
    validate_run_report,
)
from repro.obs.__main__ import main
from repro.obs.report import diff_reports
from repro.obs.tracer import Span
from repro.pam.buddytree import BuddyTree
from repro.pam.twolevelgrid import TwoLevelGridFile
from repro.sam.rtree import RTree

from tests.conftest import make_points, make_rects

PAM_FACTORIES = {
    "GRID": lambda s, dims=2: TwoLevelGridFile(s, dims),
    "BUDDY": lambda s, dims=2: BuddyTree(s, dims),
}
SAM_FACTORIES = {"R-Tree": lambda s, dims=2: RTree(s, dims)}


@pytest.fixture(scope="module")
def pam_run():
    points = make_points(300, seed=3)
    outcome = run_experiment("pam", PAM_FACTORIES, points, seed=19)
    return points, outcome.results, outcome.to_report("unit")


class TestSummariseSpans:
    def test_groups_by_structure_and_op(self):
        spans = [
            Span("A", "insert", 0, data_writes=1),
            Span("A", "insert", 1, data_writes=2),
            Span("A", "query", 0, data_reads=5),
            Span("B", "query", 0, data_reads=7),
        ]
        hists = summarise_spans(spans)
        assert hists["A"]["insert"].count == 2
        assert hists["A"]["insert"].sum == 3
        assert hists["A"]["query"].max == 5
        assert hists["B"]["query"].mean == 7


class TestTracedRuns:
    def test_results_identical_to_untraced(self, pam_run):
        points, results, _ = pam_run
        for name, factory in PAM_FACTORIES.items():
            pam = build_pam(factory, points)
            untraced = run_queries("pam", pam, seed=19)
            assert untraced.query_costs == results[name].query_costs
            assert untraced.query_results == results[name].query_results

    def test_totals_exactly_match_untraced_access_stats(self, pam_run):
        """Acceptance: report totals == untraced AccessStats, same seed."""
        points, _, report = pam_run
        for name, factory in PAM_FACTORIES.items():
            pam = build_pam(factory, points)
            run_queries("pam", pam, seed=19)
            assert report.totals(name) == pam.store.stats

    def test_report_query_histograms_consistent_with_means(self, pam_run):
        _, results, report = pam_run
        for name, result in results.items():
            for label, cost in result.query_costs.items():
                hist = report.structures[name]["queries"][label]["accesses"]
                assert hist["mean"] == pytest.approx(cost)
                assert hist["count"] == 20
                for key in ("p50", "p90", "p99", "max"):
                    assert hist[key] >= 0

    def test_insert_histogram_counts_every_insert(self, pam_run):
        points, _, report = pam_run
        for entry in report.structures.values():
            assert entry["build"]["accesses_per_insert"]["count"] == len(points)

    def test_sam_run(self):
        rects = make_rects(150, seed=9)
        report = run_experiment("sam", SAM_FACTORIES, rects, seed=23).to_report()
        sam = build_sam(SAM_FACTORIES["R-Tree"], rects)
        run_queries("sam", sam, seed=23)
        assert report.totals("R-Tree") == sam.store.stats
        assert report.kind == "sam"
        assert set(report.query_labels("R-Tree")) == {
            "point",
            "intersection",
            "enclosure",
            "containment",
        }


class TestRunReportSerialisation:
    def test_roundtrip(self, pam_run, tmp_path):
        _, _, report = pam_run
        path = report.save(tmp_path / "run.json")
        loaded = RunReport.load(path)
        assert loaded.to_dict() == report.to_dict()
        assert loaded.schema == RUN_REPORT_SCHEMA

    def test_validate_ok(self, pam_run):
        _, _, report = pam_run
        assert validate_run_report(report.to_dict()) == []

    def test_validate_catches_problems(self, pam_run):
        _, _, report = pam_run
        data = copy.deepcopy(report.to_dict())
        data["schema"] = "bogus/v0"
        del data["structures"]["GRID"]["totals"]["dir_writes"]
        problems = validate_run_report(data)
        assert any("schema" in p for p in problems)
        assert any("totals" in p for p in problems)
        with pytest.raises(ValueError):
            RunReport.from_dict(data)

    def test_validate_not_an_object(self):
        assert validate_run_report([]) == ["report is not a JSON object"]


class TestSnapshotFields:
    def test_traced_run_attaches_valid_snapshots(self, pam_run):
        from repro.obs.structure import validate_snapshot

        _, _, report = pam_run
        for name, entry in report.structures.items():
            assert validate_snapshot(entry["snapshot"]) == [], name
        metrics = report.redundancy_metrics()
        assert set(metrics) == set(PAM_FACTORIES)
        for red in metrics.values():
            assert red["duplication_factor"] == 1.0

    def test_text_render_includes_redundancy(self, pam_run):
        _, _, report = pam_run
        assert "redundancy dup=" in report.render()

    def test_pre_snapshot_reports_render_without_snapshots(self, pam_run):
        """Acceptance: pre-v6 reports (no snapshot field) never KeyError."""
        _, _, report = pam_run
        data = copy.deepcopy(report.to_dict())
        for entry in data["structures"].values():
            entry.pop("snapshot", None)
        old = RunReport.from_dict(data)
        assert validate_run_report(data) == []
        assert old.redundancy_metrics() == {}
        assert "redundancy dup=" not in old.render()

    def test_validate_flags_broken_snapshot(self, pam_run):
        _, _, report = pam_run
        data = copy.deepcopy(report.to_dict())
        data["structures"]["GRID"]["snapshot"] = {"schema": "bogus"}
        problems = validate_run_report(data)
        assert any("'GRID'].snapshot" in p for p in problems)


class TestCommittedReports:
    """Every RUN-*.json in results/ must load, validate and render."""

    def committed(self):
        from pathlib import Path

        results = Path(__file__).resolve().parent.parent / "results"
        return sorted(results.glob("RUN-*.json"))

    def test_round_trip_and_render(self):
        paths = self.committed()
        assert paths, "no committed run reports found"
        for path in paths:
            report = RunReport.load(path)
            assert validate_run_report(report.to_dict()) == [], path.name
            assert report.to_dict() == RunReport.from_dict(
                report.to_dict()
            ).to_dict(), path.name
            assert report.render(), path.name
            assert report.access_totals(), path.name
            report.redundancy_metrics()  # absent snapshots: no KeyError


class TestReportCli:
    def test_prints_percentiles_per_structure(self, pam_run, tmp_path, capsys):
        """Acceptance: the CLI prints per-structure p50/p90/p99."""
        _, _, report = pam_run
        path = report.save(tmp_path / "run.json")
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        for name in PAM_FACTORIES:
            assert name in out
        for column in ("p50", "p90", "p99", "max", "mean"):
            assert column in out
        assert "range_10%" in out

    def test_validate_flag(self, pam_run, tmp_path, capsys):
        _, _, report = pam_run
        path = report.save(tmp_path / "run.json")
        assert main(["validate", str(path)]) == 0
        assert "OK" in capsys.readouterr().out
        broken = copy.deepcopy(report.to_dict())
        del broken["structures"]["GRID"]["totals"]
        path.write_text(json.dumps(broken), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "totals must carry integer" in capsys.readouterr().err

    def test_diff_flags_regressions(self, pam_run, tmp_path, capsys):
        _, _, report = pam_run
        old = report.save(tmp_path / "old.json")
        worse = copy.deepcopy(report.to_dict())
        worse["structures"]["GRID"]["queries"]["range_1%"]["accesses"]["mean"] *= 2
        new = tmp_path / "new.json"
        new.write_text(json.dumps(worse), encoding="utf-8")

        assert main(["report", str(old), str(new)]) == 0  # no threshold: report only
        assert main(["report", str(old), str(new), "--fail-threshold", "5"]) == 2
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "+100.0%" in out

    def test_diff_rows(self, pam_run):
        _, _, report = pam_run
        rows = diff_reports(report, report)
        assert rows and all(row["delta_pct"] == 0.0 for row in rows)

    def test_diff_flags_regression_from_zero_baseline(self, pam_run, tmp_path, capsys):
        """A query that cost nothing before and something now is a
        regression past any threshold, not a +0.0% change."""
        _, _, report = pam_run
        free = copy.deepcopy(report.to_dict())
        free["structures"]["GRID"]["queries"]["range_1%"]["accesses"]["mean"] = 0.0
        old = tmp_path / "old.json"
        old.write_text(json.dumps(free), encoding="utf-8")
        costly = copy.deepcopy(free)
        costly["structures"]["GRID"]["queries"]["range_1%"]["accesses"]["mean"] = 3.0
        new = tmp_path / "new.json"
        new.write_text(json.dumps(costly), encoding="utf-8")

        assert main(["report", str(old), str(new), "--fail-threshold", "0"]) == 2
        assert "+inf%  REGRESSION" in capsys.readouterr().out
        rows = diff_reports(RunReport.from_dict(free), RunReport.from_dict(costly))
        by_label = {(r["structure"], r["label"]): r["delta_pct"] for r in rows}
        assert by_label["GRID", "range_1%"] == float("inf")
