"""Tests for the exporters: atomic trace sink, touch summaries, renders."""

import json

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.export import (
    JsonlTraceSink,
    build_run_report,
    summarise_touches,
    validate_run_report,
)
from repro.obs.runner import traced_pam_run
from repro.obs.tracer import Span, Tracer
from repro.pam.twolevelgrid import TwoLevelGridFile

from tests.conftest import make_points

PAM_FACTORIES = {"GRID": lambda s, dims=2: TwoLevelGridFile(s, dims)}


@pytest.fixture(scope="module")
def pam_report():
    points = make_points(200, seed=5)
    _, report = traced_pam_run(PAM_FACTORIES, points, seed=23, label="unit")
    return report


class TestJsonlTraceSinkAtomicity:
    def make_span(self, i=0):
        return Span("A", "insert", i, data_writes=1)

    def test_nothing_visible_until_close(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(path)
        sink.write_span(self.make_span())
        assert not path.exists()  # still streaming to the temp file
        assert any(tmp_path.glob("trace.jsonl.*.tmp"))
        sink.close()
        assert path.exists()
        assert not any(tmp_path.glob("trace.jsonl.*.tmp"))
        assert json.loads(path.read_text().splitlines()[0])["op"] == "insert"

    def test_abort_discards_temp(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(path)
        sink.write_span(self.make_span())
        sink.abort()
        assert not path.exists()
        assert not any(tmp_path.glob("trace.jsonl.*.tmp"))

    def test_exception_in_with_block_preserves_previous_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.write_span(self.make_span())
        previous = path.read_text()
        with pytest.raises(RuntimeError):
            with JsonlTraceSink(path) as sink:
                sink.write_span(self.make_span(1))
                sink.write_span(self.make_span(2))
                raise RuntimeError("interrupted mid-run")
        assert path.read_text() == previous  # torn run never replaced it
        assert not any(tmp_path.glob("trace.jsonl.*.tmp"))

    def test_write_after_close_raises(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "trace.jsonl")
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.write_span(self.make_span())

    def test_counts_spans(self, tmp_path):
        with JsonlTraceSink(tmp_path / "trace.jsonl") as sink:
            sink.write_span(self.make_span(0))
            sink.write_span(self.make_span(1))
            assert sink.spans_written == 2

    def test_works_as_tracer_sink(self, tmp_path, store):
        from repro.storage.page import PageKind

        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            tracer = Tracer(record_events=True, sink=sink).attach(store)
            tracer.set_context(structure="GRID", op="insert")
            pid = store.allocate(PageKind.DATA, "x")
            for _ in range(5):
                store.begin_operation()
                store.read(pid)
            tracer.finish()
            assert not path.exists()  # atomic: nothing visible inside the run
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        assert all(json.loads(line)["structure"] == "GRID" for line in lines)


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
    @staticmethod
    def touch_pairs(report):
        """Row label -> the [charged, free] cells its render must show."""
        entry = report.structures["GRID"]
        rows = {label: q["touches"] for label, q in entry["queries"].items()}
        rows["insert"] = entry["build"]["ops"]["insert"]
        assert any(touch["free"] for touch in rows.values())
        return {k: [str(t["charged"]), str(t["free"])] for k, t in rows.items()}

    def test_render_markdown_table(self, pam_report):
        md = pam_report.render(fmt="markdown")
        assert md.splitlines()[0].startswith("**")
        assert "| structure | op |" in md
        assert "| GRID |" in md
        for label, pair in self.touch_pairs(pam_report).items():
            row = next(r for r in md.splitlines() if f"| GRID | {label} |" in r)
            assert [cell.strip() for cell in row.split("|")][9:11] == pair

    def test_render_text_unchanged_default(self, pam_report):
        assert pam_report.render() == pam_report.render(fmt="text")
        assert "GRID" in pam_report.render()
        rows = [r.split() for r in pam_report.render().splitlines()]
        cells = {r[-10]: r[-3:-1] for r in rows if len(r) >= 10}
        for label, pair in self.touch_pairs(pam_report).items():
            assert cells[label] == pair

    def test_cli_format_markdown(self, pam_report, tmp_path, capsys):
        saved = pam_report.save(tmp_path / "r.json")
        assert obs_main(["report", str(saved), "--format", "markdown"]) == 0
        assert "| structure | op |" in capsys.readouterr().out

    def test_cli_diff_markdown(self, pam_report, tmp_path, capsys):
        saved = pam_report.save(tmp_path / "r.json")
        code = obs_main(
            ["report", str(saved), str(saved), "--format", "markdown",
             "--fail-threshold", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "| structure | query | old | new | delta |" in out
        assert "REGRESSION" not in out
