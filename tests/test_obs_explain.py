"""Tests for explain traces: bit-identity, finalisation, rendering, CLI."""

import contextlib
import json

import pytest

from repro.core.comparison import (
    _trace_path,
    build_pam,
    build_sam,
    run_experiment,
    run_file,
    run_queries,
)
from repro.obs.__main__ import main
from repro.obs.explain import (
    EXPLAIN_SCHEMA,
    ExplainRecorder,
    page_heatmap,
    render_heatmap,
    render_trace,
    validate_explain,
)
from repro.pam.buddytree import BuddyTree
from repro.pam.twolevelgrid import TwoLevelGridFile
from repro.sam.clipping import ClippingSAM
from repro.sam.rtree import RTree

from tests.conftest import make_points, make_rects
from tests.reference_query import reference, scalar_only

PAM_FACTORY = lambda s, dims=2: BuddyTree(s, dims)  # noqa: E731
SAM_FACTORY = lambda s, dims=2: RTree(s, dims)  # noqa: E731


def traced_pam(points, seed=19, scalar=False):
    """Build, then run the PAM query files under an explain recorder —
    with ``scalar``, on the reference descent and off the batched path."""
    pam = build_pam(PAM_FACTORY, points)
    recorder = ExplainRecorder("BUDDY")
    with scalar_only() if scalar else contextlib.nullcontext():
        result = run_queries(
            "pam", reference(pam) if scalar else pam, seed=seed, explain=recorder
        )
    return pam, result, recorder.to_trace()


@pytest.fixture(scope="module")
def pam_trace():
    points = make_points(300, seed=3)
    pam, result, trace = traced_pam(points)
    return points, pam, result, trace


class TestBitIdentity:
    def test_results_identical_to_unexplained(self, pam_trace):
        """Acceptance: explaining a run never changes its numbers."""
        points, _, result, _ = pam_trace
        plain = run_queries("pam", build_pam(PAM_FACTORY, points), seed=19)
        assert plain.query_costs == result.query_costs
        assert plain.query_results == result.query_results

    def test_stats_identical_to_unexplained(self, pam_trace):
        points, pam, _, _ = pam_trace
        reference = build_pam(PAM_FACTORY, points)
        run_queries("pam", reference, seed=19)
        assert pam.store.stats == reference.store.stats

    def test_trace_pages_sum_to_access_stats(self, pam_trace):
        """Every query's page touches sum exactly to its measured cost."""
        _, _, _, trace = pam_trace
        assert validate_explain(trace) == []
        for file in trace["files"]:
            for query in file["queries"]:
                touched = sum(
                    p["reads"] + p["writes"] for p in query["pages"]
                )
                assert touched == query["accesses"]
                assert touched == sum(query["cost"].values())

    @pytest.mark.parametrize(
        "scalar", [pytest.param(True, id="0"), pytest.param(False, id="1")]
    )
    def test_both_vector_modes(self, scalar):
        """The scalar reference and the batched path explain alike."""
        points = make_points(200, seed=5)
        _, result, trace = traced_pam(points, seed=29, scalar=scalar)
        plain = run_queries("pam", build_pam(PAM_FACTORY, points), seed=29)
        assert plain.query_costs == result.query_costs
        assert validate_explain(trace) == []
        assert trace == traced_pam(points, seed=29, scalar=not scalar)[2]

    def test_mismatch_raises(self):
        """A forged cost makes finalisation fail loudly, not silently."""
        points = make_points(120, seed=8)
        pam = build_pam(PAM_FACTORY, points)
        recorder = ExplainRecorder("BUDDY")
        recorder.start_file(pam, "range")
        from repro.geometry.rect import Rect

        rect = Rect((0.2, 0.2), (0.4, 0.4))
        cost = pam.store.stats.total
        result = pam.range_query(rect)
        cost = pam.store.stats.total - cost
        recorder.finish_query(0, rect, cost + 1, result)
        with pytest.raises(RuntimeError, match="disagrees with AccessStats"):
            recorder.end_file()


class TestTraceContents:
    def test_schema_and_files(self, pam_trace):
        _, _, _, trace = pam_trace
        assert trace["schema"] == EXPLAIN_SCHEMA
        assert trace["structure"] == "BUDDY"
        assert [f["label"] for f in trace["files"]] == [
            "range_0.1%",
            "range_1%",
            "range_10%",
            "pm_x",
            "pm_y",
        ]
        for file in trace["files"]:
            assert len(file["queries"]) == 20

    def test_candidates_bound_hits(self, pam_trace):
        _, _, _, trace = pam_trace
        some_candidates = False
        for file in trace["files"]:
            for query in file["queries"]:
                assert 0 <= query["hits"] <= query["candidates"]
                some_candidates |= query["candidates"] > 0
        assert some_candidates

    def test_range_hits_match_result_counts(self, pam_trace):
        """One-place PAM: in-page hits are exactly the result set."""
        _, _, result, trace = pam_trace
        for file in trace["files"]:
            for query in file["queries"]:
                assert query["duplicates"] == 0
                assert query["hits"] == query["result_count"]

    def test_data_pages_have_depth_and_parents(self, pam_trace):
        _, _, _, trace = pam_trace
        query = trace["files"][2]["queries"][0]  # 10% range: a real descent
        kinds = {p["kind"] for p in query["pages"]}
        assert "data" in kinds
        roots = [p for p in query["pages"] if p.get("parent") is None]
        assert roots  # at least the directory root starts the descent
        for page in query["pages"]:
            if "depth" in page:
                assert page["depth"] >= 0

    def test_clipping_reports_duplicates(self):
        """A redundant scheme shows duplicate elimination in the trace."""
        rects = make_rects(150, seed=9)
        sam = build_sam(lambda s, dims=2: ClippingSAM(s, dims, redundancy=4), rects)
        recorder = ExplainRecorder("CLIP-4")
        run_queries("sam", sam, seed=23, explain=recorder)
        trace = recorder.to_trace()
        assert validate_explain(trace) == []
        duplicates = sum(
            q["duplicates"] for f in trace["files"] for q in f["queries"]
        )
        assert duplicates > 0

    def test_recorder_rejects_double_attach(self, pam_trace):
        _, pam, _, _ = pam_trace
        recorder = ExplainRecorder("BUDDY")
        recorder.start_file(pam, "range")
        try:
            with pytest.raises(RuntimeError, match="already attached"):
                recorder.start_file(pam, "range")
        finally:
            pam.store.observer = recorder._collector.inner


class TestHeatmap:
    def test_aggregates_across_queries(self):
        trace = {
            "structure": "X",
            "files": [
                {
                    "label": "f",
                    "queries": [
                        {
                            "pages": [
                                {"pid": 1, "kind": "dir", "depth": 0, "reads": 1,
                                 "writes": 0, "free": 0},
                                {"pid": 2, "kind": "data", "depth": 1, "reads": 1,
                                 "writes": 0, "free": 2, "candidates": 5, "hits": 2},
                            ]
                        },
                        {
                            "pages": [
                                {"pid": 2, "kind": "data", "depth": 1, "reads": 3,
                                 "writes": 1, "free": 0, "candidates": 5, "hits": 1},
                            ]
                        },
                    ],
                }
            ],
        }
        rows = page_heatmap(trace)
        assert [row["pid"] for row in rows] == [2, 1]  # hottest first
        hot = rows[0]
        assert hot["queries"] == 2
        assert (hot["reads"], hot["writes"], hot["free"]) == (4, 1, 2)
        assert (hot["candidates"], hot["hits"]) == (10, 3)
        text = render_heatmap(trace)
        assert "page heatmap: X (2 pages touched)" in text
        assert "3/10" in text

    def test_real_trace_renders(self, pam_trace):
        _, _, _, trace = pam_trace
        rows = page_heatmap(trace)
        assert rows and rows[0]["reads"] + rows[0]["writes"] >= rows[-1][
            "reads"
        ] + rows[-1]["writes"]
        assert "pages touched" in render_heatmap(trace)


class TestRendering:
    def test_tree_format(self, pam_trace):
        _, _, _, trace = pam_trace
        text = render_trace(trace, "tree")
        assert "BUDDY range_0.1% #0" in text
        assert "└─" in text and "accesses" in text

    def test_unknown_format(self, pam_trace):
        _, _, _, trace = pam_trace
        with pytest.raises(ValueError, match="unknown format"):
            render_trace(trace, "xml")


class TestValidate:
    def test_not_an_object(self):
        assert validate_explain([]) == ["trace is not a JSON object"]

    def test_catches_schema_and_mismatch(self, pam_trace):
        _, _, _, trace = pam_trace
        broken = json.loads(json.dumps(trace))
        broken["schema"] = "bogus/v0"
        broken["files"][0]["queries"][0]["pages"][0]["reads"] += 1
        problems = validate_explain(broken)
        assert any("schema" in p for p in problems)
        assert any("!= cost" in p for p in problems)


class TestExplainWiring:
    def test_explain_dir_env_semantics(self, monkeypatch, tmp_path):
        # Values, not the environment: None is off, a path the directory.
        monkeypatch.setenv("REPRO_EXPLAIN", str(tmp_path / "env"))
        factories = {"BUDDY": PAM_FACTORY}
        run_experiment("pam", factories, make_points(60, seed=4))
        assert not (tmp_path / "env").exists()
        run_experiment("pam", factories, make_points(60, seed=4), explain=tmp_path / "t")
        assert (tmp_path / "t" / "PAM-BUDDY.json").is_file()

    def test_a_trace_its_spans_disagree_with_fails_the_cell(self, monkeypatch, tmp_path):
        """A tracer that drops one charged access of a query file: the
        cell raises, naming the structure and the file."""
        import repro.core.comparison as comparison

        class Dropping(comparison.Tracer):
            dropped = False

            def on_access(self, store, pid, kind, rw, charged, reason):
                if charged and self._op == "pm_x" and not self.dropped:
                    self.dropped = True
                    return
                super().on_access(store, pid, kind, rw, charged, reason)

        monkeypatch.setattr(comparison, "Tracer", Dropping)
        points = make_points(100, seed=4)
        run_experiment("pam", {"BUDDY": PAM_FACTORY}, points)  # untraced: no check
        with pytest.raises(RuntimeError, match="BUDDY pm_x counts"):
            run_experiment("pam", {"BUDDY": PAM_FACTORY}, points, explain=tmp_path)

    def test_trace_path_sanitises_names(self, tmp_path):
        assert _trace_path(tmp_path, "pam", "BANG*").name == "PAM-BANG-star.json"
        assert _trace_path(tmp_path, "pam", "BUDDY+").name == "PAM-BUDDY-plus.json"
        assert _trace_path(tmp_path, "sam", "R-Tree").name == "SAM-R-Tree.json"

    def test_experiment_writes_traces_and_preserves_results(self, tmp_path):
        points = make_points(250, seed=4)
        factories = {
            "GRID": lambda s, dims=2: TwoLevelGridFile(s, dims),
            "BUDDY": PAM_FACTORY,
        }
        plain = run_experiment("pam", factories, points).results
        traced = run_experiment("pam", factories, points, explain=tmp_path).results
        for name in plain:
            assert traced[name].query_costs == plain[name].query_costs
            assert traced[name].snapshot is not None
        for stem in ("PAM-GRID", "PAM-BUDDY"):
            trace = json.loads((tmp_path / f"{stem}.json").read_text())
            assert validate_explain(trace) == []

    def test_testbed_threads_explain_serially(self, tmp_path):
        from repro.core.testbed import standard_pam_factories

        points = make_points(200, seed=3)
        results = run_experiment(
            "pam", standard_pam_factories(), points, explain=tmp_path / "t"
        ).results
        assert sorted(p.name for p in (tmp_path / "t").glob("*.json")) == [
            "PAM-BANG-star.json",
            "PAM-BANG.json",
            "PAM-BUDDY.json",
            "PAM-GRID.json",
            "PAM-HB.json",
        ]
        for path in (tmp_path / "t").glob("*.json"):
            assert validate_explain(json.loads(path.read_text())) == []
        for result in results.values():
            assert result.snapshot is not None

    def test_named_file_cells_trace_per_file(self, tmp_path):
        run_file("pam", "uniform", scale=150, explain=tmp_path)
        # The five structures and the derived BUDDY+, under the file's own name.
        assert len(list((tmp_path / "uniform").glob("*.json"))) == 6

class TestCli:
    def save(self, trace, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace))
        return str(path)

    def test_render_ok(self, pam_trace, tmp_path, capsys):
        _, _, _, trace = pam_trace
        path = self.save(trace, tmp_path)
        assert main(["explain", path]) == 0
        assert "BUDDY" in capsys.readouterr().out
        assert main(["explain", path, "--format", "heatmap"]) == 0
        assert "page heatmap" in capsys.readouterr().out

    def test_validate_flag(self, pam_trace, tmp_path, capsys):
        _, _, _, trace = pam_trace
        assert main(["validate", self.save(trace, tmp_path)]) == 0
        assert EXPLAIN_SCHEMA in capsys.readouterr().out

    def test_invalid_inputs_exit_1(self, tmp_path, capsys):
        assert main(["explain", str(tmp_path / "absent.json")]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["explain", str(bad)]) == 1
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"schema": EXPLAIN_SCHEMA, "structure": "X"}))
        assert main(["explain", str(wrong)]) == 1
        assert "invalid" in capsys.readouterr().err
