"""The paper tables are renders of the run reports.

The drift check renders every committed ``results/TAB-*`` / ``FIG-*``
file from the committed ``results/RUN-*.json`` reports, byte for byte,
so a table can no longer disagree with the session that produced it,
and every paper claim must hold on those reports.  ``python -m
repro.bench`` must write the same reports, traces and tables at one
process and at two.  The rest runs the renderers on small synthetic
reports.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro.bench.__main__ import run_bench
from repro.bench.tables import (
    CLAIMS,
    PAM_FILES,
    SAM_FILES,
    TABLES,
    normalise,
    pam_table,
    paper_vs_measured,
    query_averages,
    render,
    sam_average_rows,
    sam_table,
    table_5_1_rows,
)
from repro.config import RunConfig
from repro.core.comparison import PAM_QUERY_TYPES, SAM_QUERY_TYPES
from repro.obs.export import RunReport

RESULTS = Path(__file__).resolve().parent.parent / "results"
REPORTS = sorted(RESULTS.glob("RUN-*.json"))


@functools.cache
def committed(kind: str, file_name: str) -> RunReport:
    return RunReport.load(RESULTS / f"RUN-{kind.upper()}-{file_name}.json")


# -- drift: every committed table from the committed reports ---------------


def test_every_committed_table_has_a_renderer():
    on_disk = {p.stem for p in [*RESULTS.glob("TAB-*.txt"), *RESULTS.glob("FIG-*.txt")]}
    assert on_disk == set(TABLES)
    assert len(TABLES) == 16


@pytest.mark.parametrize("table_id", sorted(TABLES))
def test_committed_table_renders_from_committed_reports(table_id):
    text = (RESULTS / f"{table_id}.txt").read_text(encoding="utf-8")
    assert render(table_id, committed) + "\n" == text


def test_reports_come_from_one_session():
    expected = {f"RUN-PAM-{f}.json" for f in PAM_FILES}
    expected |= {f"RUN-SAM-{f}.json" for f in SAM_FILES}
    assert {p.name for p in REPORTS} == expected
    # ``scale`` is the file's record count (Real is smaller); the
    # session's records-per-file setting is in the meta block.
    assert len({RunReport.load(p).meta["bench_scale"] for p in REPORTS}) == 1


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.table)
def test_paper_claim_holds_on_committed_reports(claim):
    assert claim.holds(committed), claim.sentence


@pytest.mark.parametrize("path", REPORTS, ids=lambda p: p.stem)
def test_report_means_match_their_histograms(path):
    report = RunReport.load(path)
    for name, entry in report.structures.items():
        assert entry["queries"], name
        for label, query in entry["queries"].items():
            hist = query["accesses"]
            assert query["mean"] == pytest.approx(hist["mean"]), (name, label)
            assert hist["p50"] <= hist["p90"] <= hist["p99"] <= hist["max"], (name, label)


# -- the bench program: processes change no number --------------------------


def _without_seconds(value):
    if isinstance(value, dict):
        return {k: _without_seconds(v) for k, v in value.items() if k != "seconds"}
    if isinstance(value, list):
        return [_without_seconds(v) for v in value]
    return value


def test_processes_change_no_report_trace_or_table(tmp_path):
    """Every session audited and explained, at one process and at two:
    reports equal but for ``seconds``, traces and tables byte-identical."""
    written = {}
    for processes in (1, 2):
        root = tmp_path / str(processes)
        config = RunConfig(bench_scale=300, audit=True, explain=root / "explain")
        run_bench(root, processes, config)
        written[processes] = {
            path.relative_to(root).as_posix(): path.read_bytes()
            for path in root.rglob("*.*")
        }
    one, two = written[1], written[2]
    assert one.keys() == two.keys()
    assert sum(name.startswith("RUN-") for name in one) == len(PAM_FILES) + len(SAM_FILES)
    assert sum(name.startswith("explain/") for name in one) == 6 * 7 + 4 * 5
    assert {name[:-4] for name in one if name.endswith(".txt")} == set(TABLES)
    for name, data in one.items():
        if name.startswith("RUN-"):
            assert _without_seconds(json.loads(data)) == _without_seconds(
                json.loads(two[name])
            ), name
        else:
            assert data == two[name], name


# -- the renderers on synthetic reports -------------------------------------

_METRICS = {
    "storage_utilization": 70.2,
    "dir_data_ratio": 2.30,
    "insert_cost": 3.06,
    "height": 3,
}


def synthetic(kind: str, costs: dict[str, dict[str, float]]) -> RunReport:
    """A report carrying just what the tables read: build metrics, means."""
    structures = {
        name: {
            "build": {"metrics": dict(_METRICS)},
            "queries": {label: {"mean": mean} for label, mean in row.items()},
        }
        for name, row in costs.items()
    }
    return RunReport("synthetic", kind, 100, 512, 1, structures)


def pam_costs(grid: float, buddy: float) -> dict[str, dict[str, float]]:
    names = ("HB", "BANG", "BANG*", "GRID", "BUDDY", "BUDDY+")
    costs = {name: dict.fromkeys(PAM_QUERY_TYPES, grid) for name in names}
    costs["BUDDY"] = dict.fromkeys(PAM_QUERY_TYPES, buddy)
    return costs


class TestRenderers:
    def test_pam_table_is_percent_of_grid(self):
        text = pam_table("T", {"uniform": synthetic("pam", pam_costs(4.0, 2.0))})
        lines = text.splitlines()
        assert lines[0] == "T"
        grid = next(line for line in lines if line.startswith("GRID") and "here" in line)
        assert grid.split()[2:] == ["100.0"] * 5 + ["70.2", "2.3", "3.1", "3.0"]
        buddy = next(line for line in lines if line.startswith("BUDDY ") and "here" in line)
        assert buddy.split()[2:7] == ["50.0"] * 5
        # The paper's row sits above ours.
        assert lines.index(grid) - 1 == next(
            i for i, line in enumerate(lines) if line.startswith("GRID") and "paper" in line
        )

    def test_sam_table_is_absolute(self):
        costs = {"R-Tree": dict.fromkeys(SAM_QUERY_TYPES, 12.5)}
        text = sam_table("S", {"a_file_the_paper_lacks": synthetic("sam", costs)})
        assert text.splitlines()[2].split() == ["R-Tree", "here", *["12.5"] * 4]

    def test_summaries_average_over_the_files(self):
        pam = {f: synthetic("pam", pam_costs(4.0, 3.0)) for f in PAM_FILES}
        assert query_averages(pam["uniform"])["BUDDY"] == pytest.approx(75.0)
        rows = table_5_1_rows(pam)
        assert rows["BUDDY"] == pytest.approx((75.0, 70.2, 3.06))
        sam_costs = {
            "R-Tree": dict.fromkeys(SAM_QUERY_TYPES, 10.0),
            "BANG": dict.fromkeys(SAM_QUERY_TYPES, 5.0),
            "BUDDY": dict.fromkeys(SAM_QUERY_TYPES, 20.0),
            "PLOP": dict.fromkeys(SAM_QUERY_TYPES, 10.0),
        }
        sam = {f: synthetic("sam", sam_costs) for f in SAM_FILES}
        assert sam_average_rows(sam)["BANG"] == pytest.approx((50.0,) * 4 + (70.2, 3.06))
        assert sam_average_rows(sam)["BUDDY"][:4] == pytest.approx((200.0,) * 4)


class TestPaperVsMeasured:
    def test_empty_columns_does_not_crash(self):
        """Regression: ``max(10, *(...))`` raised TypeError for ``()``."""
        table = paper_vs_measured("title", {}, {"GRID": ()}, columns=())
        lines = table.splitlines()
        assert lines[0] == "title"
        assert "GRID" in table

    def test_width_floor_is_ten(self):
        table = paper_vs_measured("t", {}, {"X": (1.0,)}, columns=("c",))
        header = table.splitlines()[1]
        assert header.endswith(f"{'c':>10s}")

    def test_wide_columns_stretch(self):
        table = paper_vs_measured(
            "t", {}, {"X": (1.0,)}, columns=("a-very-wide-column",)
        )
        header = table.splitlines()[1]
        assert header.endswith(f"{'a-very-wide-column':>20s}")

    def test_paper_row_above_measured_row(self):
        table = paper_vs_measured(
            "t",
            {"GRID": (100.0, 50.0)},
            {"GRID": (99.0, None)},
            columns=("q1", "q2"),
        )
        lines = table.splitlines()
        assert "paper" in lines[2] and "100.0" in lines[2]
        # None cells render as '-' in the measured row.
        assert "here" in lines[3] and lines[3].rstrip().endswith("-")


class TestNormalise:
    def test_stick_is_100(self):
        norm = normalise(pam_costs(4.0, 3.0), "GRID")
        assert norm["GRID"] == dict.fromkeys(PAM_QUERY_TYPES, 100.0)
        assert norm["BUDDY"] == pytest.approx(dict.fromkeys(PAM_QUERY_TYPES, 75.0))

    def test_zero_cost_reference_rows_stay_finite(self):
        """A free query type in the measuring stick maps to 0, not inf."""
        norm = normalise(
            {"STICK": {"pm_x": 0.0, "pm_y": 4.0}, "OTHER": {"pm_x": 3.0, "pm_y": 2.0}},
            "STICK",
        )
        assert norm["STICK"]["pm_x"] == 0.0
        assert norm["OTHER"]["pm_x"] == 0.0
        assert norm["OTHER"]["pm_y"] == pytest.approx(50.0)

    def test_all_zero_stick(self):
        assert normalise({"STICK": {"a": 0.0}}, "STICK") == {"STICK": {"a": 0.0}}
