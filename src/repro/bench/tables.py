"""The paper's tables and figures, rendered from run reports.

Every committed ``results/TAB-*`` / ``FIG-*`` file is a pure function of
the ``results/RUN-*.json`` run reports of one bench session.
:data:`TABLES` maps each table id to its title, the data files it reads
and its renderer, which prints the paper's published row
(:mod:`repro.bench.paper`) above the measured one.  :data:`CLAIMS` are
the paper's statements as predicates over the same reports.
``python -m repro.bench`` writes :func:`render` of every table and
checks every claim; tier-1 renders each committed file from the
committed reports, byte for byte, and checks the claims on them.

The PAM tables give the five query types as percentages of GRID
(= 100.0), then ``stor``, ``dir/data``, ``insert`` and ``h``, as in §4.
The SAM tables give absolute disk accesses per query type, as in §8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.bench.paper import (
    PAM_QUERY_AVERAGE_PAPER,
    PAM_SUMMARY_PAPER,
    PAM_TABLE_PAPER,
    SAM_SUMMARY_PAPER,
    SAM_TABLE_PAPER,
)
from repro.core.comparison import PAM_QUERY_TYPES, SAM_QUERY_TYPES
from repro.obs.export import RunReport

__all__ = [
    "CLAIMS",
    "Claim",
    "PAM_FILES",
    "SAM_FILES",
    "TABLES",
    "Table",
    "normalise",
    "pam_table",
    "paper_vs_measured",
    "query_averages",
    "query_means",
    "render",
    "sam_average_rows",
    "sam_table",
    "table_5_1_rows",
]

#: The seven point files in the column order of Table 5.2.
PAM_FILES = ("uniform", "sinus", "bit", "x_parallel", "real", "diagonal", "cluster")
#: The five rectangle files the §8 summary averages over.
SAM_FILES = ("uniform_small", "uniform_large", "gaussian_square", "gaussian_slim", "diagonal")

_PAM_SUMMARY = ("HB", "BANG", "BANG*", "GRID", "BUDDY", "BUDDY+")
_SAM_SUMMARY = ("R-Tree", "BANG", "BUDDY", "PLOP")
_BUILD_COLUMNS = ("storage_utilization", "dir_data_ratio", "insert_cost", "height")

Reports = Mapping[str, RunReport]


def paper_vs_measured(
    title: str,
    paper: dict[str, tuple],
    measured: dict[str, tuple],
    columns: tuple[str, ...],
) -> str:
    """Two-row-per-structure table: the paper's value above ours."""
    # The list form keeps the floor at 10 even for an empty ``columns``
    # tuple, where star-unpacking into max() would raise a TypeError.
    width = max([10, *(len(c) + 2 for c in columns)])
    header = f"{'':14s}" + "".join(f"{c:>{width}s}" for c in columns)
    lines = [title, header]
    for name in measured:
        for label, row in (("paper", paper.get(name)), ("here", measured[name])):
            if row is None:
                continue
            cells = "".join(
                f"{v:{width}.1f}" if isinstance(v, (int, float)) else f"{'-':>{width}s}"
                for v in row
            )
            lines.append(f"{name:8s}{label:>6s}{cells}")
    return "\n".join(lines)


def normalise(
    costs: Mapping[str, Mapping[str, float]], stick: str
) -> dict[str, dict[str, float]]:
    """Express per-structure query costs as percentages of the measuring stick.

    A query type the stick answers for free maps to 0 in every row, not inf.
    """
    reference = costs[stick]
    return {
        name: {
            label: (100.0 * cost / reference[label]) if reference[label] else 0.0
            for label, cost in row.items()
        }
        for name, row in costs.items()
    }


def _average(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values)


def query_means(report: RunReport) -> dict[str, dict[str, float]]:
    """Structure -> query type -> mean accesses per query."""
    return {
        name: {label: query["mean"] for label, query in entry["queries"].items()}
        for name, entry in report.structures.items()
    }


def _build(report: RunReport, name: str) -> tuple:
    metrics = report.structures[name]["build"]["metrics"]
    return tuple(metrics[column] for column in _BUILD_COLUMNS)


def query_averages(report: RunReport) -> dict[str, float]:
    """Structure -> unweighted query average, in % of GRID."""
    return {
        name: _average(row.values())
        for name, row in normalise(query_means(report), "GRID").items()
    }


def table_5_1_rows(reports: Reports) -> dict[str, tuple[float, float, float]]:
    """Table 5.1: query average (% of GRID), storage utilisation and
    insertion cost, each averaged over the seven point files."""
    averages = {f: query_averages(reports[f]) for f in PAM_FILES}
    rows = {}
    for name in _PAM_SUMMARY:
        builds = [_build(reports[f], name) for f in PAM_FILES]
        rows[name] = (
            _average(averages[f][name] for f in PAM_FILES),
            _average(build[0] for build in builds),
            _average(build[2] for build in builds),
        )
    return rows


def sam_average_rows(reports: Reports) -> dict[str, tuple[float, ...]]:
    """§8 summary: per query type the mean % of the R-tree over the five
    rectangle files, then storage utilisation and insertion cost."""
    ratios = {f: normalise(query_means(reports[f]), "R-Tree") for f in SAM_FILES}
    rows = {}
    for name in _SAM_SUMMARY:
        builds = [_build(reports[f], name) for f in SAM_FILES]
        rows[name] = tuple(
            _average(ratios[f][name][query] for f in SAM_FILES)
            for query in SAM_QUERY_TYPES
        ) + (
            _average(build[0] for build in builds),
            _average(build[2] for build in builds),
        )
    return rows


# -- renderers: (title, reports by data file) -> text ----------------------


def _only(reports: Reports) -> tuple[str, RunReport]:
    ((file_name, report),) = reports.items()
    return file_name, report


def pam_table(title: str, reports: Reports) -> str:
    """One §4 table: the query types in % of GRID plus the build metrics."""
    file_name, report = _only(reports)
    norm = normalise(query_means(report), "GRID")
    rows = {
        name: tuple(norm[name][q] for q in PAM_QUERY_TYPES) + _build(report, name)
        for name in report.structures
    }
    columns = ("rq.1%", "rq1%", "rq10%", "pm-x", "pm-y", "stor", "dir/dat", "insert", "h")
    return paper_vs_measured(title, PAM_TABLE_PAPER.get(file_name, {}), rows, columns)


def sam_table(title: str, reports: Reports) -> str:
    """One §8 table: absolute accesses per query type."""
    file_name, report = _only(reports)
    means = query_means(report)
    rows = {name: tuple(row[q] for q in SAM_QUERY_TYPES) for name, row in means.items()}
    columns = ("point", "intersect", "enclose", "contain")
    return paper_vs_measured(title, SAM_TABLE_PAPER.get(file_name, {}), rows, columns)


def _figure(title: str, reports: Reports) -> str:
    """The series behind one §4 bar chart, with its average and the paper's."""
    file_name, report = _only(reports)
    lines = [
        title,
        f"{'':8s}" + "".join(f"{q:>12s}" for q in PAM_QUERY_TYPES)
        + f"{'avg':>10s}{'paper avg':>11s}",
    ]
    paper_avg = PAM_QUERY_AVERAGE_PAPER.get(file_name, {})
    for name, costs in normalise(query_means(report), "GRID").items():
        reference = paper_avg.get(name)
        reference_text = f"{reference:11.1f}" if reference is not None else f"{'-':>11s}"
        lines.append(
            f"{name:8s}"
            + "".join(f"{costs[q]:12.1f}" for q in PAM_QUERY_TYPES)
            + f"{_average(costs.values()):10.1f}"
            + reference_text
        )
    return "\n".join(lines)


def _figure_metrics(title: str, reports: Reports) -> str:
    """The build-metric side table printed next to a §4 figure."""
    file_name, report = _only(reports)
    paper = {name: row[5:] for name, row in PAM_TABLE_PAPER[file_name].items()}
    rows = {name: _build(report, name) for name in report.structures}
    return paper_vs_measured(title, paper, rows, ("stor", "dir/data", "insert", "h"))


def _table_5_2(title: str, reports: Reports) -> str:
    averages = {f: query_averages(reports[f]) for f in PAM_FILES}
    rows = {name: tuple(averages[f][name] for f in PAM_FILES) for name in _PAM_SUMMARY}
    paper = {
        name: tuple(PAM_QUERY_AVERAGE_PAPER[f][name] for f in PAM_FILES)
        for name in _PAM_SUMMARY
    }
    return paper_vs_measured(title, paper, rows, PAM_FILES)


def _table_5_1(title: str, reports: Reports) -> str:
    columns = ("query avg", "stor", "insert")
    return paper_vs_measured(title, PAM_SUMMARY_PAPER, table_5_1_rows(reports), columns)


def _sam_average(title: str, reports: Reports) -> str:
    columns = ("point", "intersect", "enclose", "contain", "stor", "insert")
    return paper_vs_measured(title, SAM_SUMMARY_PAPER, sam_average_rows(reports), columns)


@dataclass(frozen=True)
class Table:
    """One committed table: its title, the reports it reads, its renderer."""

    title: str
    kind: str  # "pam" | "sam"
    files: tuple[str, ...]
    renderer: Callable[[str, Reports], str]


TABLES: dict[str, Table] = {
    "TAB-UNIF": Table("Uniform Distribution (GRID = 100)", "pam", ("uniform",), pam_table),
    "TAB-SINUS": Table("Sinus Distribution (GRID = 100)", "pam", ("sinus",), pam_table),
    "TAB-BIT": Table("Bit Distribution (GRID = 100)", "pam", ("bit",), pam_table),
    "TAB-XPAR": Table("x-Parallel (GRID = 100)", "pam", ("x_parallel",), pam_table),
    "FIG-REAL": Table("Real Data figure series (GRID = 100)", "pam", ("real",), _figure),
    "FIG-DIAG": Table("Diagonal figure series (GRID = 100)", "pam", ("diagonal",), _figure),
    "FIG-CLUST": Table(
        "Cluster Points figure series (GRID = 100)", "pam", ("cluster",), _figure
    ),
    "FIG-CLUST-metrics": Table(
        "Cluster Points build metrics", "pam", ("cluster",), _figure_metrics
    ),
    "TAB-5.2": Table(
        "Table 5.2: query average per distribution (% of GRID)", "pam", PAM_FILES, _table_5_2
    ),
    "TAB-5.1": Table(
        "Table 5.1: unweighted average over all 7 distributions", "pam", PAM_FILES, _table_5_1
    ),
    "TAB-SAM-GSLIM": Table("Gaussianslim-Distribution", "sam", ("gaussian_slim",), sam_table),
    "TAB-SAM-USMALL": Table("Uniformsmall-Distribution", "sam", ("uniform_small",), sam_table),
    "TAB-SAM-GSQ": Table("Gaussiansquare-Distribution", "sam", ("gaussian_square",), sam_table),
    "TAB-SAM-ULARGE": Table("Uniformlarge-Distribution", "sam", ("uniform_large",), sam_table),
    "TAB-SAM-DIAG": Table("Diagonal-Distribution", "sam", ("diagonal",), sam_table),
    "TAB-SAM-AVG": Table(
        "SAM summary: average over the 5 rectangle files (R-tree = 100)",
        "sam",
        SAM_FILES,
        _sam_average,
    ),
}


def render(table_id: str, report: Callable[[str, str], RunReport]) -> str:
    """The text of ``table_id``; ``report(kind, file)`` supplies each run report."""
    table = TABLES[table_id]
    return table.renderer(table.title, {f: report(table.kind, f) for f in table.files})


# -- the paper's claims over the same reports -------------------------------


def _averages(report: Callable[[str, str], RunReport], file_name: str) -> dict[str, float]:
    return query_averages(report("pam", file_name))


def _costs(report: Callable[[str, str], RunReport], file_name: str) -> dict[str, dict]:
    return query_means(report("sam", file_name))


def _table_5_1(report: Callable[[str, str], RunReport]) -> dict[str, tuple]:
    return table_5_1_rows({f: report("pam", f) for f in PAM_FILES})


def _sam_summary(report: Callable[[str, str], RunReport]) -> dict[str, tuple]:
    return sam_average_rows({f: report("sam", f) for f in SAM_FILES})


@dataclass(frozen=True)
class Claim:
    """One statement of the paper that the measured table must bear out.

    ``holds(report)`` reads run reports the way :func:`render` does.
    """

    table: str
    sentence: str
    holds: Callable[[Callable[[str, str], RunReport]], bool]


CLAIMS: tuple[Claim, ...] = (
    Claim(
        "TAB-UNIF",
        "GRID wins on uniform data; every competitor is within ~±20 %.",
        lambda r: all(_averages(r, "uniform")[n] > 90.0 for n in ("HB", "BANG", "BUDDY")),
    ),
    Claim(
        "TAB-SINUS",
        "BUDDY edges out GRID on the sinus file.",
        lambda r: _averages(r, "sinus")["BUDDY"] < 100.0,
    ),
    Claim(
        "TAB-BIT",
        "bit(0.15) is BUDDY's worst case and HB's best case.",
        lambda r: _averages(r, "bit")["BUDDY"] > _averages(r, "bit")["HB"]
        and _averages(r, "bit")["HB"] < 100.0,
    ),
    Claim(
        "TAB-XPAR",
        "BUDDY is the clear winner on x-parallel data.",
        lambda r: _averages(r, "x_parallel")["BUDDY"] < 100.0,
    ),
    Claim(
        "FIG-REAL",
        "GRID leads narrowly; BANG is the loser on cartography data.",
        lambda r: _averages(r, "real")["BANG"] > 100.0
        and _averages(r, "real")["BUDDY"] < _averages(r, "real")["BANG"],
    ),
    Claim(
        "FIG-DIAG",
        "BUDDY at 28.4 % of GRID — the headline result.",
        lambda r: _averages(r, "diagonal")["BUDDY"] < 50.0
        and _averages(r, "diagonal")["BANG*"] < _averages(r, "diagonal")["BANG"],
    ),
    Claim(
        "FIG-CLUST",
        "BUDDY and BANG beat GRID on clusters, HB is the loser.",
        lambda r: _averages(r, "cluster")["BUDDY"] < 100.0
        and _averages(r, "cluster")["HB"] > _averages(r, "cluster")["BUDDY"],
    ),
    Claim(
        "TAB-5.2",
        "The robustness ranking on skewed files: BUDDY < BANG* < GRID.",
        lambda r: all(
            _averages(r, f)["BUDDY"] < _averages(r, f)["BANG*"] < 110.0
            for f in ("diagonal", "cluster")
        ),
    ),
    Claim(
        "TAB-5.1",
        "BUDDY is the overall winner; BUDDY+ at least as good; packing lifts "
        "BUDDY+'s storage utilisation above plain BUDDY's.",
        lambda r: (rows := _table_5_1(r))["BUDDY"][0]
        < min(rows["GRID"][0], rows["BANG"][0], rows["HB"][0])
        and rows["BUDDY+"][0] <= rows["BUDDY"][0] * 1.05
        and rows["BUDDY+"][1] > rows["BUDDY"][1],
    ),
    Claim(
        "TAB-SAM-AVG",
        "The corner transformation wins rectangle containment by an order of "
        "magnitude (paper: 14 % of the R-tree).",
        lambda r: (rows := _sam_summary(r))["BUDDY"][3] < 50.0 and rows["BANG"][3] < 50.0,
    ),
    Claim(
        "TAB-SAM-AVG",
        "PLOP does not beat the R-tree on intersection on average.",
        lambda r: _sam_summary(r)["PLOP"][1] > 85.0,
    ),
    Claim(
        "TAB-SAM-GSLIM",
        "Transformation containment is far below R-tree containment.",
        lambda r: (c := _costs(r, "gaussian_slim"))["BUDDY"]["containment"]
        < c["R-Tree"]["containment"],
    ),
    Claim(
        "TAB-SAM-USMALL",
        "Region minimisation makes BUDDY the better transformation substrate.",
        lambda r: (c := _costs(r, "uniform_small"))["BUDDY"]["point"] < c["BANG"]["point"],
    ),
    Claim(
        "TAB-SAM-GSQ",
        "The technique of transformation was always best for the rectangle "
        "containment query (§8).",
        lambda r: (c := _costs(r, "gaussian_square"))["BUDDY"]["containment"]
        < c["R-Tree"]["containment"]
        and c["BANG"]["containment"] < c["R-Tree"]["containment"],
    ),
    Claim(
        "TAB-SAM-ULARGE",
        "Large rectangles ruin the R-tree and PLOP; BANG/BUDDY containment stays "
        "tiny thanks to the corner transformation.",
        lambda r: (c := _costs(r, "uniform_large"))["BANG"]["containment"]
        < 0.2 * c["R-Tree"]["containment"]
        and c["PLOP"]["intersection"] > 0.5 * c["R-Tree"]["intersection"],
    ),
    Claim(
        "TAB-SAM-DIAG",
        "PLOP is the clear loser on the diagonal rectangles.",
        lambda r: (c := _costs(r, "diagonal"))["PLOP"]["intersection"]
        > c["BUDDY"]["intersection"],
    ),
)
