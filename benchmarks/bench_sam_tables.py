"""Reproduces the five §8 SAM tables (absolute accesses per query type).

Each table runs the full §7 workload (160 query rectangles of eight
size/shape classes for intersection, enclosure and containment, plus 20
point queries) against the R-tree, BANG and BUDDY via transformation,
and PLOP via overlapping regions.
"""

from repro.bench.tables import query_means

from benchmarks.conftest import emit_table, run_report


def run_table(benchmark, file_name: str, table_id: str) -> dict[str, dict[str, float]]:
    emit_table(table_id)
    report = run_report("sam", file_name)
    benchmark(lambda: report)  # builds/queries ran once; time the lookup
    return query_means(report)


def test_table_gaussianslim(benchmark):
    cost = run_table(benchmark, "gaussian_slim", "TAB-SAM-GSLIM")
    # Paper: transformation containment is far below R-tree containment.
    assert cost["BUDDY"]["containment"] < cost["R-Tree"]["containment"]


def test_table_uniformsmall(benchmark):
    cost = run_table(benchmark, "uniform_small", "TAB-SAM-USMALL")
    # Region minimisation makes BUDDY the better transformation
    # substrate.  (With near-point rectangles nearly every intersecting
    # rectangle is also contained, so the containment shortcut has
    # nothing to win on this file — see EXPERIMENTS.md.)
    assert cost["BUDDY"]["point"] < cost["BANG"]["point"]


def test_table_gaussiansquare(benchmark):
    cost = run_table(benchmark, "gaussian_square", "TAB-SAM-GSQ")
    # "The technique of transformation was always best for the rectangle
    # containment query" (§8).
    assert cost["BUDDY"]["containment"] < cost["R-Tree"]["containment"]
    assert cost["BANG"]["containment"] < cost["R-Tree"]["containment"]


def test_table_uniformlarge(benchmark):
    cost = run_table(benchmark, "uniform_large", "TAB-SAM-ULARGE")
    # Paper: large rectangles ruin the R-tree and PLOP; BANG/BUDDY
    # containment stays tiny thanks to the corner transformation.
    assert cost["BANG"]["containment"] < 0.2 * cost["R-Tree"]["containment"]
    assert cost["PLOP"]["intersection"] > 0.5 * cost["R-Tree"]["intersection"]


def test_table_sam_diagonal(benchmark):
    cost = run_table(benchmark, "diagonal", "TAB-SAM-DIAG")
    # Paper: PLOP is the clear loser on the diagonal rectangles.
    assert cost["PLOP"]["intersection"] > cost["BUDDY"]["intersection"]
