"""Reproduces the §8 summary table: per-type averages over the five
rectangle files, normalised to the R-tree (= 100), plus the average
storage utilisation and insertion cost."""

from repro.bench.tables import SAM_FILES, sam_average_rows

from benchmarks.conftest import emit_table, run_report


def test_table_sam_average(benchmark):
    emit_table("TAB-SAM-AVG")
    measured = sam_average_rows({f: run_report("sam", f) for f in SAM_FILES})
    benchmark(lambda: measured)
    # The paper's strongest conclusion survives any implementation
    # tuning: the corner transformation wins rectangle containment by an
    # order of magnitude (paper: 14 % of the R-tree; see EXPERIMENTS.md
    # for the point/intersection deviation caused by our tighter R-tree).
    assert measured["BUDDY"][3] < 50.0  # containment
    assert measured["BANG"][3] < 50.0
    # PLOP does not beat the R-tree on intersection on average.
    assert measured["PLOP"][1] > 85.0
