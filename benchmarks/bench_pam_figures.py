"""Reproduces the three §4 PAM figures (FIG-REAL, FIG-DIAG, FIG-CLUST).

The paper visualises these three "real-life and robustness" files as bar
charts of the five query types, normalised to GRID = 100 %.  The benches
print the series behind the bars (one row per structure) plus, for the
cluster file, the side table of build metrics shown next to the figure.
"""

from repro.bench.tables import query_averages
from repro.workloads.queries import generate_range_queries

from benchmarks.conftest import built_pam, emit_table, run_report


def run_figure(benchmark, file_name: str, figure_id: str) -> dict[str, float]:
    emit_table(figure_id)
    pam = built_pam(file_name, "BUDDY")
    queries = generate_range_queries(0.001)
    benchmark(lambda: [pam.range_query(q) for q in queries])
    return query_averages(run_report("pam", file_name))


def test_fig_real_data(benchmark):
    average = run_figure(benchmark, "real", "FIG-REAL")
    # Paper: GRID leads narrowly; BANG is the loser on cartography data.
    assert average["BANG"] > 100.0
    assert average["BUDDY"] < average["BANG"]


def test_fig_diagonal(benchmark):
    average = run_figure(benchmark, "diagonal", "FIG-DIAG")
    # Paper: BUDDY at 28.4 % of GRID — the headline result.
    assert average["BUDDY"] < 50.0
    assert average["BANG*"] < average["BANG"]


def test_fig_cluster(benchmark):
    average = run_figure(benchmark, "cluster", "FIG-CLUST")
    emit_table("FIG-CLUST-metrics")
    # Paper: BUDDY and BANG beat GRID on clusters, HB is the loser.
    assert average["BUDDY"] < 100.0
    assert average["HB"] > average["BUDDY"]
