"""Reproduces the four §4 PAM tables (TAB-UNIF/SINUS/BIT/XPAR).

Each table reports the five query types as percentages of GRID (= 100)
plus storage utilisation, directory/data ratio, insertion cost and
directory height, side by side with the paper's published rows.
"""

from repro.bench.tables import query_averages
from repro.workloads.queries import generate_range_queries

from benchmarks.conftest import built_pam, emit_table, run_report


def run_table(benchmark, file_name: str, table_id: str) -> dict[str, float]:
    emit_table(table_id)
    pam = built_pam(file_name, "GRID")
    queries = generate_range_queries(0.01)
    benchmark(lambda: [pam.range_query(q) for q in queries])
    return query_averages(run_report("pam", file_name))


def test_table_uniform(benchmark):
    average = run_table(benchmark, "uniform", "TAB-UNIF")
    # Paper: GRID wins on uniform data; every competitor is within ~±20 %.
    for name in ("HB", "BANG", "BUDDY"):
        assert average[name] > 90.0


def test_table_sinus(benchmark):
    average = run_table(benchmark, "sinus", "TAB-SINUS")
    # Paper: BUDDY edges out GRID on the sinus file.
    assert average["BUDDY"] < 100.0


def test_table_bit(benchmark):
    average = run_table(benchmark, "bit", "TAB-BIT")
    # Paper: bit(0.15) is BUDDY's worst case and HB's best case.
    assert average["BUDDY"] > average["HB"]
    assert average["HB"] < 100.0


def test_table_x_parallel(benchmark):
    average = run_table(benchmark, "x_parallel", "TAB-XPAR")
    # Paper: BUDDY is the clear winner on x-parallel data.
    assert average["BUDDY"] < 100.0
