"""HB + minimal regions: the paper's §5 prescription, measured.

"We believe that the only way to improve HB is to incorporate the
concept of not partitioning empty data space.  With this and the median
partition it might become very competitive."
"""

from repro.core.comparison import build_pam, run_pam_queries
from repro.pam.hbtree import HBTree
from repro.pam.twolevelgrid import TwoLevelGridFile
from repro.workloads.distributions import generate_point_file

from benchmarks.conftest import bench_scale, emit


def test_hb_minimal_regions(benchmark):
    rows = {}
    for file_name in ("diagonal", "cluster", "uniform"):
        points = generate_point_file(file_name, max(bench_scale() // 2, 2000))
        grid = run_pam_queries(
            build_pam(lambda s, dims=2: TwoLevelGridFile(s, dims), points)
        )
        plain = run_pam_queries(build_pam(lambda s, dims=2: HBTree(s, dims), points))
        minimal = run_pam_queries(
            build_pam(lambda s, dims=2: HBTree(s, dims, minimal_regions=True), points)
        )
        rows[file_name] = (
            100.0 * plain.query_average / grid.query_average,
            100.0 * minimal.query_average / grid.query_average,
        )
    benchmark(lambda: rows)
    emit(
        "ABL-HB-MBR",
        "HB with minimal regions (§5 prescription, % of GRID)\n"
        f"{'':12s}{'HB':>10s}{'HB+MBR':>10s}\n"
        + "\n".join(
            f"{name:12s}{p:10.1f}{m:10.1f}" for name, (p, m) in rows.items()
        ),
    )
    # The prediction holds on the empty-space-dominated files.
    assert rows["diagonal"][1] < rows["diagonal"][0]
    assert rows["cluster"][1] < rows["cluster"][0]
