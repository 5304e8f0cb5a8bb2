"""Scale-sensitivity ablation (the §3 claim behind 512-byte pages).

"Using small page sizes, we obtain similar performance results as for
much larger file sizes" — the relative ranking of the structures should
be stable in the number of records.  The bench compares the BUDDY/GRID
query-average ratio on the diagonal file at three scales.
"""

from repro.bench.tables import normalise
from repro.core.comparison import run_pam_experiment
from repro.core.testbed import standard_pam_factories
from repro.workloads.distributions import generate_point_file

from benchmarks.conftest import bench_scale, emit


def test_ranking_stable_across_scales(benchmark):
    factories = {
        name: f for name, f in standard_pam_factories().items() if name != "BANG*"
    }
    base = max(bench_scale() // 4, 1000)
    scales = (base, 2 * base, 4 * base)
    ratios = {}
    for n in scales:
        points = generate_point_file("diagonal", n)
        results = run_pam_experiment(factories, points)
        norm = normalise({n: r.query_costs for n, r in results.items()}, "GRID")
        ratios[n] = {
            name: sum(norm[name].values()) / len(norm[name]) for name in factories
        }
    benchmark(lambda: ratios)
    emit(
        "ABL-SCALE",
        "Scale sensitivity (diagonal file, query average % of GRID)\n"
        f"{'n':>8s}" + "".join(f"{name:>10s}" for name in factories) + "\n"
        + "\n".join(
            f"{n:8d}" + "".join(f"{ratios[n][name]:10.1f}" for name in factories)
            for n in scales
        ),
    )
    # BUDDY dominates GRID at every scale, and the winner never changes.
    for n in scales:
        assert ratios[n]["BUDDY"] < 60.0
        assert ratios[n]["BUDDY"] == min(ratios[n].values())
