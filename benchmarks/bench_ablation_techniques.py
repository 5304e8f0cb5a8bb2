"""Technique ablation: clipping vs transformation vs overlapping regions.

§6–§8 compare the three ways of extending a PAM to a SAM.  The bench
adds the clipping technique (redundant z-regions over a B+-tree, the
subject of Orenstein's companion paper in the same proceedings) to the
measured pair and sweeps its redundancy budget, exhibiting the
redundancy/retrieval trade-off.
"""

import time

from repro.core.comparison import build_sam, run_sam_queries
from repro.pam.buddytree import BuddyTree
from repro.sam.clipping import ClippingSAM
from repro.sam.overlapping import OverlappingPlop
from repro.sam.rplustree import RPlusTree
from repro.sam.transformation import TransformationSAM
from repro.workloads.rect_distributions import generate_rect_file

from benchmarks.conftest import bench_scale, emit, emit_json


def query_average(result):
    return sum(result.query_costs.values()) / len(result.query_costs)


def test_three_techniques(benchmark):
    rects = generate_rect_file("gaussian_square", max(bench_scale() // 2, 2000))
    sams = {
        "transformation": lambda s, dims=2: TransformationSAM(
            s, lambda st, dims: BuddyTree(st, dims), dims=dims
        ),
        "overlapping": lambda s, dims=2: OverlappingPlop(s, dims),
        "clipping": lambda s, dims=2: ClippingSAM(s, dims, redundancy=4),
        "clipping-R+": lambda s, dims=2: RPlusTree(s, dims),
    }
    results = {name: run_sam_queries(build_sam(f, rects)) for name, f in sams.items()}
    benchmark(lambda: results)
    emit(
        "ABL-TECHNIQUES",
        "PAM-to-SAM techniques (Gaussiansquare, avg accesses per query)\n"
        f"{'':16s}{'point':>8s}{'intersect':>10s}{'enclose':>9s}{'contain':>9s}\n"
        + "\n".join(
            f"{name:16s}"
            f"{r.query_costs['point']:8.1f}"
            f"{r.query_costs['intersection']:10.1f}"
            f"{r.query_costs['enclosure']:9.1f}"
            f"{r.query_costs['containment']:9.1f}"
            for name, r in results.items()
        ),
    )
    # §8: "the technique of transformation was always best for the
    # rectangle containment query".
    best_containment = min(results, key=lambda n: results[n].query_costs["containment"])
    assert best_containment == "transformation"


def test_clipping_redundancy_sweep(benchmark):
    from repro.obs.ablation import build_clip_redundancy_document

    rects = generate_rect_file("gaussian_square", max(bench_scale() // 4, 1000))
    rows = {}
    doc_rows = []
    for redundancy in (1, 2, 4, 8):
        started = time.perf_counter()
        sam = build_sam(
            lambda s, dims=2, r=redundancy: ClippingSAM(s, dims, redundancy=r), rects
        )
        build_seconds = time.perf_counter() - started
        started = time.perf_counter()
        result = run_sam_queries(sam)
        query_seconds = time.perf_counter() - started
        rows[redundancy] = (
            sam.stored_regions / len(rects),
            result.query_costs["point"],
            result.metrics.data_pages,
        )
        doc_rows.append(
            {
                "budget": redundancy,
                "regions_per_object": sam.stored_regions / len(rects),
                "point_cost": result.query_costs["point"],
                "data_pages": result.metrics.data_pages,
                "build_seconds": build_seconds,
                "query_seconds": query_seconds,
                "redundancy": dict(sam.snapshot()["redundancy"]),
            }
        )
    benchmark(lambda: rows)
    emit(
        "ABL-CLIP-REDUNDANCY",
        "Clipping redundancy sweep (Orenstein's trade-off)\n"
        f"{'budget':>8s}{'regions/obj':>13s}{'point cost':>12s}{'data pages':>12s}\n"
        + "\n".join(
            f"{budget:8d}{factor:13.2f}{cost:12.1f}{pages:12d}"
            for budget, (factor, cost, pages) in rows.items()
        ),
    )
    doc = build_clip_redundancy_document(
        file="gaussian_square",
        scale=len(rects),
        page_size=512,
        seed=107,
        rows=doc_rows,
    )
    emit_json("ABL-CLIP-REDUNDANCY", doc)
    # More redundancy => strictly more stored regions.
    factors = [rows[b][0] for b in (1, 2, 4, 8)]
    assert factors == sorted(factors)
    assert factors[0] == 1.0
