"""The ablation and extension experiments behind every ``ABL-*`` / ``EXT-*``.

Each experiment is a plain function of the session's records-per-file
setting (``bench_scale``): it generates its data, builds its structures
on the configured store, runs its queries and returns its rows, plain
JSON values keyed the way its table prints them.  ``python -m
repro.bench`` runs every one as a job beside the paper's sessions and
saves ``results/<ID>.json`` as ``{"bench_scale": ..., "rows": ...}``;
:mod:`repro.bench.tables` renders ``results/<ID>.txt`` from that file
and states the paper's claims over it.  The asserts left here are
internal consistency checks, not claims.
"""

from __future__ import annotations

from typing import Callable

from repro.bench.tables import normalise
from repro.core.comparison import build_method, measure, run_pam_queries, run_sam_queries
from repro.core.testbed import standard_pam_factories
from repro.obs.metrics import Histogram
from repro.obs.tracer import Tracer
from repro.pam.bang import BangFile
from repro.pam.buddytree import BuddyTree
from repro.pam.gridfile import GridFile
from repro.pam.hbtree import HBTree
from repro.pam.mlgf import MultilevelGridFile
from repro.pam.plop import PlopHashing, QuantileHashing
from repro.pam.twingrid import TwinGridFile
from repro.pam.twolevelgrid import TwoLevelGridFile
from repro.sam.clipping import ClippingSAM
from repro.sam.operations import nearest_neighbors, nested_loop_join, rtree_join
from repro.sam.overlapping import OverlappingPlop
from repro.sam.rplustree import RPlusTree
from repro.sam.rtree import RTree
from repro.sam.transformation import TransformationSAM
from repro.workloads.distributions import generate_point_file
from repro.workloads.queries import generate_point_queries
from repro.workloads.rect_distributions import generate_rect_file

__all__ = ["EXPERIMENTS"]


def _build(factory, records, **options):
    """``factory(store, dims, **options)`` built over ``records``."""
    return build_method(lambda s, dims=2: factory(s, dims, **options), records)


def _buddy(store, dims):
    return BuddyTree(store, dims)


def _probe_total(method, points) -> int:
    """Accesses of exact-match probes on every ~200th point, each cold."""
    total = 0
    for p in points[:: max(1, len(points) // 200)]:
        # Two brackets flush the search-path buffer so each probe is
        # measured cold (a multi-branch probe would otherwise act as a
        # prefetch for its successor).
        method.store.begin_operation()
        method.store.begin_operation()
        cost, _ = measure(method.store, lambda p=p: method.exact_match(p))
        total += cost
    return total


# -- Part I ablations --------------------------------------------------------


def bang_spanning(scale: int) -> dict:
    """§5: the missing spanning property lengthens BANG's probes."""
    points = generate_point_file("cluster", scale // 2)
    return {
        "without spanning": _probe_total(_build(BangFile, points), points),
        "with spanning": _probe_total(_build(BangFile, points, spanning=True), points),
    }


def bang_entries(scale: int) -> dict:
    """Table 5.1: fixed vs variable-length BANG directory entries."""
    points = generate_point_file("cluster", scale // 2)
    rows = {}
    for name, variable in (("BANG", False), ("BANG*", True)):
        bang = _build(BangFile, points, variable_length_entries=variable)
        result = run_pam_queries(bang)
        rows[name] = {
            "query_average": result.query_average,
            "directory_pages": result.metrics.directory_pages,
        }
    return rows


def bang_minimal_regions(scale: int) -> dict:
    """§9: BUDDY's minimal regions grafted onto BANG."""
    rows = {}
    for file_name in ("diagonal", "cluster"):
        points = generate_point_file(file_name, scale // 2)
        rows[file_name] = {
            name: run_pam_queries(_build(BangFile, points, minimal_regions=m)).query_average
            for name, m in (("BANG", False), ("BANG+MBR", True))
        }
    return rows


def _packing(file_name: str, scale: int) -> dict:
    tree = _build(BuddyTree, generate_point_file(file_name, scale // 2))

    def row():
        result = run_pam_queries(tree)
        return {
            "storage_utilization": result.metrics.storage_utilization,
            "query_average": result.query_average,
            "data_pages": result.metrics.data_pages,
        }

    before = row()
    saved = tree.pack()
    return {"BUDDY": before, "BUDDY+": {**row(), "pages_saved": saved}}


def buddy_pack_bit(scale: int) -> dict:
    """§5: packing on bit(z), BUDDY's worst case and packing's motivation."""
    return _packing("bit", scale)


def buddy_pack_cluster(scale: int) -> dict:
    """§5: the packing gain on the cluster file."""
    return _packing("cluster", scale)


def hb_minimal_regions(scale: int) -> dict:
    """§5: HB with minimal regions, query averages in % of GRID."""
    rows = {}
    for file_name in ("diagonal", "cluster", "uniform"):
        points = generate_point_file(file_name, scale // 2)
        grid = run_pam_queries(_build(TwoLevelGridFile, points)).query_average
        rows[file_name] = {}
        for name, minimal in (("HB", False), ("HB+MBR", True)):
            hb = run_pam_queries(_build(HBTree, points, minimal_regions=minimal))
            rows[file_name][name] = 100.0 * hb.query_average / grid
    return rows


def insertion_order(scale: int) -> dict:
    """§5 (C2): the same uniform points inserted at random and sorted."""
    points = generate_point_file("uniform", scale // 2)
    factories = standard_pam_factories()
    rows = {}
    for name in ("GRID", "BANG", "BUDDY"):
        randomly = run_pam_queries(build_method(factories[name], points))
        ordered = run_pam_queries(build_method(factories[name], sorted(points)))
        rows[name] = {
            "random": randomly.query_average,
            "sorted": ordered.query_average,
            "sorted_storage_utilization": ordered.metrics.storage_utilization,
        }
    return rows


def buddy_vs_mlgf(scale: int) -> dict:
    """§2: BUDDY against its balanced predecessor on the cluster file."""
    points = generate_point_file("cluster", scale // 2)
    rows = {}
    for name, factory in (("BUDDY", BuddyTree), ("MLGF", MultilevelGridFile)):
        tree = _build(factory, points)
        result = run_pam_queries(tree)
        rows[name] = {
            "insert": result.metrics.insert_cost,
            "probes": _probe_total(tree, points),
            "query_average": result.query_average,
            "height": result.metrics.height,
            "directory_pages": result.metrics.directory_pages,
        }
    return rows


def page_sizes(scale: int) -> list:
    """§3: BUDDY and BANG at 512-, 1024- and 2048-byte pages."""
    points = generate_point_file("uniform", scale // 2)
    rows = []
    for page_size in (512, 1024, 2048):
        for name, factory in (("BUDDY", BuddyTree), ("BANG", BangFile)):
            method = build_method(
                lambda s, dims=2, f=factory: f(s, dims), points, page_size=page_size
            )
            result = run_pam_queries(method)
            rows.append(
                {
                    "structure": name,
                    "page_size": page_size,
                    "height": result.metrics.height,
                    "pages": result.metrics.data_pages + result.metrics.directory_pages,
                    "query_average": result.query_average,
                }
            )
    return rows


def plop_vs_quantile(scale: int) -> dict:
    """§1 / §2: PLOP against quantile hashing [KS 87]."""
    rows = {}
    for file_name in ("x_parallel", "sinus", "cluster", "uniform"):
        points = generate_point_file(file_name, scale // 2)
        rows[file_name] = {
            name: run_pam_queries(_build(factory, points)).query_average
            for name, factory in (("PLOP", PlopHashing), ("QUANTILE", QuantileHashing))
        }
    return rows


def scale_sensitivity(scale: int) -> dict:
    """§3: the diagonal file's query averages (% of GRID) at three sizes."""
    factories = {n: f for n, f in standard_pam_factories().items() if n != "BANG*"}
    base = scale // 4
    rows = {}
    for n in (base, 2 * base, 4 * base):
        points = generate_point_file("diagonal", n)
        costs = {
            name: run_pam_queries(build_method(factory, points)).query_costs
            for name, factory in factories.items()
        }
        rows[str(n)] = {
            name: sum(norm.values()) / len(norm)
            for name, norm in normalise(costs, "GRID").items()
        }
    return rows


def twin_grid(scale: int) -> dict:
    """§2: the twin grid file (class C2) against the one-level grid file."""
    rows = {}
    for file_name in ("uniform", "cluster"):
        points = generate_point_file(file_name, scale // 2)
        rows[file_name] = {}
        for name, factory in (("grid", GridFile), ("twin", TwinGridFile)):
            result = run_pam_queries(_build(factory, points))
            rows[file_name][f"{name}_storage_utilization"] = result.metrics.storage_utilization
            rows[file_name][f"{name}_query_average"] = result.query_average
    return rows


# -- Part II ablations -------------------------------------------------------


def rtree_split(scale: int) -> dict:
    """§8: Guttman's, Greene's and the margin split."""
    rects = generate_rect_file("gaussian_square", scale // 2)
    rows = {}
    for policy in ("guttman", "greene", "margin"):
        result = run_sam_queries(_build(RTree, rects, split_policy=policy))
        rows[policy] = {
            "query_average": result.query_average,
            "storage_utilization": result.metrics.storage_utilization,
        }
    return rows


def rtree_fill(scale: int) -> dict:
    """§7: the R-tree at 30 % and at 50 % minimum fill."""
    rects = generate_rect_file("uniform_small", scale // 2)
    rows = {}
    for fill in (0.3, 0.5):
        result = run_sam_queries(_build(RTree, rects, min_fill=fill))
        rows[str(fill)] = {
            "query_average": result.query_average,
            "storage_utilization": result.metrics.storage_utilization,
        }
    return rows


def techniques(scale: int) -> dict:
    """§6–§8: transformation, overlapping regions and two clippings."""
    rects = generate_rect_file("gaussian_square", scale // 2)
    variants = {
        "transformation": lambda s, dims=2: TransformationSAM(s, _buddy, dims=dims),
        "overlapping": lambda s, dims=2: OverlappingPlop(s, dims),
        "clipping": lambda s, dims=2: ClippingSAM(s, dims, redundancy=4),
        "clipping-R+": lambda s, dims=2: RPlusTree(s, dims),
    }
    return {
        name: run_sam_queries(build_method(factory, rects)).query_costs
        for name, factory in variants.items()
    }


def clip_redundancy(scale: int) -> list:
    """Orenstein's trade-off: the clipping SAM over four redundancy budgets."""
    rects = generate_rect_file("gaussian_square", scale // 4)
    rows = []
    for budget in (1, 2, 4, 8):
        sam = _build(ClippingSAM, rects, redundancy=budget)
        result = run_sam_queries(sam)
        rows.append(
            {
                "budget": budget,
                "regions_per_object": sam.stored_regions / len(rects),
                "point_cost": result.query_costs["point"],
                "data_pages": result.metrics.data_pages,
                "redundancy": dict(sam.snapshot()["redundancy"]),
            }
        )
    return rows


def corner_vs_center(scale: int) -> dict:
    """§7 [See 89]: corner against center representation, BUDDY substrate."""
    rects = generate_rect_file("gaussian_square", scale // 2)
    rows = {}
    for name, options in (
        ("corner", {"representation": "corner"}),
        ("center", {"representation": "center"}),
        ("center+bound", {"representation": "center", "bounded_extents": True}),
    ):
        sam = build_method(
            lambda s, dims=2: TransformationSAM(s, _buddy, dims=dims, **options), rects
        )
        result = run_sam_queries(sam)
        rows[name] = {**result.query_costs, "average": result.query_average}
    return rows


# -- extensions beyond the paper ---------------------------------------------


def deletion(scale: int) -> dict:
    """§3 leaves deletions unmeasured: delete half of each built file."""
    points = generate_point_file("uniform", scale // 2)
    rects = generate_rect_file("uniform_small", scale // 2)
    rows = {}
    for name, factory, items in (
        ("GridFile", GridFile, points),
        ("BUDDY", BuddyTree, points),
        ("R-Tree", RTree, rects),
    ):
        index = _build(factory, items)
        before = index.store.stats.total
        half = len(items) // 2
        deleted = [index.delete(item, rid) for rid, item in enumerate(items[:half])]
        assert all(deleted)
        rows[name] = {
            "delete_cost": (index.store.stats.total - before) / half,
            "storage_utilization": index.metrics().storage_utilization,
        }
    return rows


def spatial_join(scale: int) -> dict:
    """§8's 'overlay two maps': the synchronised R-tree join and a nested loop."""
    n = scale // 4
    left_rects = generate_rect_file("uniform_small", n, seed=41)
    right_rects = generate_rect_file("gaussian_square", n, seed=42)
    left, right = _build(RTree, left_rects), _build(RTree, right_rects)
    before = left.store.stats.total + right.store.stats.total
    pairs = rtree_join(left, right)
    synchronised = left.store.stats.total + right.store.stats.total - before
    fresh = _build(RTree, right_rects)
    before = fresh.store.stats.total
    nested = nested_loop_join(list(zip(left_rects, range(n))), fresh)
    assert sorted(pairs) == sorted(nested)
    return {
        "result pairs": len(pairs),
        "synchronised join": synchronised,
        "nested-loop join": fresh.store.stats.total - before,
    }


def nearest_neighbours(scale: int) -> dict:
    """§8's near-neighbour queries: best-first k-NN, each probe traced."""
    tree = _build(RTree, generate_rect_file("uniform_small", scale // 2, seed=43))
    tracer = Tracer().attach(tree.store)
    tracer.set_context(structure="R-Tree", op="nn")
    total = 0
    for probe in generate_point_queries(count=20, seed=44):
        tree.store.begin_operation()
        tree.store.begin_operation()
        cost, _ = measure(tree.store, lambda probe=probe: nearest_neighbors(tree, probe, k=5))
        total += cost
    per_probe = Histogram("nn/accesses")
    # Every second span is the empty double-bracket flush; keep probes.
    for span in tracer.finish():
        if span.op == "nn" and span.accesses:
            per_probe.observe(span.accesses)
    assert per_probe.sum == total
    metrics = tree.metrics()
    return {
        "best-first total": total,
        "file size (pages)": metrics.data_pages + metrics.directory_pages,
        **{f"per-probe p{q}": per_probe.percentile(q) for q in (50, 90, 99)},
        "per-probe max": per_probe.max,
    }


#: Every result id and the experiment whose rows it holds, longest first
#: (the order ``python -m repro.bench`` submits them in, after the
#: paper's sessions).
EXPERIMENTS: dict[str, Callable[[int], object]] = {
    "ABL-CLIP-REDUNDANCY": clip_redundancy,
    "ABL-TECHNIQUES": techniques,
    "ABL-SCALE": scale_sensitivity,
    "ABL-TRANSFORM": corner_vs_center,
    "ABL-HB-MBR": hb_minimal_regions,
    "ABL-RTREE-SPLIT": rtree_split,
    "EXT-DELETE": deletion,
    "EXT-JOIN": spatial_join,
    "ABL-BANG-MBR": bang_minimal_regions,
    "ABL-INSERT-ORDER": insertion_order,
    "ABL-RTREE-FILL": rtree_fill,
    "ABL-PAGESIZE": page_sizes,
    "ABL-QUANTILE": plop_vs_quantile,
    "ABL-BANG-SPANNING": bang_spanning,
    "EXT-NN": nearest_neighbours,
    "ABL-TWIN": twin_grid,
    "ABL-MLGF": buddy_vs_mlgf,
    "ABL-BUDDY-PACK-BIT": buddy_pack_bit,
    "ABL-BANG-ENTRIES": bang_entries,
    "ABL-BUDDY-PACK-CLUSTER": buddy_pack_cluster,
}
