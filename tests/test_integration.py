"""Cross-structure integration tests.

Every PAM is built on every one of the paper's seven distributions and
checked against the linear-scan oracle; every SAM on every one of the
five rectangle files against brute force.  This is the all-pairs sweep
that gives confidence in the benchmark numbers.
"""

import pytest

from repro.core.testbed import standard_pam_factories, standard_sam_factories
from repro.pam.bang import BangFile
from repro.geometry.rect import Rect
from repro.pam.kdbtree import KdBTree
from repro.pam.mlgf import MultilevelGridFile
from repro.pam.plop import PlopHashing, QuantileHashing
from repro.pam.twingrid import TwinGridFile
from repro.sam.clipping import ClippingSAM
from repro.sam.rplustree import RPlusTree
from repro.pam.zbtree import ZOrderBTree
from repro.storage.pagestore import PageStore
from repro.verify.oracle import PamOracle
from repro.workloads.distributions import POINT_FILES, generate_point_file
from repro.workloads.queries import (
    generate_range_queries,
    generate_rect_query_workload,
)
from repro.workloads.rect_distributions import RECT_FILES, generate_rect_file

PAM_FACTORIES = dict(standard_pam_factories())
PAM_FACTORIES["PLOP"] = lambda store, dims=2: PlopHashing(store, dims)
PAM_FACTORIES["ZB"] = lambda store, dims=2: ZOrderBTree(store, dims)
PAM_FACTORIES["KDB"] = lambda store, dims=2: KdBTree(store, dims)
PAM_FACTORIES["MLGF"] = lambda store, dims=2: MultilevelGridFile(store, dims)
PAM_FACTORIES["BANG-MBR"] = lambda store, dims=2: BangFile(
    store, dims, minimal_regions=True
)
PAM_FACTORIES["TWIN"] = lambda store, dims=2: TwinGridFile(store, dims)
PAM_FACTORIES["QUANTILE"] = lambda store, dims=2: QuantileHashing(store, dims)

QUERIES = (
    generate_range_queries(0.001, count=4, seed=55)
    + generate_range_queries(0.01, count=4, seed=56)
    + generate_range_queries(0.10, count=4, seed=57)
    + [Rect.unit(2)]
)


@pytest.mark.parametrize("pam_name", sorted(PAM_FACTORIES))
@pytest.mark.parametrize("file_name", sorted(POINT_FILES))
def test_every_pam_on_every_distribution(pam_name, file_name):
    points = generate_point_file(file_name, 500)
    oracle = PamOracle(2)
    pam = PAM_FACTORIES[pam_name](PageStore(), dims=2)
    for i, p in enumerate(points):
        pam.insert(p, i)
        oracle.insert(p, i)
    for rect in QUERIES:
        assert sorted(pam.range_query(rect)) == sorted(oracle.range_query(rect))
    for p in points[::53]:
        assert sorted(pam.exact_match(p)) == sorted(oracle.exact_match(p))
    for axis in (0, 1):
        value = points[7][axis]
        assert sorted(pam.partial_match({axis: value})) == sorted(
            oracle.partial_match({axis: value})
        )
    metrics = pam.metrics()
    assert metrics.records == len(points)
    assert 0.0 < metrics.storage_utilization <= 100.0


SAM_FACTORIES = dict(standard_sam_factories())
SAM_FACTORIES["R+"] = lambda store, dims=2: RPlusTree(store, dims)
SAM_FACTORIES["CLIP"] = lambda store, dims=2: ClippingSAM(store, dims)


@pytest.mark.parametrize("sam_name", sorted(SAM_FACTORIES))
@pytest.mark.parametrize("file_name", sorted(RECT_FILES))
def test_every_sam_on_every_rect_file(sam_name, file_name):
    rects = generate_rect_file(file_name, 350)
    sam = SAM_FACTORIES[sam_name](PageStore(), dims=2)
    for i, r in enumerate(rects):
        sam.insert(r, i)
    workload = generate_rect_query_workload(queries_per_class=2)
    for query in workload["rectangles"]:
        assert sorted(sam.intersection(query)) == sorted(
            i for i, r in enumerate(rects) if r.intersects(query)
        )
        assert sorted(sam.containment(query)) == sorted(
            i for i, r in enumerate(rects) if query.contains_rect(r)
        )
        assert sorted(sam.enclosure(query)) == sorted(
            i for i, r in enumerate(rects) if r.contains_rect(query)
        )
    for point in workload["points"]:
        assert sorted(sam.point_query(point)) == sorted(
            i for i, r in enumerate(rects) if r.contains_point(point)
        )
