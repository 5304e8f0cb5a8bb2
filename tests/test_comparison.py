"""Tests for the experiment driver and the standardised testbed."""

import os

import pytest

from repro.bench.ablations import EXPERIMENTS
from repro.core.comparison import (
    PAM_QUERY_TYPES,
    SAM_QUERY_TYPES,
    MethodResult,
    build_pam,
    build_sam,
    measure,
    run_experiment,
    run_file,
)
from repro.core.stats import BuildMetrics
from repro.core.testbed import (
    standard_pam_factories,
    standard_sam_factories,
)
from repro.pam.buddytree import BuddyTree
from repro.sam.rtree import RTree
from repro.storage.pagestore import PageStore
from repro.workloads.distributions import generate_point_file
from repro.workloads.rect_distributions import generate_rect_file


class TestMeasure:
    def test_measure_returns_delta_and_result(self):
        store = PageStore()
        pam = BuddyTree(store, 2)
        for i in range(300):
            pam.insert((i / 307.0, (i * 11 % 307) / 307.0), i)
        from repro.geometry.rect import Rect

        cost, hits = measure(store, lambda: pam.range_query(Rect.unit(2)))
        assert cost > 0
        assert len(hits) == 300


class TestDrivers:
    def test_pam_experiment_end_to_end(self):
        points = generate_point_file("uniform", 800)
        results = run_experiment(
            "pam", {"BUDDY": lambda store, dims=2: BuddyTree(store, dims)}, points
        ).results
        result = results["BUDDY"]
        assert set(result.query_costs) == set(PAM_QUERY_TYPES)
        assert all(cost >= 0 for cost in result.query_costs.values())
        assert result.metrics.records == 800
        assert result.query_average == pytest.approx(
            sum(result.query_costs.values()) / 5
        )

    def test_sam_experiment_end_to_end(self):
        rects = generate_rect_file("uniform_small", 400)
        results = run_experiment(
            "sam", {"R-Tree": lambda store, dims=2: RTree(store, dims)}, rects
        ).results
        result = results["R-Tree"]
        assert set(result.query_costs) == set(SAM_QUERY_TYPES)
        assert result.metrics.records == 400

    def test_same_points_same_hits(self):
        """Every structure must return identical result counts."""
        points = generate_point_file("cluster", 700)
        results = run_experiment("pam", standard_pam_factories(), points).results
        baselines = results["GRID"].query_results
        for name, result in results.items():
            assert result.query_results == baselines, name

    def test_sam_hits_agree(self):
        rects = generate_rect_file("gaussian_square", 350)
        results = run_experiment("sam", standard_sam_factories(), rects).results
        baselines = results["R-Tree"].query_results
        for name, result in results.items():
            assert result.query_results == baselines, name

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize(
        "run",
        [
            lambda: run_experiment("pam", ["GRID", "BUDDY"], generate_point_file("uniform", 200)),
            lambda: run_file("pam", "uniform", scale=200),  # BUDDY+ included
            lambda: EXPERIMENTS["ABL-TECHNIQUES"](300),
        ],
        ids=["run_experiment", "run_file", "ABL-TECHNIQUES"],
    )
    def test_disk_stores_are_closed_when_their_cell_is_done(self, run, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_BACKEND", "disk")
        before = len(os.listdir("/proc/self/fd"))
        run()
        assert len(os.listdir("/proc/self/fd")) == before

    def test_build_helpers(self):
        pam = build_pam(
            lambda store, dims=2: BuddyTree(store, dims),
            generate_point_file("uniform", 100),
        )
        assert len(pam) == 100
        sam = build_sam(
            lambda store, dims=2: RTree(store, dims),
            generate_rect_file("uniform_small", 100),
        )
        assert len(sam) == 100


def _result(name: str, costs: dict[str, float]) -> MethodResult:
    """A MethodResult with synthetic query costs and dummy metrics."""
    metrics = BuildMetrics(
        storage_utilization=0.0,
        dir_data_ratio=0.0,
        insert_cost=0.0,
        height=0,
        records=0,
        data_pages=0,
        directory_pages=0,
        pinned_pages=0,
    )
    return MethodResult(name, metrics, query_costs=dict(costs))


class TestMethodResult:
    def test_query_average_is_unweighted_mean(self):
        result = _result("X", {"a": 2.0, "b": 4.0, "c": 9.0})
        assert result.query_average == pytest.approx(5.0)

    def test_query_average_single_type(self):
        assert _result("X", {"point": 7.5}).query_average == pytest.approx(7.5)


class TestTestbed:
    def test_factory_names(self):
        assert set(standard_pam_factories()) == {"HB", "BANG", "BANG*", "GRID", "BUDDY"}
        assert set(standard_sam_factories()) == {"R-Tree", "BANG", "BUDDY", "PLOP"}

