"""Tests for :mod:`repro.parallel` — determinism and wiring.

The acceptance bar for the parallel runner is *bit-equivalence*: with
any worker count, the merged :class:`MethodResult` numbers, the
per-structure :class:`AccessStats` totals, the span histograms and the
rendered tables must be indistinguishable from the serial bench loop.
"""

from __future__ import annotations

import pytest

from repro.bench.tables import normalise
from repro.core.comparison import (
    build_pam,
    build_sam,
    run_experiment,
    run_pam_experiment,
    run_pam_queries,
    run_sam_queries,
)
from repro.core.stats import AccessStats
from repro.core.testbed import (
    run_standard_pam_testbed,
    standard_pam_factories,
    standard_sam_factories,
)
from repro.obs.export import summarise_spans, validate_run_report
from repro.obs.tracer import Tracer
from repro.parallel.jobs import JobSpec, execute_job, file_specs
from repro.parallel.runner import run_file
from repro.workloads.distributions import generate_point_file
from repro.workloads.rect_distributions import generate_rect_file

PAM_SCALE = 400
SAM_SCALE = 250


# -- serial references (replicating the bench loop step for step) ----------


def serial_pam_reference(file_name: str, scale: int):
    """The bench conftest's serial PAM loop, including BUDDY+ derivation."""
    points = generate_point_file(file_name, scale)
    tracer = Tracer()
    results, totals = {}, {}
    for name, factory in standard_pam_factories().items():
        tracer.set_context(structure=name)
        pam = build_pam(factory, points, tracer=tracer)
        result = run_pam_queries(pam, tracer=tracer)
        result.name = name
        results[name] = result
        totals[name] = pam.store.stats.snapshot()
        if name == "BUDDY":
            before = pam.store.stats.snapshot()
            tracer.set_context(structure="BUDDY+", op="pack")
            pam.pack()
            packed = run_pam_queries(pam, tracer=tracer)
            packed.name = "BUDDY+"
            results["BUDDY+"] = packed
            totals["BUDDY+"] = pam.store.stats - before
    return results, totals, tracer.finish()


def serial_sam_reference(file_name: str, scale: int):
    rects = generate_rect_file(file_name, scale)
    tracer = Tracer()
    results, totals = {}, {}
    for name, factory in standard_sam_factories().items():
        tracer.set_context(structure=name)
        sam = build_sam(factory, rects, tracer=tracer)
        result = run_sam_queries(sam, tracer=tracer)
        result.name = name
        results[name] = result
        totals[name] = sam.store.stats.snapshot()
    return results, totals, tracer.finish()


def assert_outcome_matches(results, totals, spans, outcome):
    """Everything except wall-clock timers must agree exactly."""
    assert list(outcome.results) == list(results)
    for name, reference in results.items():
        merged = outcome.results[name]
        assert merged.name == reference.name
        assert merged.query_costs == reference.query_costs, name
        assert merged.query_results == reference.query_results, name
        assert merged.metrics.as_dict() == reference.metrics.as_dict(), name
        assert outcome.totals[name] == totals[name], name
    reference_hists = summarise_spans(spans)
    merged_hists = summarise_spans(outcome.spans)
    assert set(merged_hists) == set(reference_hists)
    for structure, per_op in reference_hists.items():
        assert set(merged_hists[structure]) == set(per_op)
        for op, hist in per_op.items():
            assert merged_hists[structure][op].as_dict() == hist.as_dict(), (
                structure,
                op,
            )


# -- determinism: parallel == serial ---------------------------------------


@pytest.fixture(scope="module")
def pam_parallel_outcome():
    """One 2-worker PAM run shared by the determinism assertions."""
    return run_file("pam", "uniform", scale=PAM_SCALE, workers=2)


class TestParallelMatchesSerial:
    def test_pam_grid_cell(self, pam_parallel_outcome):
        results, totals, spans = serial_pam_reference("uniform", PAM_SCALE)
        assert_outcome_matches(results, totals, spans, pam_parallel_outcome)

    def test_pam_tables_identical(self, pam_parallel_outcome):
        """The paper-style normalised table derives identically."""
        results, _, _ = serial_pam_reference("uniform", PAM_SCALE)
        pooled = pam_parallel_outcome.results
        assert normalise({n: r.query_costs for n, r in results.items()}, "GRID") == (
            normalise({n: r.query_costs for n, r in pooled.items()}, "GRID")
        )

    def test_pam_timers_cover_all_structures(self, pam_parallel_outcome):
        expected = {"HB", "BANG", "BANG*", "GRID", "BUDDY", "BUDDY+"}
        assert {
            key.split("/")[0] for key in pam_parallel_outcome.timers
        } == expected

    def test_sam_grid_cell(self):
        results, totals, spans = serial_sam_reference("uniform_small", SAM_SCALE)
        outcome = run_file("sam", "uniform_small", scale=SAM_SCALE, workers=2)
        assert_outcome_matches(results, totals, spans, outcome)

    def test_inline_data_experiment(self):
        points = generate_point_file("cluster", 300)
        serial = run_pam_experiment(
            {"GRID": standard_pam_factories()["GRID"]}, points
        )
        outcome = run_experiment("pam", ["GRID"], points, workers=1)
        assert (
            outcome.results["GRID"].query_costs == serial["GRID"].query_costs
        )

    def test_comparison_api_workers(self):
        """run_pam_experiment(names, workers=2) routes through the pool."""
        points = generate_point_file("uniform", 250)
        serial = run_pam_experiment(standard_pam_factories(), points)
        parallel = run_pam_experiment(list(serial), points, workers=2)
        assert list(parallel) == list(serial)
        for name in serial:
            assert parallel[name].query_costs == serial[name].query_costs

    def test_factories_and_pooled_names_trace_alike(self):
        """Factories run inline and names run pooled, each cell under its
        own tracer: the merged spans and the report agree exactly."""
        points = generate_point_file("cluster", 250)
        inline = run_experiment("pam", standard_pam_factories(), points)
        pooled = run_experiment("pam", list(inline.results), points, workers=2)
        reference = (inline.results, inline.totals, inline.spans)
        assert_outcome_matches(*reference, pooled)
        assert pooled.to_report().access_totals() == inline.to_report().access_totals()

    def test_comparison_api_rejects_factories_with_workers(self):
        """Callables cannot reach a worker process."""
        with pytest.raises(ValueError, match="structure names"):
            run_pam_experiment(standard_pam_factories(), [(0.5, 0.5)], workers=2)

    def test_testbed_parallel_report_matches_serial(self):
        points = generate_point_file("uniform", 250)
        serial_results, serial_report = run_standard_pam_testbed(points, workers=1)
        parallel_results, parallel_report = run_standard_pam_testbed(
            points, workers=2
        )
        assert validate_run_report(parallel_report.to_dict()) == []
        assert parallel_report.access_totals() == serial_report.access_totals()
        assert list(parallel_results) == list(serial_results)
        # Counted vs uncounted touches per (structure, op) are exact too.
        for name, serial in serial_report.structures.items():
            parallel = parallel_report.structures[name]
            assert parallel["build"]["ops"] == serial["build"]["ops"], name
            for label, query in serial["queries"].items():
                assert parallel["queries"][label]["touches"] == query["touches"]


# -- job specs --------------------------------------------------------------


class TestJobSpecs:
    def test_kind_validated(self):
        with pytest.raises(ValueError, match="kind"):
            JobSpec(kind="tree", structure="GRID", scale=10, file="uniform")

    def test_unknown_structure_lists_registry(self):
        spec = JobSpec(kind="pam", structure="ZORDER", scale=50, file="uniform")
        with pytest.raises(KeyError, match="registered structures"):
            execute_job(spec)

    def test_standard_grids(self):
        pam = file_specs("pam", "uniform", 100)
        assert [s.structure for s in pam] == ["HB", "BANG", "BANG*", "GRID", "BUDDY"]
        assert [s.derive_packed for s in pam] == [False] * 4 + [True]
        sam = file_specs("sam", "diagonal", 100)
        assert [s.structure for s in sam] == ["R-Tree", "BANG", "BUDDY", "PLOP"]
        assert all(s.seed is not None for s in pam + sam)
