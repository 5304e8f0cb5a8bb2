"""A session run in a worker process matches the serial bench loop.

``python -m repro.bench --processes N`` runs each data file's session
(:func:`~repro.core.comparison.run_file`) in a ``spawn`` process pool.
The bar is *bit-equivalence*: the outcome a worker sends back — the
:class:`MethodResult` numbers, the per-structure :class:`AccessStats`
totals, the span histograms and the tables derived from them — must be
indistinguishable from the serial bench loop written out by hand here.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.bench.tables import normalise
from repro.core.comparison import (
    build_pam,
    build_sam,
    run_experiment,
    run_file,
    run_queries,
)
from repro.core.testbed import standard_pam_factories, standard_sam_factories
from repro.obs.export import summarise_spans
from repro.obs.tracer import Tracer
from repro.workloads.distributions import generate_point_file
from repro.workloads.rect_distributions import generate_rect_file

PAM_SCALE = 400
SAM_SCALE = 250


# -- serial references (the bench loop written out step for step) ----------


def serial_pam_reference(file_name: str, scale: int):
    """The serial PAM bench loop written out by hand, BUDDY+ derivation included."""
    points = generate_point_file(file_name, scale)
    tracer = Tracer()
    results, totals = {}, {}
    for name, factory in standard_pam_factories().items():
        tracer.set_context(structure=name)
        pam = build_pam(factory, points, tracer=tracer)
        result = run_queries("pam", pam, tracer=tracer)
        result.name = name
        results[name] = result
        totals[name] = pam.store.stats.snapshot()
        if name == "BUDDY":
            before = pam.store.stats.snapshot()
            tracer.set_context(structure="BUDDY+", op="pack")
            pam.pack()
            packed = run_queries("pam", pam, tracer=tracer)
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
        result = run_queries("sam", sam, tracer=tracer)
        result.name = name
        results[name] = result
        totals[name] = sam.store.stats.snapshot()
    return results, totals, tracer.finish()


def assert_outcome_matches(results, totals, spans, outcome):
    """Everything except wall-clock timers must agree exactly."""
    assert list(outcome.results) == list(results)
    for name, reference in results.items():
        folded = outcome.results[name]
        assert folded.name == reference.name
        assert folded.query_costs == reference.query_costs, name
        assert folded.query_results == reference.query_results, name
        assert folded.metrics.as_dict() == reference.metrics.as_dict(), name
        assert outcome.totals[name] == totals[name], name
    reference_hists = summarise_spans(spans)
    folded_hists = summarise_spans(outcome.spans)
    assert set(folded_hists) == set(reference_hists)
    for structure, per_op in reference_hists.items():
        assert set(folded_hists[structure]) == set(per_op)
        for op, hist in per_op.items():
            assert folded_hists[structure][op].as_dict() == hist.as_dict(), (structure, op)


# -- determinism: worker process == serial loop ----------------------------


@pytest.fixture(scope="module")
def pool():
    """One spawn pool, as ``python -m repro.bench --processes 2`` makes it."""
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as executor:
        yield executor


@pytest.fixture(scope="module")
def pam_worker_outcome(pool):
    """One PAM session run in a worker, shared by the determinism assertions."""
    return pool.submit(run_file, "pam", "uniform", scale=PAM_SCALE).result()


class TestParallelMatchesSerial:
    def test_pam_grid_cell(self, pam_worker_outcome):
        results, totals, spans = serial_pam_reference("uniform", PAM_SCALE)
        assert_outcome_matches(results, totals, spans, pam_worker_outcome)

    def test_pam_tables_identical(self, pam_worker_outcome):
        """The paper-style normalised table derives identically."""
        results, _, _ = serial_pam_reference("uniform", PAM_SCALE)
        pooled = pam_worker_outcome.results
        assert normalise({n: r.query_costs for n, r in results.items()}, "GRID") == (
            normalise({n: r.query_costs for n, r in pooled.items()}, "GRID")
        )

    def test_pam_timers_cover_all_structures(self, pam_worker_outcome):
        expected = {"HB", "BANG", "BANG*", "GRID", "BUDDY", "BUDDY+"}
        assert {key.split("/")[0] for key in pam_worker_outcome.timers} == expected

    def test_sam_grid_cell(self, pool):
        results, totals, spans = serial_sam_reference("uniform_small", SAM_SCALE)
        outcome = pool.submit(run_file, "sam", "uniform_small", scale=SAM_SCALE).result()
        assert_outcome_matches(results, totals, spans, outcome)

    def test_inline_data_experiment(self, pool):
        """Inline data and a structure name reach a worker; its costs are
        those of the factory run here."""
        points = generate_point_file("cluster", 300)
        serial = run_experiment("pam", {"GRID": standard_pam_factories()["GRID"]}, points)
        outcome = pool.submit(run_experiment, "pam", ["GRID"], points).result()
        assert outcome.results["GRID"].query_costs == serial.results["GRID"].query_costs

    def test_factories_and_pooled_names_trace_alike(self, pool):
        """Factories run here and registered names run in a worker, each
        cell under its own tracer: the folded spans and the report agree
        exactly."""
        points = generate_point_file("cluster", 250)
        inline = run_experiment("pam", standard_pam_factories(), points)
        pooled = pool.submit(run_experiment, "pam", list(inline.results), points).result()
        assert_outcome_matches(inline.results, inline.totals, inline.spans, pooled)
        assert pooled.to_report().access_totals() == inline.to_report().access_totals()
