"""Tests for the BANG file (nested block regions, backtracking search)."""

import contextlib
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.geometry import blocks
from repro.geometry.rect import Rect
from repro.pam.bang import BangFile
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore
from repro.verify.fuzz import STRUCTURES, run_ops
from repro.verify.oracle import PamOracle
from tests.conftest import (
    STANDARD_QUERIES,
    check_pam_against_oracle,
    make_clustered_points,
    make_points,
)
from tests.reference_query import reference, scalar_only

REPRODUCERS = Path(__file__).parent / "reproducers"


def build(points, **kwargs):
    bang = BangFile(PageStore(), 2, **kwargs)
    for i, p in enumerate(points):
        bang.insert(p, i)
    return bang


class TestCorrectness:
    def test_uniform(self):
        points = make_points(900)
        check_pam_against_oracle(build(points), points, STANDARD_QUERIES)

    def test_clusters(self):
        points = make_clustered_points(800, seed=1)
        check_pam_against_oracle(build(points), points, STANDARD_QUERIES)

    def test_diagonal(self):
        points = [(i / 700.0, i / 700.0) for i in range(700)]
        check_pam_against_oracle(build(points), points, STANDARD_QUERIES)

    def test_spanning_variant_same_answers(self):
        points = make_clustered_points(600, seed=2)
        plain = build(points)
        spanning = build(points, spanning=True)
        for rect in STANDARD_QUERIES:
            assert sorted(plain.range_query(rect)) == sorted(
                spanning.range_query(rect)
            )
        for p in points[::71]:
            assert plain.exact_match(p) == spanning.exact_match(p)

    def test_variable_length_variant_same_answers(self):
        points = make_points(600, seed=3)
        star = build(points, variable_length_entries=True)
        check_pam_against_oracle(star, points, STANDARD_QUERIES)


class TestNesting:
    def test_records_live_in_smallest_enclosing_block(self):
        bang = build(make_clustered_points(900, seed=4))
        store = bang.store
        for pid in store.page_ids():
            if store.kind(pid) is not PageKind.DATA:
                continue
            page = store._objects[pid]
            for point, _ in page.records:
                point_bits = bang._point_bits(point)
                best = max(
                    (b for b in bang._data_blocks if blocks.is_prefix(b, point_bits)),
                    key=len,
                )
                assert bang._data_blocks[best] == pid

    def test_data_blocks_are_distinct(self):
        bang = build(make_points(1200, seed=5))
        assert len(set(bang._data_blocks)) == len(bang._data_blocks)

    def test_nesting_occurs_on_clustered_data(self):
        """Clusters force proper nesting (a block inside another block)."""
        bang = build(make_clustered_points(1200, seed=6))
        blocks_list = sorted(bang._data_blocks, key=len)
        nested = any(
            blocks.is_prefix(a, b) and a != b
            for i, a in enumerate(blocks_list)
            for b in blocks_list[i + 1 :]
        )
        assert nested

    def test_directory_is_balanced(self):
        bang = build(make_points(1500, seed=7))

        def leaf_depths(pid, depth):
            node = bang.store._objects[pid]
            if node.is_leaf:
                return {depth}
            out = set()
            for e in node.entries:
                out |= leaf_depths(e.pid, depth + 1)
            return out

        assert len(leaf_depths(bang._root_pid, 1)) == 1


class TestNonSpanningPenalty:
    def test_exact_match_can_exceed_height(self):
        """Without the spanning property the probe may touch extra pages."""
        points = make_clustered_points(2000, seed=8)
        bang = build(points)
        worst = 0
        for p in points[::191]:
            bang.store.begin_operation()
            bang.store.begin_operation()
            before = bang.store.stats.total
            bang.exact_match(p)
            worst = max(worst, bang.store.stats.total - before)
        # Height + 1 would be a perfect single path (dir levels + data page,
        # root pinned); the multi-branch probe can exceed it.
        assert worst >= bang.directory_height + 1

    def test_spanning_charges_single_path(self):
        points = make_clustered_points(2000, seed=8)
        bang = build(points, spanning=True)
        for p in points[::397]:
            bang.store.begin_operation()
            bang.store.begin_operation()
            before = bang.store.stats.total
            bang.exact_match(p)
            cost = bang.store.stats.total - before
            assert cost <= bang.directory_height + 1

    def test_variable_length_entries_use_fewer_directory_pages(self):
        points = make_points(3000, seed=9)
        plain = build(points)
        star = build(points, variable_length_entries=True)
        assert (
            star.store.count_pages(PageKind.DIRECTORY)
            <= plain.store.count_pages(PageKind.DIRECTORY)
        )


class TestCapacities:
    def test_data_capacity_never_exceeded(self):
        bang = build(make_points(800, seed=10))
        for pid in bang.store.page_ids():
            if bang.store.kind(pid) is PageKind.DATA:
                assert len(bang.store._objects[pid].records) <= bang.record_capacity

    def test_directory_nodes_fit_their_page(self):
        bang = build(make_points(2000, seed=11))
        for pid in bang.store.page_ids():
            if bang.store.kind(pid) is PageKind.DIRECTORY:
                node = bang.store._objects[pid]
                assert bang._node_bytes(node) <= bang._dir_payload


class TestMinimalRegions:
    """The §9 extension: BUDDY's empty-space concept grafted onto BANG."""

    def test_correctness(self):
        points = make_clustered_points(900, seed=20)
        bang = build(points, minimal_regions=True)
        check_pam_against_oracle(bang, points, STANDARD_QUERIES)

    def test_correctness_diagonal(self):
        points = [(i / 600.0, i / 600.0) for i in range(600)]
        bang = build(points, minimal_regions=True)
        check_pam_against_oracle(bang, points, STANDARD_QUERIES)

    def test_combines_with_variable_length_entries(self):
        points = make_points(700, seed=21)
        bang = build(points, minimal_regions=True, variable_length_entries=True)
        check_pam_against_oracle(bang, points, STANDARD_QUERIES)

    def test_regions_bound_their_records(self):
        bang = build(make_clustered_points(800, seed=22), minimal_regions=True)

        def walk(pid):
            node = bang.store._objects[pid]
            if node.is_leaf:
                for entry in node.entries:
                    page = bang.store._objects[entry.pid]
                    for point, _ in page.records:
                        assert entry.mbr is not None
                        assert entry.mbr.contains_point(point)
            else:
                for entry in node.entries:
                    child = bang.store._objects[entry.pid]
                    for sub in child.entries:
                        if sub.mbr is not None:
                            assert entry.mbr is not None
                            assert entry.mbr.contains_rect(sub.mbr)
                    walk(entry.pid)

        walk(bang._root_pid)

    def test_empty_space_queries_prune_data_reads(self):
        points = make_clustered_points(900, seed=23)
        empty = Rect((0.001, 0.001), (0.004, 0.004))
        points = [p for p in points if not empty.contains_point(p)]
        plain = build(points)
        minimal = build(points, minimal_regions=True)

        def cost(bang):
            bang.store.begin_operation()
            bang.store.begin_operation()
            before = bang.store.stats.data_reads
            assert bang.range_query(empty) == []
            return bang.store.stats.data_reads - before

        assert cost(minimal) <= cost(plain)

    def test_entry_size_cost(self):
        plain = build(make_points(2000, seed=24))
        minimal = build(make_points(2000, seed=24), minimal_regions=True)
        from repro.storage.page import PageKind

        assert minimal.store.count_pages(PageKind.DIRECTORY) >= plain.store.count_pages(
            PageKind.DIRECTORY
        )


class TestKnownDefects:
    """Defects found in the wild, each pinned by its shrunk stream; all fixed."""

    @pytest.mark.parametrize("production", [True, False])
    def test_record_on_a_nested_blocks_upper_face_is_found(self, production):
        """Shrunk from a rare hypothesis failure of
        ``test_properties.py::TestSamProperties::test_all_sams_point_query``:
        blocks are half-open, so a record on a nested block's upper face
        belongs to the enclosing block, and a range query equal to the
        nested block's closed rectangle must still read that page (the
        closed coverage test called it "entirely covered")."""
        bang = BangFile(PageStore(128), 2)
        for rid in range(10):
            bang.insert((0.05 * rid + 0.01, 0.05 * rid + 0.02), rid)
        (inner,) = [bits for bits in bang._data_blocks if bits]
        nested = blocks.block_rect(inner, 2)
        edge = (nested.hi[0], (nested.lo[1] + nested.hi[1]) / 2)
        bang.insert(edge, 99)
        if not production:
            reference(bang)
        with contextlib.nullcontext() if production else scalar_only():
            assert bang.exact_match(edge) == [99]
            assert (edge, 99) in bang.range_query(nested)

    def test_minimal_regions_follow_an_entry_into_another_leaf(self):
        """``BANG-MBR-seed2.json`` (41 uniform inserts at 128-byte pages):
        a data split whose new entry landed in another leaf left that
        leaf's ancestors with stale regions, and the upward recompute
        stopped at the first unchanged level — six records unreachable
        and ``bang.region`` violated."""
        blob = json.loads((REPRODUCERS / "BANG-MBR-seed2.json").read_text())
        failure = run_ops(
            STRUCTURES[blob["structure"]],
            blob["ops"],
            audit_every=1,
            store_factory=lambda: PageStore(blob["page_size"]),
        )
        assert failure is None, failure


# -- the residual column against the scalar reference -------------------------

#: Small pages, so a hundred inserts give nested leaves and directory splits.
VARIANTS = {
    "BANG": dict(dims=2, page=128),
    "BANG*": dict(dims=2, page=128, variable_length_entries=True),
    "minimal": dict(dims=2, page=128, minimal_regions=True),
    "4-d": dict(dims=4, page=256),  # the shape the transformation technique builds
}


def twins(dims, page, **kwargs):
    """The same file on the production path and on the scalar reference."""
    return (
        BangFile(PageStore(page), dims, **kwargs),
        reference(BangFile(PageStore(page), dims, **kwargs)),
    )


def entry_cuts(bang):
    """Per axis, the sorted boundary coordinates of every data block."""
    cuts = [{0.0, 1.0} for _ in range(bang.dims)]
    for bits in bang._data_blocks:
        rect = blocks.block_rect(bits, bang.dims)
        for axis in range(bang.dims):
            cuts[axis].update((rect.lo[axis], rect.hi[axis]))
    return [sorted(axis) for axis in cuts]


def near(cuts, index, ulps):
    """Cut ``index`` moved ``ulps`` floats up or down, kept in ``[0, 1]``."""
    value = cuts[index % len(cuts)]
    for _ in range(abs(ulps)):
        value = math.nextafter(value, 2.0 if ulps > 0 else -1.0)
    return min(1.0, max(0.0, value))


def adversarial_query(cuts, spec):
    """One box from the pool: per axis ``(mode, i, j, ni, nj, free)``."""
    lo, hi = [], []
    for axis_cuts, (mode, i, j, ni, nj, free) in zip(cuts, spec):
        if mode == "full":
            a, b = 0.0, 1.0
        elif mode == "point":
            a = b = near(axis_cuts, i, ni)
        elif mode == "ulp":
            a = near(axis_cuts, i, ni)
            b = math.nextafter(a, 2.0)
            if b > 1.0:
                a, b = math.nextafter(a, -1.0), a
        elif mode == "cuts":
            a, b = sorted((near(axis_cuts, i, ni), near(axis_cuts, j, nj)))
        else:  # "mixed": one bound anywhere, one on a cut
            a, b = sorted((free, near(axis_cuts, j, nj)))
        lo.append(a)
        hi.append(b)
    return Rect(tuple(lo), tuple(hi))


def charged(method, rect):
    """``(cost, result)`` of one range query, as the query driver counts it."""
    before = method.store.stats.total
    result = method.range_query(rect)
    return method.store.stats.total - before, result


unit_float = st.floats(0.0, 1.0, allow_nan=False)
#: Uniform coordinates, a tight cluster (forces deep nesting) and a coarse
#: lattice (records and queries on block cuts).
coordinate = st.one_of(
    unit_float,
    st.floats(0.3, 0.3125, allow_nan=False),
    st.integers(0, 16).map(lambda k: k / 16),
)
axis_spec = st.tuples(
    st.sampled_from(["full", "point", "ulp", "cuts", "mixed"]),
    st.integers(0, 1000),
    st.integers(0, 1000),
    st.sampled_from([0, 0, 1, -1, 2, -2, 3, -3]),
    st.sampled_from([0, 0, 1, -1, 2, -2, 3, -3]),
    unit_float,
)


@st.composite
def interleaved_ops(draw):
    name = draw(st.sampled_from(sorted(VARIANTS)))
    dims = VARIANTS[name]["dims"]
    insert = st.tuples(st.just("insert"), st.tuples(*[coordinate] * dims))
    query = st.tuples(st.just("query"), st.tuples(*[axis_spec] * dims))
    # Queries run between inserts: BANG has no delete, so this is the
    # only way a view built for one entry list can meet the next one.
    ops = draw(st.lists(st.one_of(insert, insert, query), min_size=20, max_size=120))
    return name, ops


class TestResidualColumn:
    """The leaf filter on page columns equals the reference's per-entry
    half-open test (``tests/reference_query.py``) — same results, same
    charged cost, whatever the query touches — and both
    give the brute-force oracle's results, so column and reference cannot
    agree on a wrong verdict."""

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(interleaved_ops())
    def test_adversarial_queries_match_the_scalar_twin(self, case):
        name, ops = case
        vec, ref = twins(**VARIANTS[name])
        oracle = PamOracle(vec.dims)
        rid = 0
        for kind, arg in ops:
            if kind == "insert":
                vec.insert(arg, rid)
                ref.insert(arg, rid)
                oracle.insert(arg, rid)
                rid += 1
            else:
                rect = adversarial_query(entry_cuts(vec), arg)
                cost, result = charged(vec, rect)
                with scalar_only():
                    assert (cost, result) == charged(ref, rect), rect
                assert sorted(result, key=repr) == oracle.range_query(rect), rect
        assert vec.store.stats == ref.store.stats

    def test_residual_view_never_outlives_its_entry_list(self):
        """Across data-page splits (an entry appended to a leaf) and
        directory-page splits (a leaf's entry list rebound): whatever
        residual view a leaf carries equals a fresh build."""
        vec, ref = twins(dims=2, page=128)
        rng = random.Random(5)
        probe = Rect((0.25, 0.0), (0.25, 1.0))
        data_splits = dir_splits = 0
        for rid in range(160):
            # Materialise the view on every leaf the probe reaches.
            with scalar_only():
                expected = charged(ref, probe)
            assert charged(vec, probe) == expected
            blocks_before = len(vec._data_blocks)
            dirs_before = vec.store.count_pages(PageKind.DIRECTORY)
            point = (rng.gauss(0.25, 0.1) % 1.0, rng.random())
            vec.insert(point, rid)
            ref.insert(point, rid)
            data_splits += len(vec._data_blocks) > blocks_before
            dir_splits += vec.store.count_pages(PageKind.DIRECTORY) > dirs_before
            for pid in vec.store.page_ids():
                node = vec.store._objects[pid]
                if vec.store.kind(pid) is not PageKind.DIRECTORY or not node.is_leaf:
                    continue
                cached = (node.entries._views or {}).get("residual")
                if cached is not None:
                    nested, owner, rows = vec._build_residual(node.entries)
                    assert cached[0] == len(node.entries)
                    assert rows.shape[0] == len(owner)  # one row per piece
                    assert cached[1][:2] == (nested, owner)
                    assert np.array_equal(cached[1][2], rows)
        assert data_splits > 5 and dir_splits > 1
