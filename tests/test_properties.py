"""Hypothesis property tests: every structure equals the oracle.

The property is the fundamental contract of an access method: for any
set of distinct points (or rectangles) and any query, the structure
returns exactly what a linear scan returns.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.testbed import standard_pam_factories, standard_sam_factories
from repro.geometry.rect import Rect
from repro.storage.pagestore import PageStore
from repro.verify.fuzz import STRUCTURES, run_ops

coordinate = st.floats(0.0, 1.0, exclude_max=True, allow_nan=False)
point_sets = st.lists(
    st.tuples(coordinate, coordinate), min_size=1, max_size=120, unique=True
)


@st.composite
def query_rect(draw):
    a, b = draw(coordinate), draw(coordinate)
    c, d = draw(coordinate), draw(coordinate)
    return Rect((min(a, b), min(c, d)), (max(a, b), max(c, d)))


@st.composite
def rect_sets(draw):
    n = draw(st.integers(1, 60))
    rects = []
    seen = set()
    for _ in range(n):
        r = draw(query_rect())
        if r not in seen:
            seen.add(r)
            rects.append(r)
    return rects


PAM_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestPamProperties:
    @PAM_SETTINGS
    @given(points=point_sets, query=query_rect())
    def test_all_pams_match_linear_scan(self, points, query):
        expected = sorted(
            (p, i) for i, p in enumerate(points) if query.contains_point(p)
        )
        for name, factory in standard_pam_factories().items():
            pam = factory(PageStore(), dims=2)
            for i, p in enumerate(points):
                pam.insert(p, i)
            assert sorted(pam.range_query(query)) == expected, name

    @PAM_SETTINGS
    @given(points=point_sets)
    def test_exact_match_finds_every_point(self, points):
        for name, factory in standard_pam_factories().items():
            pam = factory(PageStore(), dims=2)
            for i, p in enumerate(points):
                pam.insert(p, i)
            for i, p in enumerate(points[:10]):
                assert pam.exact_match(p) == [i], name

    @PAM_SETTINGS
    @given(points=point_sets)
    def test_metrics_invariants(self, points):
        for name, factory in standard_pam_factories().items():
            pam = factory(PageStore(), dims=2)
            for i, p in enumerate(points):
                pam.insert(p, i)
            m = pam.metrics()
            assert m.records == len(points), name
            assert 0.0 < m.storage_utilization <= 100.0, name
            assert m.data_pages >= 1, name
            assert m.height >= 0, name


class TestSamProperties:
    @PAM_SETTINGS
    @given(rects=rect_sets(), query=query_rect())
    def test_all_sams_match_linear_scan(self, rects, query):
        intersect = sorted(i for i, r in enumerate(rects) if r.intersects(query))
        contain = sorted(i for i, r in enumerate(rects) if query.contains_rect(r))
        enclose = sorted(i for i, r in enumerate(rects) if r.contains_rect(query))
        for name, factory in standard_sam_factories().items():
            sam = factory(PageStore(), dims=2)
            for i, r in enumerate(rects):
                sam.insert(r, i)
            assert sorted(sam.intersection(query)) == intersect, name
            assert sorted(sam.containment(query)) == contain, name
            assert sorted(sam.enclosure(query)) == enclose, name

    @PAM_SETTINGS
    @given(rects=rect_sets(), x=coordinate, y=coordinate)
    def test_all_sams_point_query(self, rects, x, y):
        expected = sorted(
            i for i, r in enumerate(rects) if r.contains_point((x, y))
        )
        for name, factory in standard_sam_factories().items():
            sam = factory(PageStore(), dims=2)
            for i, r in enumerate(rects):
                sam.insert(r, i)
            assert sorted(sam.point_query((x, y))) == expected, name


class TestFullMatrixProperties:
    """Every access method in the fuzz matrix obeys the oracle contract
    on the query types the older tests left uncovered: partial match for
    all PAMs, containment and enclosure for all SAMs."""

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(points=point_sets, axis=st.integers(0, 1), pick=st.integers(0, 10**6))
    def test_partial_match_on_every_pam(self, points, axis, pick):
        from repro.verify.fuzz import STRUCTURES

        value = points[pick % len(points)][axis]
        probe = 0.123456789  # an almost-certain miss, still in the cube
        expected = sorted(
            (p, i) for i, p in enumerate(points) if p[axis] == value
        )
        probe_expected = sorted(
            (p, i) for i, p in enumerate(points) if p[axis] == probe
        )
        for name, spec in STRUCTURES.items():
            if spec["kind"] != "pam":
                continue
            pam = spec["factory"](PageStore())
            for i, p in enumerate(points):
                pam.insert(p, i)
            assert sorted(pam.partial_match({axis: value})) == expected, name
            assert sorted(pam.partial_match({axis: probe})) == probe_expected, name

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rects=rect_sets(), query=query_rect())
    def test_containment_and_enclosure_on_every_sam(self, rects, query):
        from repro.verify.fuzz import STRUCTURES

        contain = sorted(i for i, r in enumerate(rects) if query.contains_rect(r))
        enclose = sorted(i for i, r in enumerate(rects) if r.contains_rect(query))
        for name, spec in STRUCTURES.items():
            if spec["kind"] != "sam":
                continue
            sam = spec["factory"](PageStore())
            for i, r in enumerate(rects):
                sam.insert(r, i)
            assert sorted(sam.containment(query)) == contain, name
            assert sorted(sam.enclosure(query)) == enclose, name


class TestDeletionProperties:
    @PAM_SETTINGS
    @given(points=point_sets, keep=st.integers(0, 50))
    def test_buddy_delete_then_query(self, points, keep):
        from repro.pam.buddytree import BuddyTree

        tree = BuddyTree(PageStore(), 2)
        for i, p in enumerate(points):
            tree.insert(p, i)
        removed = points[keep:]
        for offset, p in enumerate(removed):
            assert tree.delete(p, keep + offset)
        expected = sorted((p, i) for i, p in enumerate(points[:keep]))
        assert sorted(tree.range_query(Rect.unit(2))) == expected


class TestExtendedStructureProperties:
    """The post-paper structures obey the same oracle contract."""

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(points=point_sets, query=query_rect())
    def test_extended_pams_match_linear_scan(self, points, query):
        from repro import (
            KdBTree,
            MultilevelGridFile,
            QuantileHashing,
            TwinGridFile,
        )
        from repro.pam.bang import BangFile
        from repro.pam.hbtree import HBTree

        factories = {
            "KDB": lambda s: KdBTree(s, 2),
            "MLGF": lambda s: MultilevelGridFile(s, 2),
            "TWIN": lambda s: TwinGridFile(s, 2),
            "QUANTILE": lambda s: QuantileHashing(s, 2),
            "BANG-MBR": lambda s: BangFile(s, 2, minimal_regions=True),
            "HB-MBR": lambda s: HBTree(s, 2, minimal_regions=True),
        }
        expected = sorted(
            (p, i) for i, p in enumerate(points) if query.contains_point(p)
        )
        for name, factory in factories.items():
            pam = factory(PageStore())
            for i, p in enumerate(points):
                pam.insert(p, i)
            assert sorted(pam.range_query(query)) == expected, name

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rects=rect_sets(), query=query_rect())
    def test_rplus_tree_matches_linear_scan(self, rects, query):
        from repro import RPlusTree

        sam = RPlusTree(PageStore(), 2)
        for i, r in enumerate(rects):
            sam.insert(r, i)
        assert sorted(sam.intersection(query)) == sorted(
            i for i, r in enumerate(rects) if r.intersects(query)
        )
        assert sorted(sam.containment(query)) == sorted(
            i for i, r in enumerate(rects) if query.contains_rect(r)
        )
        assert sorted(sam.enclosure(query)) == sorted(
            i for i, r in enumerate(rects) if r.contains_rect(query)
        )


# -- the cut-aligned matrix ---------------------------------------------------


def lattice_ops(kind: str, pack: bool, seed: int) -> list[list]:
    """An op stream (the fuzz harness's format) whose coordinates are half
    uniform, half on the ``k/16`` lattice: block cuts, grid boundaries and
    the domain's faces, 0.0 and 1.0 included.  Every query type runs between
    inserts, so each meets the structure at several sizes."""
    rng = random.Random(seed)

    def coord() -> float:
        return rng.randrange(17) / 16 if rng.random() < 0.5 else rng.random()

    def box() -> tuple[list, list]:
        xs, ys = sorted((coord(), coord())), sorted((coord(), coord()))
        return [xs[0], ys[0]], [xs[1], ys[1]]

    ops: list[list] = []
    items: list = []
    while len(items) < 160:
        item = [coord(), coord()] if kind == "pam" else box()
        if item in items:
            continue
        rid = len(items)
        items.append(item)
        ops.append(["insert", item, rid] if kind == "pam" else ["insert", *item, rid])
        if pack and rid % 60 == 59:
            ops.append(["pack"])
        if rid % 4:
            continue
        stored = rng.choice(items)
        if kind == "pam":
            axis = rng.randrange(2)
            ops += [
                ["range", *box()],
                ["exact", stored],
                ["exact", [coord(), coord()]],
                ["pm", [[axis, stored[axis]]]],
                ["pm", [[axis, rng.randrange(17) / 16]]],
            ]
        else:
            ops += [[op, *box()] for op in ("intersection", "containment", "enclosure")]
            ops += [["point", corner] for corner in ([coord(), coord()], *stored)]
    return ops


@pytest.mark.parametrize("name", list(STRUCTURES))
def test_cut_aligned_matrix_matches_the_oracle(name):
    """Records and queries on block cuts, all 22 structures of the fuzz
    matrix against the brute-force oracle.  The uniform pools cannot see
    this class of input: it found BANG's closed-vs-half-open prune, the
    stale regions of BANG-MBR and PLOP's empty slice range at 1.0."""
    spec = STRUCTURES[name]
    # A 128-byte directory page holds fewer of T-BUDDY's region-carrying
    # entries than one of its splits can post.  (HB-MBR ran at 256 for the
    # same reason until its index split learned to re-split both halves
    # and to prune a branch no parent routes to; it refuses pages under
    # four kd-leaves — 116 bytes — itself.)
    small = 256 if name == "T-BUDDY" else 128
    for page_size in (small, 512):
        ops = lattice_ops(spec["kind"], bool(spec["pack_every"]), seed=page_size)
        failure = run_ops(
            spec, ops, audit_every=20, store_factory=lambda: PageStore(page_size)
        )
        assert failure is None, (page_size, failure)
