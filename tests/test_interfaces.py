"""Tests for the public access-method interfaces and their bookkeeping."""

import importlib
import pkgutil

import pytest

import repro
from repro.geometry.rect import Rect
from repro.pam.buddytree import BuddyTree
from repro.sam.rtree import RTree
from repro.storage.pagestore import PageStore
from repro.verify.fuzz import STRUCTURES


class TestPointAccessMethodContract:
    def test_rejects_wrong_dimensionality(self, store):
        pam = BuddyTree(store, 2)
        with pytest.raises(ValueError, match="dims"):
            pam.insert((0.5, 0.5, 0.5), 1)

    def test_rejects_out_of_cube(self, store):
        pam = BuddyTree(store, 2)
        with pytest.raises(ValueError, match="outside"):
            pam.insert((1.5, 0.5), 1)

    def test_len_counts_records(self, store):
        pam = BuddyTree(store, 2)
        assert len(pam) == 0
        pam.insert((0.1, 0.2), "a")
        pam.insert((0.3, 0.4), "b")
        assert len(pam) == 2

    def test_insert_cost_accumulates(self, store):
        # Until the first split the whole file is the pinned root page,
        # so inserts are free; afterwards each insert costs accesses.
        pam = BuddyTree(store, 2)
        pam.insert((0.1, 0.2), "a")
        assert pam.metrics().insert_cost == 0.0
        for i in range(200):
            pam.insert((i / 211.0, (i * 7 % 211) / 211.0), 100 + i)
        assert pam.metrics().insert_cost > 0

    def test_partial_match_is_degenerate_range(self, store):
        pam = BuddyTree(store, 2)
        pam.insert((0.5, 0.1), 1)
        pam.insert((0.5, 0.9), 2)
        pam.insert((0.6, 0.1), 3)
        hits = pam.partial_match({0: 0.5})
        assert sorted(rid for _, rid in hits) == [1, 2]
        hits = pam.partial_match({1: 0.1})
        assert sorted(rid for _, rid in hits) == [1, 3]

    @pytest.mark.parametrize("axis", [-1, 2, 7])
    def test_partial_match_rejects_axis_outside_dims(self, store, axis):
        """``{-1: v}`` used to wrap to the last axis and ``{dims: v}`` to
        raise a bare IndexError; both are a ValueError naming the axis,
        raised before the operation starts so nothing is charged."""
        pam = BuddyTree(store, 2)
        for i in range(200):
            pam.insert((i / 211.0, (i * 7 % 211) / 211.0), i)
        pam.partial_match({1: 0.5})

        class CountBegins:
            begins = 0

            def on_operation_begin(self, store):
                self.begins += 1

            def on_access(self, *args):
                pass

        store.observer = observer = CountBegins()
        before = store.stats.total
        with pytest.raises(ValueError, match=f"axis {axis} "):
            pam.partial_match({0: 0.5, axis: 0.5})
        assert observer.begins == 0
        assert store.stats.total == before
        line = Rect((0.0, 0.5), (1.0, 0.5))
        assert pam.partial_match({1: 0.5}) == pam.range_query(line)

    def test_metrics_fields(self, store):
        pam = BuddyTree(store, 2)
        for i in range(200):
            pam.insert((i / 211.0, (i * 7 % 211) / 211.0), i)
        m = pam.metrics()
        assert m.records == 200
        assert 0 < m.storage_utilization <= 100.0
        assert m.data_pages > 0
        assert m.insert_cost > 0


class TestSpatialAccessMethodContract:
    def test_rejects_out_of_cube_rect(self, store):
        sam = RTree(store, 2)
        with pytest.raises(ValueError, match="outside"):
            sam.insert(Rect((0.5, 0.5), (1.5, 1.5)), 1)

    def test_rejects_wrong_dims(self, store):
        sam = RTree(store, 2)
        with pytest.raises(ValueError, match="dims"):
            sam.insert(Rect((0.1,), (0.2,)), 1)

    def test_queries_on_empty_index(self, store):
        sam = RTree(store, 2)
        assert sam.point_query((0.5, 0.5)) == []
        assert sam.intersection(Rect.unit(2)) == []
        assert sam.containment(Rect.unit(2)) == []
        assert sam.enclosure(Rect((0.4, 0.4), (0.6, 0.6))) == []


# -- insert validation, every structure --------------------------------------

NAN, INF = float("nan"), float("inf")
#: Coordinates the unit cube refuses: NaN, ±inf, below 0, above 1.
BAD = [NAN, INF, -INF, -1e-12, -0.5, 1.0 + 1e-12, 2.0]


def _refused(am, key, message):
    """``insert(key)`` raises ``ValueError(message)`` and changes nothing."""
    before = am.store.stats.as_dict()
    with pytest.raises(ValueError) as caught:
        am.insert(key, 0)
    assert str(caught.value) == message
    assert len(am) == 0
    assert am.store.stats.as_dict() == before


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_insert_refuses_what_lies_outside_the_unit_cube(name):
    """Every public insert refuses a bad coordinate in any position and a
    wrong dimensionality, before its operation starts, with one message
    per kind of mistake."""
    spec = STRUCTURES[name]
    am = spec["factory"](PageStore())
    if spec["kind"] == "pam":
        for bad in BAD:
            for point in ((bad, 0.5), (0.5, bad)):
                _refused(am, point, f"point {point} outside the unit cube")
        _refused(am, (0.5,), "point has 1 dims, index has 2")
        _refused(am, (0.5, 0.5, 0.5), "point has 3 dims, index has 2")
        am.insert((0.0, 1.0), 1)
        am.insert((-0.0, 0.5), 2)
    else:
        for bad in BAD:
            for lo, hi in (
                ((bad, 0.2), (0.6, 0.6)),
                ((0.2, bad), (0.6, 0.6)),
                ((0.2, 0.2), (bad, 0.6)),
                ((0.2, 0.2), (0.6, bad)),
            ):
                if any(l > h for l, h in zip(lo, hi)):
                    continue  # Rect itself refuses an inverted interval
                rect = Rect(lo, hi)
                _refused(am, rect, f"{rect} outside the unit cube")
        _refused(am, Rect((0.1,), (0.2,)), "rect has 1 dims, index has 2")
        _refused(
            am, Rect((0.1,) * 3, (0.2,) * 3), "rect has 3 dims, index has 2"
        )
        am.insert(Rect((0.0, 0.0), (1.0, 1.0)), 1)
        am.insert(Rect((-0.0, 0.5), (0.5, 0.5)), 2)
    assert len(am) == 2


MODULES = ["repro", *(m.name for m in pkgutil.walk_packages(repro.__path__, "repro."))]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    """``__all__`` is a promise."""
    module = importlib.import_module(module_name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
