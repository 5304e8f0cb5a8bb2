"""Struct-of-arrays container invariants (:mod:`repro.storage.soa`).

The regression these tests pin: columnar views are invalidated *per
container*, so a page holding both a directory-bounds container and a
record container keeps its bounds arrays when only the records change.
Before the struct-of-arrays store, any write rebuilt every array of the
page; the build counters here fail if that coupling ever comes back.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.rect import Rect
from repro.storage.soa import (
    SoAList,
    _flatten_boxes,
    _restore_boxes,
    fused_anti_boxes,
    fused_cover_boxes,
    soa_field,
)


def _counting_builder(counter, key):
    def build(lst):
        counter[key] = counter.get(key, 0) + 1
        return np.arange(len(lst), dtype=float)

    return build


class TestSoAListViews:
    def test_views_cache_until_mutation(self):
        calls = {}
        lst = SoAList([1, 2, 3])
        a = lst.view("a", _counting_builder(calls, "a"))
        assert lst.view("a", _counting_builder(calls, "a")) is a
        assert calls == {"a": 1}
        lst.append(4)
        lst.view("a", _counting_builder(calls, "a"))
        assert calls == {"a": 2}

    def test_touch_drops_only_the_named_view(self):
        calls = {}
        lst = SoAList([1, 2, 3])
        lst.view("a", _counting_builder(calls, "a"))
        lst.view("b", _counting_builder(calls, "b"))
        lst.touch("b")
        lst.view("a", _counting_builder(calls, "a"))
        lst.view("b", _counting_builder(calls, "b"))
        assert calls == {"a": 1, "b": 2}
        lst.touch()  # no tag: drop everything
        lst.view("a", _counting_builder(calls, "a"))
        assert calls["a"] == 2

    def test_length_drift_guard_rebuilds(self):
        """A missed length-changing mutation degrades to a rebuild."""
        calls = {}
        lst = SoAList([1, 2, 3])
        lst.view("a", _counting_builder(calls, "a"))
        list.append(lst, 4)  # bypass the SoAList mutator on purpose
        arr = lst.view("a", _counting_builder(calls, "a"))
        assert calls == {"a": 2}
        assert arr.shape == (4,)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda l: l.append(9),
            lambda l: l.extend([9]),
            lambda l: l.insert(0, 9),
            lambda l: l.remove(1),
            lambda l: l.pop(),
            lambda l: l.sort(),
            lambda l: l.reverse(),
            lambda l: l.__setitem__(0, 9),
            lambda l: l.__delitem__(0),
            lambda l: l.__iadd__([9]),
            lambda l: l.__imul__(2),
            lambda l: l.clear(),
        ],
    )
    def test_every_mutator_invalidates(self, mutate):
        lst = SoAList([3, 1, 2])
        lst.view("a", lambda l: np.arange(len(l)))
        assert lst.view_builds == 1
        mutate(lst)
        assert lst.view_builds == 0

    def test_pickle_sheds_views(self):
        lst = SoAList([1, 2, 3])
        lst.view("a", lambda l: np.arange(len(l)))
        clone = pickle.loads(pickle.dumps(lst))
        assert type(clone) is SoAList
        assert list(clone) == [1, 2, 3]
        assert clone.view_builds == 0


class _Page:
    __slots__ = ("_soa_entries", "_soa_records")

    entries = soa_field()
    records = soa_field()


class TestPerArrayInvalidation:
    def test_bounds_views_survive_record_writes(self):
        """The satellite regression: rebuild counts stay pinned.

        Warming a directory-bounds view and a record view, then writing
        only the record container, must rebuild exactly the record view
        — one build each before the write, one extra record build after.
        """
        calls = {}
        page = _Page()
        page.entries = [((0.0, 0.0), (1.0, 1.0))]
        page.records = [((0.5, 0.5), 0)]
        page.entries.view("bounds", _counting_builder(calls, "bounds"))
        page.records.view("pts", _counting_builder(calls, "pts"))
        assert calls == {"bounds": 1, "pts": 1}

        page.records.append(((0.25, 0.75), 1))
        page.records.view("pts", _counting_builder(calls, "pts"))
        page.entries.view("bounds", _counting_builder(calls, "bounds"))
        assert calls == {"bounds": 1, "pts": 2}

        # Rebinding the records list wholesale is also a record-only event.
        page.records = [((0.1, 0.1), 2)]
        page.records.view("pts", _counting_builder(calls, "pts"))
        page.entries.view("bounds", _counting_builder(calls, "bounds"))
        assert calls == {"bounds": 1, "pts": 3}

    def test_soa_field_wraps_assignments(self):
        page = _Page()
        page.records = [1, 2]
        assert type(page.records) is SoAList
        page.records = page.records[:1]  # slicing returns a plain list
        assert type(page.records) is SoAList
        assert list(page.records) == [1]


# -- the flat Rect reduce ------------------------------------------------------
#
# A container of Rect rows crosses pickle as ``(dims, flat)``; every other
# row shape keeps the list form.  What the durable store's CRC checks rely
# on: the image is a function of the rows alone and ``dumps(loads(b)) == b``.

_PROTOCOL = 4  # what repro.storage.disk writes

#: Coordinates as access methods produce them: floats (``-0.0`` included)
#: and the occasional ``int`` from a hand-written box.
_coord = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.integers(-1000, 1000),
    st.sampled_from([0.0, -0.0, 0, 1, 1.0]),
)


@st.composite
def _rect(draw, dims):
    if draw(st.integers(0, 4)) == 0:  # a record's degenerate MBR: lo is hi
        return Rect.from_point(tuple(draw(_coord) for _ in range(dims)))
    sides = [sorted((draw(_coord), draw(_coord))) for _ in range(dims)]
    return Rect(tuple(s[0] for s in sides), tuple(s[1] for s in sides))


@st.composite
def _rect_rows(draw, min_size=0):
    dims = draw(st.integers(1, 4))
    return draw(st.lists(_rect(dims), min_size=min_size, max_size=12))


def _same_rows(a, b) -> bool:
    """Equal rows with every coordinate the type (and sign of zero) it was."""

    def image(rows):
        return [
            [(type(c), repr(c)) for c in row.lo + row.hi] if type(row) is Rect else row
            for row in rows
        ]

    return list(a) == list(b) and image(a) == image(b)


def _old_cover(rows) -> np.ndarray:
    """The pre-flat builder, kept as the byte-equality reference."""
    lo = np.array([r.lo for r in rows], dtype=float)
    hi = np.array([r.hi for r in rows], dtype=float)
    return np.concatenate([lo, -hi], axis=1)


def _old_anti(rows) -> np.ndarray:
    lo = np.array([r.lo for r in rows], dtype=float)
    hi = np.array([r.hi for r in rows], dtype=float)
    return np.concatenate([-lo, hi], axis=1)


class TestFlatRectReduce:
    @given(_rect_rows())
    def test_round_trip_is_exact_and_stable(self, rows):
        lst = SoAList(rows)
        blob = pickle.dumps(lst, _PROTOCOL)
        clone = pickle.loads(blob)
        assert type(clone) is SoAList
        assert _same_rows(clone, rows)
        assert clone.view_builds == 0
        assert pickle.dumps(clone, _PROTOCOL) == blob
        # Rect rows take the flat form; only the empty container cannot.
        assert (lst.__reduce__()[0] is _restore_boxes) == bool(rows)

    @given(_rect_rows(min_size=1))
    def test_views_of_a_restored_container_are_byte_equal(self, rows):
        clone = pickle.loads(pickle.dumps(SoAList(rows), _PROTOCOL))
        assert clone._flat is not None
        for build, old in ((fused_cover_boxes, _old_cover), (fused_anti_boxes, _old_anti)):
            want = old(rows)
            for source in (clone, SoAList(rows), list(rows)):
                got = build(source)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    @given(_rect_rows(min_size=1), st.data())
    def test_other_row_shapes_keep_the_list_form(self, rows, data):
        odd = data.draw(
            st.sampled_from(
                [
                    ((0.5, 0.5), 7),  # a (point, rid) record
                    (rows[0], 7),  # a (rect, rid) pair
                    Rect.from_point((0.0,) * (rows[0].dims + 1)),  # another dimensionality
                    None,
                ]
            )
        )
        mixed = list(rows)
        mixed.insert(data.draw(st.integers(0, len(rows))), odd)
        for shape in (mixed, [((0.1, 0.2), 1), ((0.3, 0.4), 2)]):
            lst = SoAList(shape)
            assert _flatten_boxes(lst) is None
            assert lst.__reduce__() == (SoAList, (shape,))
            blob = pickle.dumps(lst, _PROTOCOL)
            clone = pickle.loads(blob)
            assert type(clone) is SoAList and _same_rows(clone, shape)
            assert clone._flat is None
            assert pickle.dumps(clone, _PROTOCOL) == blob

    def test_reduce_reads_the_rows_never_the_kept_flat(self):
        """The silent-mutation net: a row swapped behind the mutators'
        back must show in the next image, kept flat or not."""
        rows = [Rect((0.0, 0.0), (1.0, 1.0)), Rect((0.2, 0.2), (0.4, 0.4))]
        clone = pickle.loads(pickle.dumps(SoAList(rows), _PROTOCOL))
        before = pickle.dumps(clone, _PROTOCOL)
        list.__setitem__(clone, 1, Rect((0.2, 0.2), (0.5, 0.5)))
        assert clone._flat is not None  # the bypass left it stale
        assert pickle.dumps(clone, _PROTOCOL) != before
        # ... and a bypass that changes the row count rebuilds the view.
        list.append(clone, rows[0])
        assert fused_cover_boxes(clone).tobytes() == _old_cover(list(clone)).tobytes()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda l: l.append(Rect.unit(2)),
            lambda l: l.pop(),
            lambda l: l.__setitem__(0, Rect.unit(2)),
            lambda l: l.sort(key=lambda r: r.hi),
            lambda l: l.touch(),
            lambda l: l.touch("boxes:cover"),
        ],
    )
    def test_mutators_drop_the_flat_with_the_views(self, mutate):
        rows = [Rect((0.0, 0.0), (1.0, 1.0)), Rect((0.2, 0.2), (0.4, 0.4))]
        clone = pickle.loads(pickle.dumps(SoAList(rows), _PROTOCOL))
        clone.view("boxes:cover", fused_cover_boxes)
        assert clone.view_builds == 1  # the flat is not a view
        mutate(clone)
        assert clone._flat is None
        assert fused_cover_boxes(clone).tobytes() == _old_cover(list(clone)).tobytes()

    @pytest.mark.parametrize(
        "dims, flat",
        [
            (2, (0.0, 0.0, 1.0, 1.0, 0.5, 0.9, 0.6, 0.8)),  # second row: lo[1] > hi[1]
            (1, (1, 0)),
            (2, (0.0, 0.0, 1.0)),  # not a whole number of rows
            (0, ()),
        ],
    )
    def test_a_bad_flat_is_refused_like_a_bad_rect(self, dims, flat):
        with pytest.raises(ValueError):
            _restore_boxes(dims, flat)

    def test_pre_flat_pickles_still_load(self):
        """Build-cache entries and snapshots written before the flat form
        used the list constructor for Rect rows too."""
        rows = [Rect((0.0, 0.0), (1.0, 1.0)), Rect.from_point((0.5, 0.5))]
        blob = pickle.dumps((SoAList, (rows,)), _PROTOCOL)
        cls, args = pickle.loads(blob)
        old = cls(*args)
        assert type(old) is SoAList and list(old) == rows and old._flat is None
        assert fused_cover_boxes(old).tobytes() == _old_cover(rows).tobytes()
