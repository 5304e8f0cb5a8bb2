"""Struct-of-arrays container invariants (:mod:`repro.storage.soa`).

The regression these tests pin: columnar views are invalidated *per
container*, so a page holding both a directory-bounds container and a
record container keeps its bounds arrays when only the records change.
Before the struct-of-arrays store, any write rebuilt every array of the
page; the build counters here fail if that coupling ever comes back.
"""

import contextlib
import copy
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.rect import Rect
from repro.storage.soa import (
    _DECODES,
    SoAList,
    _columns,
    _Packed,
    _restore_columns,
    fused_anti_boxes,
    fused_cover_boxes,
    fused_points,
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


# -- row images ----------------------------------------------------------------
#
# A container of float Rect rows or of ``(point, rid)`` records crosses pickle
# as byte columns; every other row shape keeps the list form.  What the
# durable store's CRC checks rely on: the image is a function of the rows
# alone and ``dumps(loads(b)) == b``, before a decode and after it.

_PROTOCOL = 4  # what repro.storage.disk writes

#: Coordinates a column holds exactly: ``-0.0``, both infinities, subnormals.
_float = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, float("inf"), float("-inf"), 5e-324, -2.5e-320]),
)
#: ... and the occasional ``int`` from a hand-written box, which keeps the list form.
_coord = st.one_of(_float, st.integers(-1000, 1000), st.sampled_from([0, 1]))


@st.composite
def _rect(draw, dims, coord=_coord):
    if draw(st.integers(0, 4)) == 0:  # a record's degenerate MBR: lo is hi
        return Rect.from_point(tuple(draw(coord) for _ in range(dims)))
    sides = [sorted((draw(coord), draw(coord))) for _ in range(dims)]
    return Rect(tuple(s[0] for s in sides), tuple(s[1] for s in sides))


@st.composite
def _rect_rows(draw, min_size=0, coord=_coord):
    dims = draw(st.integers(1, 4))
    return draw(st.lists(_rect(dims, coord), min_size=min_size, max_size=12))


def _record(dims):
    point = st.tuples(*[_float] * dims)
    return st.tuples(point, st.integers(-(2**63), 2**63 - 1))


@st.composite
def _record_rows(draw, min_size=0):
    dims = draw(st.integers(1, 4))
    return draw(st.lists(_record(dims), min_size=min_size, max_size=12))


def _any_rows(min_size=0):
    return st.one_of(_rect_rows(min_size), _record_rows(min_size))


def _has_columns(rows) -> bool:
    """What the image rule says, spelled out row by row."""
    if not rows:
        return False
    if type(rows[0]) is Rect:
        dims = rows[0].dims
        return all(
            type(r) is Rect and r.dims == dims and all(type(c) is float for c in r.lo + r.hi)
            for r in rows
        )
    dims = len(rows[0][0])
    return dims > 0 and all(
        type(r) is tuple
        and len(r) == 2
        and type(r[0]) is tuple
        and len(r[0]) == dims
        and all(type(c) is float for c in r[0])
        and type(r[1]) is int
        and -(2**63) <= r[1] < 2**63
        for r in rows
    )


def _image_of(row):
    """A row as the types and reprs of everything in it (``-0.0`` keeps its sign)."""
    if type(row) is Rect:
        return [(type(c), repr(c)) for c in row.lo + row.hi]
    if type(row) is tuple:
        return (tuple, [_image_of(part) for part in row])
    if type(row) is list:
        return (list, [_image_of(part) for part in row])
    return type(row), repr(row)


def _same_rows(a, b) -> bool:
    """Equal rows with every element the type (and sign of zero) it was."""
    return list(a) == list(b) and [_image_of(r) for r in a] == [_image_of(r) for r in b]


def _old_cover(rows) -> np.ndarray:
    """The pre-column builders, kept as the byte-equality references."""
    lo = np.array([r.lo for r in rows], dtype=float)
    hi = np.array([r.hi for r in rows], dtype=float)
    return np.concatenate([lo, -hi], axis=1)


def _old_anti(rows) -> np.ndarray:
    lo = np.array([r.lo for r in rows], dtype=float)
    hi = np.array([r.hi for r in rows], dtype=float)
    return np.concatenate([-lo, hi], axis=1)


def _old_points(rows) -> np.ndarray:
    pts = np.array([rec[0] for rec in rows], dtype=float)
    return np.concatenate([-pts, pts], axis=1)


def _views(rows):
    """``(builder, reference)`` pairs for the views of this row shape."""
    if type(rows[0]) is Rect:
        return ((fused_cover_boxes, _old_cover), (fused_anti_boxes, _old_anti))
    return ((fused_points, _old_points),)


class TestFlatRectReduce:
    """Row images of both shapes (the class kept its name from the flat box tuple)."""

    @given(_any_rows())
    def test_round_trip_is_exact_and_stable(self, rows):
        lst = SoAList(rows)
        blob = pickle.dumps(lst, _PROTOCOL)
        clone = pickle.loads(blob)
        columns = _has_columns(rows)
        assert (lst.__reduce__()[0] is _restore_columns) == columns
        assert type(clone) is (_Packed if columns else SoAList)
        assert len(clone) == len(rows) and bool(clone) == bool(rows)
        assert pickle.dumps(clone, _PROTOCOL) == blob  # before the decode,
        assert type(clone) is (_Packed if columns else SoAList)  # which it is not
        assert _same_rows(clone, rows)  # iterates: the decode
        assert type(clone) is SoAList and clone.view_builds == 0
        assert pickle.dumps(clone, _PROTOCOL) == blob  # and after it

    @given(_any_rows(min_size=1))
    def test_views_of_a_restored_container_are_byte_equal(self, rows):
        clone = pickle.loads(pickle.dumps(SoAList(rows), _PROTOCOL))
        for build, old in _views(rows):
            want = old(rows)
            for source in (clone, SoAList(rows), list(rows)):
                got = build(source)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
        # Building views decodes nothing, and the decode keeps them: the
        # rows they describe did not change.
        build = _views(rows)[0][0]
        kept = clone.view("v", build)
        assert type(clone) is (_Packed if _has_columns(rows) else SoAList)
        assert clone.view_builds == 1
        assert clone[:1] == rows[:1] and type(clone) is SoAList
        assert clone.view("v", build) is kept

    @given(_rect_rows(min_size=1, coord=_float), _record_rows(min_size=1), st.data())
    def test_other_row_shapes_keep_the_list_form(self, boxes, records, data):
        dims = len(records[0][0])
        point = records[0][0]
        odd_box = data.draw(
            st.sampled_from(
                [
                    ((0.5, 0.5), 7),  # a (point, rid) record
                    (boxes[0], 7),  # a (rect, rid) pair
                    Rect.from_point((0.0,) * (boxes[0].dims + 1)),  # another dimensionality
                    Rect.from_point((1,) * boxes[0].dims),  # an int coordinate
                    None,
                ]
            )
        )
        odd_record = data.draw(
            st.sampled_from(
                [
                    ((1,) + point[1:], 7),  # an int coordinate
                    (point, True),  # a bool rid
                    (point, 2**63),  # rids past int64, both ways
                    (point, -(2**63) - 1),
                    (point, 7.0),  # a float rid
                    (list(point), 7),  # a list point
                    ((0.5,) * (dims + 1), 7),  # another dimensionality
                    [point, 7],  # a list row
                    (point, 7, 8),  # a longer row
                    Rect.from_point(point),
                ]
            )
        )
        shapes = []
        for rows, odd in ((boxes, odd_box), (records, odd_record)):
            mixed = list(rows)
            mixed.insert(data.draw(st.integers(0, len(rows))), odd)
            shapes.append(mixed)
        for shape in shapes + [[]]:
            lst = SoAList(shape)
            assert _columns(lst) is None
            assert lst.__reduce__() == (SoAList, (shape,))
            blob = pickle.dumps(lst, _PROTOCOL)
            clone = pickle.loads(blob)
            assert type(clone) is SoAList and _same_rows(clone, shape)
            assert pickle.dumps(clone, _PROTOCOL) == blob

    def test_reduce_reads_the_rows_never_the_kept_flat(self):
        """The silent-mutation net: a row swapped behind the mutators'
        back must show in the next image.  Before the decode there is no
        row to swap, which is why a packed image may come from the columns."""
        self._swap_behind_the_mutators(
            [Rect((0.0, 0.0), (1.0, 1.0)), Rect((0.2, 0.2), (0.4, 0.4))],
            Rect((0.2, 0.2), (0.5, 0.5)),
        )

    @pytest.mark.parametrize(
        "rows, swapped",
        [
            ([((0.0, 0.5), 1), ((0.25, 0.5), 2)], ((0.25, 0.5), 3)),
            # Equal to the row it replaces, but not the same: the image follows
            # the objects, not their equality.
            ([((0.0, 0.5), 1), ((0.0, 0.5), 2)], ((-0.0, 0.5), 2)),
        ],
    )
    def test_reduce_reads_the_records_never_the_kept_columns(self, rows, swapped):
        self._swap_behind_the_mutators(rows, swapped)

    @staticmethod
    def _swap_behind_the_mutators(rows, swapped):
        clone = pickle.loads(pickle.dumps(SoAList(rows), _PROTOCOL))
        before = pickle.dumps(clone, _PROTOCOL)
        with pytest.raises(IndexError):
            list.__setitem__(clone, 1, swapped)
        assert type(clone) is _Packed and pickle.dumps(clone, _PROTOCOL) == before
        assert clone[1] == rows[1]  # the decode
        assert pickle.dumps(clone, _PROTOCOL) == before
        list.__setitem__(clone, 1, swapped)
        after = pickle.dumps(clone, _PROTOCOL)
        assert after != before
        assert after == pickle.dumps(SoAList(list(clone)), _PROTOCOL)
        # ... and a bypass that changes the row count rebuilds the view.
        build = _views(rows)[0][0]
        clone.view("v", build)
        list.append(clone, rows[0])
        got = clone.view("v", build)
        assert got.tobytes() == _views(rows)[0][1](list(clone)).tobytes()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda l: l.append(l[0]),
            lambda l: l.extend([l[0]]),
            lambda l: l.insert(0, l[1]),
            lambda l: l.remove(l[1]),
            lambda l: l.pop(),
            lambda l: l.clear(),
            lambda l: l.sort(key=repr),
            lambda l: l.reverse(),
            lambda l: l.__setitem__(0, l[1]),
            lambda l: l.__delitem__(0),
            lambda l: l.__iadd__([l[0]]),
            lambda l: l.__imul__(2),
            lambda l: l.touch(),
        ],
    )
    def test_mutators_drop_the_flat_with_the_views(self, mutate):
        for rows in (
            [Rect((0.0, 0.0), (1.0, 1.0)), Rect((0.2, 0.2), (0.4, 0.4))],
            [((0.0, 0.5), 1), ((0.25, 0.75), 2)],
        ):
            model = SoAList(rows)
            clone = pickle.loads(pickle.dumps(model, _PROTOCOL))
            build = _views(rows)[0][0]
            clone.view("v", build)
            assert type(clone) is _Packed and clone.view_builds == 1
            mutate(clone)
            mutate(model)
            assert type(clone) is SoAList
            assert clone.view_builds == 0 and clone == model
            image = pickle.dumps(SoAList(list(model)), _PROTOCOL)
            assert pickle.dumps(clone, _PROTOCOL) == image
            if model:
                assert build(clone).tobytes() == _views(rows)[0][1](model).tobytes()

    @pytest.mark.parametrize(
        "dims, coords, rids",
        [
            (2, (0.0, 0.0, 1.0, 1.0, 0.5, 0.9, 0.6, 0.8), None),  # second box: lo[1] > hi[1]
            (1, (1.0, 0.0), None),
            (2, (0.0, 0.0, 1.0), None),  # not a whole number of boxes
            (2, (0.0, 0.0, 1.0), (1,)),  # not a whole number of points
            (2, (0.0, 0.0, 1.0, 1.0), (1,)),  # two points, one rid
            (0, (), None),
            (1, (), (1,)),
        ],
    )
    def test_a_bad_image_is_refused_at_load(self, dims, coords, rids):
        coords = struct.pack(f"{len(coords)}d", *coords)
        rids = None if rids is None else struct.pack(f"{len(rids)}q", *rids)
        with pytest.raises(ValueError):
            _restore_columns(dims, coords, rids)

    @given(_rect_rows(min_size=1))
    def test_pre_flat_pickles_still_load(self, rows):
        """The list form ``(SoAList, (rows,))``, what a pickled container
        field of a page image holds, loads as rows, exact."""
        cls, args = pickle.loads(pickle.dumps((SoAList, (rows,)), _PROTOCOL))
        clone = cls(*args)
        assert type(clone) is SoAList and _same_rows(clone, rows)
        assert fused_cover_boxes(clone).tobytes() == _old_cover(rows).tobytes()
        records = [((0.5, 0.25), 7), ((0.125, -0.0), 9)]
        cls, args = pickle.loads(pickle.dumps((SoAList, (records,)), _PROTOCOL))
        clone = cls(*args)
        assert type(clone) is SoAList and _same_rows(clone, records)
        assert fused_points(clone).tobytes() == _old_points(records).tobytes()


# -- the packed state ----------------------------------------------------------
#
# A restored container has no rows until something asks for one.  What must
# hold: nothing can read the empty item array behind the columns' back, every
# operation agrees with a plain list of the same rows, and a query that only
# traverses a page leaves it packed.

#: ``dir(list)`` names a packed container neither answers from the columns
#: nor decodes for, each with the reason it cannot observe the missing rows.
_ROWS_NOT_NEEDED = {
    # object plumbing: no item access
    "__class__", "__delattr__", "__dir__", "__doc__", "__getattribute__",
    "__init_subclass__", "__new__", "__setattr__", "__subclasshook__",
    "__class_getitem__",
    "__hash__",  # None on list and on every subclass here
    "__sizeof__",  # bytes of the object, not its content
    "__str__", "__format__",  # object's: both go through __repr__, which decodes
    "__reduce_ex__", "__getstate__",  # object's: defer to the overridden __reduce__
    "__init__",  # only run by type(...)(...); _restore_columns builds with __new__
}  # fmt: skip
_FROM_THE_COLUMNS = {"__len__", "__reduce__"}  # plus view(), which list has not

_BOXES = [Rect((0.0, 0.0), (1.0, 1.0)), Rect((0.2, 0.2), (0.4, 0.4))]
_RECORDS = [((0.0, 0.5), 1), ((0.25, 0.75), 2)]


def _restored(rows):
    return pickle.loads(pickle.dumps(SoAList(rows), _PROTOCOL))


class TestPackedBoxes:
    """The packed state of both row shapes (the class kept its name from boxes)."""

    def test_every_list_name_is_answered_from_the_flat_or_decodes(self):
        """A Python that grows a ``list`` method fails here instead of
        reading an empty list off a packed container — of either row shape."""
        own = vars(_Packed)
        assert len(set(_DECODES)) == len(_DECODES)
        assert set(_DECODES) | _FROM_THE_COLUMNS <= set(own)
        unaccounted = set(dir(list)) - set(_DECODES) - _FROM_THE_COLUMNS - _ROWS_NOT_NEEDED
        assert not unaccounted, sorted(unaccounted)
        assert {type(_restored(rows)) for rows in (_BOXES, _RECORDS)} == {_Packed}
        # ... and the other half of the bargain: no mutator or reader of
        # SoAList maintains the image; only the pickling reads it.
        for name, attr in vars(SoAList).items():
            code = getattr(attr, "__code__", None)
            if code is not None and name not in ("__init__", "__reduce__"):
                assert "_image" not in code.co_names, name

    def test_every_decoding_name_decodes(self):
        for rows in (_BOXES, _RECORDS):
            self._decodes(rows)

    @staticmethod
    def _decodes(rows):
        args = {
            "__getitem__": (0,), "__contains__": (rows[0],), "count": (rows[0],),
            "index": (rows[0],), "append": (rows[0],), "extend": (rows,),
            "insert": (0, rows[0]), "remove": (rows[0],), "__setitem__": (0, rows[0]),
            "__delitem__": (0,), "__iadd__": (rows,), "__imul__": (2,), "__mul__": (2,),
            "__rmul__": (2,), "__add__": (rows,), "__radd__": (rows,),
            **{op: (rows,) for op in ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__")},
        }  # fmt: skip
        for name in _DECODES:
            clone = _restored(rows)
            with contextlib.suppress(TypeError):  # Rect has no order: a bare sort() raises,
                getattr(clone, name)(*args.get(name, ()))  # after the decode
            assert type(clone) is SoAList and clone._image[0] is not None, name

    @given(_any_rows(min_size=1), st.data())
    def test_any_operation_sequence_agrees_with_a_plain_list(self, rows, data):
        if type(rows[0]) is Rect:
            element = _rect(rows[0].dims)
            by_key = lambda x: (x.hi, x.lo)  # noqa: E731
        else:
            element = _record(len(rows[0][0]))
            by_key = repr
        build = _views(rows)[0][0]
        model, sut = list(rows), _restored(rows)

        def both(fn):
            outcomes = []
            for c in (model, sut):
                try:
                    outcomes.append(("ok", fn(c)))
                except (IndexError, ValueError, TypeError) as exc:
                    outcomes.append(("raised", type(exc)))
            assert repr(outcomes[0]) == repr(outcomes[1]), fn

        for _ in range(data.draw(st.integers(1, 8))):
            r = data.draw(st.one_of(element, st.sampled_from(rows)))
            i = data.draw(st.integers(-3, 13))
            j = data.draw(st.integers(-3, 13))
            other = data.draw(st.lists(st.one_of(element, st.sampled_from(rows)), max_size=3))
            op = data.draw(
                st.sampled_from(
                    [
                        # readers
                        lambda c: (len(c), bool(c)),
                        lambda c: c[i],
                        lambda c: c[i:j],
                        lambda c: c[::-2],
                        lambda c: [x for x in c],
                        lambda c: list(reversed(c)),
                        lambda c: (r in c, c.count(r)),
                        lambda c: c.index(r),
                        lambda c: repr(c),
                        lambda c: (c == other, other == c, c != other, c == list(c)),
                        lambda c: c < other,
                        lambda c: (c + other, type(c + other) is list),
                        lambda c: (other + c, type(other + c) is list),
                        lambda c: (c * 2, 2 * c),
                        lambda c: c.copy(),
                        lambda c: sorted(c, key=by_key),
                        lambda c: list(zip(c, range(3))),
                        lambda c: np.array(c, dtype=object).tolist(),
                        lambda c: tuple(c),
                        lambda c: [*c],
                        lambda c: build(c).tobytes() if c else None,
                        # mutators
                        lambda c: c.append(r),
                        lambda c: c.extend(other),
                        lambda c: c.insert(i, r),
                        lambda c: c.remove(r),
                        lambda c: c.pop(),
                        lambda c: c.pop(i),
                        lambda c: c.clear(),
                        lambda c: c.sort(key=by_key),
                        lambda c: c.reverse(),
                        lambda c: c.__setitem__(i, r),
                        lambda c: c.__setitem__(slice(i, j), other),
                        lambda c: c.__delitem__(i),
                        lambda c: c.__iadd__(other) and None,
                        lambda c: c.__imul__(j % 3) and None,
                        "copy",
                    ]
                )
            )
            if op == "copy":  # a copy of column rows is packed again, whatever it copied
                model, sut = copy.copy(model), copy.copy(sut)
                assert type(sut) is (_Packed if _has_columns(model) else SoAList)
            else:
                both(op)
            # The state check must not decode: the length and the image, which
            # re-uses the bytes of the rows it still holds.  A list image also
            # records which rows share a tuple (a decoded box's lo is not its
            # hi), so there it is the rows that must come back.
            assert len(sut) == len(model)
            image = pickle.dumps(sut, _PROTOCOL)
            if _has_columns(model):
                assert image == pickle.dumps(SoAList(model), _PROTOCOL)
            else:
                assert _same_rows(pickle.loads(image), model)
        assert _same_rows(sut, model)

    def test_a_reopened_rtree_answers_its_query_files_without_decoding(self, tmp_path):
        from repro.core.comparison import query_files
        from repro.query.driver import run_query_file
        from repro.sam.rtree import RTree
        from repro.storage.disk import DiskPageStore, restore_method, snapshot_method
        from tests.conftest import make_rects

        rects = make_rects(600, seed=5)
        store = DiskPageStore(tmp_path / "store", 512, pool_pages=8, fsync=False)
        tree = RTree(store)
        for rid, rect in enumerate(rects):
            tree.insert(rect, rid)
        store.commit(meta=snapshot_method(tree))
        store.close()

        store = DiskPageStore(tmp_path / "store", 512, pool_pages=8, fsync=False)
        tree = restore_method(store, store.meta_blob)
        oracle = {
            "point": lambda q: [i for i, r in enumerate(rects) if r.contains_point(q)],
            "intersection": lambda q: [i for i, r in enumerate(rects) if r.intersects(q)],
            "containment": lambda q: [i for i, r in enumerate(rects) if q.contains_rect(r)],
            "enclosure": lambda q: [i for i, r in enumerate(rects) if r.contains_rect(q)],
        }
        for label, kind, queries, operation in query_files("sam", tree):
            for query, (_, hits) in zip(queries, run_query_file(tree, kind, queries, operation)):
                assert sorted(hits) == oracle[label](query), (label, query)
        pool = store.pool
        assert pool.misses > len(store.page_ids()) and pool.evictions
        # Every resident page came off disk and was only ever traversed.
        resident = [frame.obj for frame in pool.frames.values()]
        assert len(resident) >= 8
        assert {type(node.rects) for node in resident} == {_Packed}
        # An insert decodes the pages on its path, and only those.
        tree.insert(Rect((0.5, 0.5), (0.51, 0.51)), len(rects))
        assert len(rects) in tree.point_query((0.505, 0.505))
        kinds = {type(frame.obj.rects) for frame in pool.frames.values()}
        assert kinds == {_Packed, SoAList}
        store.close()
