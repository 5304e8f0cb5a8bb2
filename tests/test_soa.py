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

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.rect import Rect
from repro.storage.soa import (
    _DECODES,
    SoAList,
    _flatten_boxes,
    _PackedBoxes,
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
        # Rect rows take the flat form and come back packed; only the
        # empty container cannot.
        assert (lst.__reduce__()[0] is _restore_boxes) == bool(rows)
        assert type(clone) is (_PackedBoxes if rows else SoAList)
        assert len(clone) == len(rows) and bool(clone) == bool(rows)
        assert pickle.dumps(clone, _PROTOCOL) == blob  # before the decode,
        assert type(clone) is (_PackedBoxes if rows else SoAList)  # which it is not
        assert _same_rows(clone, rows)  # iterates: the decode
        assert type(clone) is SoAList and clone._flat is None
        assert clone.view_builds == 0
        assert pickle.dumps(clone, _PROTOCOL) == blob  # and after it

    @given(_rect_rows(min_size=1))
    def test_views_of_a_restored_container_are_byte_equal(self, rows):
        clone = pickle.loads(pickle.dumps(SoAList(rows), _PROTOCOL))
        for build, old in ((fused_cover_boxes, _old_cover), (fused_anti_boxes, _old_anti)):
            want = old(rows)
            for source in (clone, SoAList(rows), list(rows)):
                got = build(source)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
        # Building views decodes nothing, and the decode keeps them: the
        # rows they describe did not change.
        kept = clone.view("boxes:cover", fused_cover_boxes)
        assert type(clone) is _PackedBoxes and clone.view_builds == 1
        assert clone[0] == rows[0] and type(clone) is SoAList
        assert clone.view("boxes:cover", fused_cover_boxes) is kept

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
        back must show in the next image.  Before the decode there is no
        row to swap, which is why a packed image may come from the flat."""
        rows = [Rect((0.0, 0.0), (1.0, 1.0)), Rect((0.2, 0.2), (0.4, 0.4))]
        clone = pickle.loads(pickle.dumps(SoAList(rows), _PROTOCOL))
        before = pickle.dumps(clone, _PROTOCOL)
        with pytest.raises(IndexError):
            list.__setitem__(clone, 1, Rect((0.2, 0.2), (0.5, 0.5)))
        assert type(clone) is _PackedBoxes and pickle.dumps(clone, _PROTOCOL) == before
        assert clone[1] == rows[1]  # the decode
        list.__setitem__(clone, 1, Rect((0.2, 0.2), (0.5, 0.5)))
        assert pickle.dumps(clone, _PROTOCOL) != before
        # ... and a bypass that changes the row count rebuilds the view.
        clone.view("boxes:cover", fused_cover_boxes)
        list.append(clone, rows[0])
        got = clone.view("boxes:cover", fused_cover_boxes)
        assert got.tobytes() == _old_cover(list(clone)).tobytes()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda l: l.append(Rect.unit(2)),
            lambda l: l.extend([Rect.unit(2)]),
            lambda l: l.insert(0, Rect.unit(2)),
            lambda l: l.remove(Rect((0.2, 0.2), (0.4, 0.4))),
            lambda l: l.pop(),
            lambda l: l.clear(),
            lambda l: l.sort(key=lambda r: r.hi),
            lambda l: l.reverse(),
            lambda l: l.__setitem__(0, Rect.unit(2)),
            lambda l: l.__delitem__(0),
            lambda l: l.__iadd__([Rect.unit(2)]),
            lambda l: l.__imul__(2),
            lambda l: l.touch(),
        ],
    )
    def test_mutators_drop_the_flat_with_the_views(self, mutate):
        rows = [Rect((0.0, 0.0), (1.0, 1.0)), Rect((0.2, 0.2), (0.4, 0.4))]
        model = SoAList(rows)
        clone = pickle.loads(pickle.dumps(model, _PROTOCOL))
        clone.view("boxes:cover", fused_cover_boxes)
        assert type(clone) is _PackedBoxes and clone.view_builds == 1
        mutate(clone)
        mutate(model)
        assert type(clone) is SoAList and clone._flat is None
        assert clone.view_builds == 0 and clone == model
        if model:
            assert fused_cover_boxes(clone).tobytes() == _old_cover(model).tobytes()

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


# -- the packed state ----------------------------------------------------------
#
# A restored box container has no rows until something asks for one.  What
# must hold: nothing can read the empty item array behind the flat's back,
# every operation agrees with a plain list of the same rows, and a query
# that only traverses a page leaves it packed.

#: ``dir(list)`` names a packed container neither answers from the flat nor
#: decodes for, each with the reason it cannot observe the missing rows.
_ROWS_NOT_NEEDED = {
    # object plumbing: no item access
    "__class__", "__delattr__", "__dir__", "__doc__", "__getattribute__",
    "__init_subclass__", "__new__", "__setattr__", "__subclasshook__",
    "__class_getitem__",
    "__hash__",  # None on list and on every subclass here
    "__sizeof__",  # bytes of the object, not its content
    "__str__", "__format__",  # object's: both go through __repr__, which decodes
    "__reduce_ex__", "__getstate__",  # object's: defer to the overridden __reduce__
    "__init__",  # only run by type(...)(...); _restore_boxes builds with __new__
}  # fmt: skip
_FROM_THE_FLAT = {"__len__", "__reduce__"}  # plus view(), which list has not


def _restored(rows):
    return pickle.loads(pickle.dumps(SoAList(rows), _PROTOCOL))


class TestPackedBoxes:
    def test_every_list_name_is_answered_from_the_flat_or_decodes(self):
        """A Python that grows a ``list`` method fails here instead of
        reading an empty list off a packed container."""
        own = vars(_PackedBoxes)
        assert len(set(_DECODES)) == len(_DECODES)
        assert set(_DECODES) | _FROM_THE_FLAT <= set(own)
        unaccounted = set(dir(list)) - set(_DECODES) - _FROM_THE_FLAT - _ROWS_NOT_NEEDED
        assert not unaccounted, sorted(unaccounted)
        # ... and the other half of the bargain: with the flat meaning
        # only "not decoded yet", no SoAList method has it to maintain.
        for name, attr in vars(SoAList).items():
            code = getattr(attr, "__code__", None)
            if code is not None and name != "__init__":
                assert "_flat" not in code.co_names, name

    def test_every_decoding_name_decodes(self):
        rows = [Rect((0.0, 0.0), (1.0, 1.0)), Rect((0.2, 0.2), (0.4, 0.4))]
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
            assert type(clone) is SoAList and clone._flat is None, name

    @given(_rect_rows(min_size=1), st.data())
    def test_any_operation_sequence_agrees_with_a_plain_list(self, rows, data):
        dims = rows[0].dims
        model, sut = list(rows), _restored(rows)

        def both(fn):
            outcomes = []
            for c in (model, sut):
                try:
                    outcomes.append(("ok", fn(c)))
                except (IndexError, ValueError, TypeError) as exc:
                    outcomes.append(("raised", type(exc)))
            assert outcomes[0] == outcomes[1], fn

        for _ in range(data.draw(st.integers(1, 8))):
            r = data.draw(st.one_of(_rect(dims), st.sampled_from(rows)))
            i = data.draw(st.integers(-3, 13))
            j = data.draw(st.integers(-3, 13))
            other = data.draw(st.lists(st.one_of(_rect(dims), st.sampled_from(rows)), max_size=3))
            by_hi = lambda x: (x.hi, x.lo)  # noqa: E731
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
                        lambda c: sorted(c, key=by_hi),
                        lambda c: list(zip(c, range(3))),
                        lambda c: np.array(c, dtype=object).tolist(),
                        lambda c: tuple(c),
                        lambda c: [*c],
                        lambda c: fused_cover_boxes(c).tobytes(),
                        # mutators
                        lambda c: c.append(r),
                        lambda c: c.extend(other),
                        lambda c: c.insert(i, r),
                        lambda c: c.remove(r),
                        lambda c: c.pop(),
                        lambda c: c.pop(i),
                        lambda c: c.clear(),
                        lambda c: c.sort(key=by_hi),
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
            if op == "copy":  # a copy of box rows is packed again, whatever it copied
                model, sut = copy.copy(model), copy.copy(sut)
                assert type(sut) is (_PackedBoxes if model else SoAList)
            else:
                both(op)
            # The state check must not decode: the length and the image.
            assert len(sut) == len(model)
            assert pickle.dumps(sut, _PROTOCOL) == pickle.dumps(SoAList(model), _PROTOCOL)
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
        assert {type(node.rects) for node in resident} == {_PackedBoxes}
        # An insert decodes the pages on its path, and only those.
        tree.insert(Rect((0.5, 0.5), (0.51, 0.51)), len(rects))
        assert len(rects) in tree.point_query((0.505, 0.505))
        kinds = {type(frame.obj.rects) for frame in pool.frames.values()}
        assert kinds == {_PackedBoxes, SoAList}
        store.close()
