"""Struct-of-arrays page payloads.

A :class:`SoAList` is the canonical container for a page's entries: it
keeps the per-page columnar views — the fused NumPy arrays the batched
traversal consumes (:mod:`repro.query.traverse`) — *on the page itself*,
instead of in a pid-keyed side cache.  Two consequences:

* **No side-cache probes.**  A page visit reaches its fused array through
  one attribute access and one dict lookup, with no per-store dictionary
  keyed by page id in the hot path.

* **Per-array invalidation.**  Every mutating list method drops only the
  views of *this* container.  A page that carries several containers (a
  BANG leaf holds its entry list and its data pages hold record lists)
  keeps the directory-bounds arrays intact when a record list changes —
  previously any write rebuilt the whole page's arrays.

Python row objects (``(point, rid)`` / ``(rect, rid)`` tuples) remain
reachable through the ordinary list interface, which is what the scalar
reference descents (``tests/reference_query.py``), the auditors, explain
and snapshot walks iterate; the fused arrays are the
representation the batched read path actually evaluates.

In-place mutation of *held objects* (e.g. rebinding ``entry.mbr`` on a
BANG directory entry) cannot be observed by the container; such sites
must call :meth:`SoAList.touch` for the affected view tags.  A length
guard in :meth:`SoAList.view` additionally rebuilds a view whose row
count drifted from the container, so a missed length-changing mutation
degrades to a rebuild, never to a stale verdict.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Iterable

import numpy as np

from repro.geometry.rect import Rect

__all__ = [
    "SoAList",
    "soa_field",
    "fused_points",
    "fused_cover_values",
    "fused_anti_values",
    "fused_cover_boxes",
    "fused_anti_boxes",
]


class SoAList(list):
    """A list of page entries carrying canonical columnar views.

    Views are keyed by tag (``"pts"``, ``"entries:cover"``, …) and built
    on first use by a caller-supplied function of the container; every
    mutating list method invalidates them.  The container pickles from
    its items alone, so build-cache entries and page images never carry
    derived arrays: a container of :class:`Rect` rows travels as one flat
    coordinate tuple (:meth:`__reduce__`), any other row shape as the
    plain list.

    ``_flat`` is ``None`` on every container that has rows.  Only a
    :class:`_PackedBoxes` — what the flat form is restored to — sets it:
    there ``(dims, flat)`` *is* the content and no row exists yet.  The
    slot lives here because the decode turns that object into a plain
    ``SoAList`` by ``__class__`` assignment, which needs one layout; no
    method of this class reads or writes it.
    """

    __slots__ = ("_views", "_flat")

    def __init__(self, items: Iterable = ()):
        super().__init__(items)
        self._views: "dict[str, tuple[int, Any]] | None" = None
        self._flat: "tuple | None" = None

    # -- columnar views ---------------------------------------------------

    def view(self, tag: str, build: Callable[["SoAList"], Any]) -> Any:
        """The cached view for ``tag``, (re)built when absent or drifted."""
        views = self._views
        if views is None:
            views = self._views = {}
        n = len(self)  # the C slot here, the row count of the flat when packed
        entry = views.get(tag)
        if entry is not None and entry[0] == n:
            return entry[1]
        arr = build(self)
        views[tag] = (n, arr)
        return arr

    def touch(self, tag: "str | None" = None) -> None:
        """Drop cached views after an in-place mutation of a held object.

        With a ``tag``, only that view is dropped — the per-array
        invalidation that lets unrelated views survive.
        """
        views = self._views
        if views:
            if tag is None:
                views.clear()
            else:
                views.pop(tag, None)

    @property
    def view_builds(self) -> int:
        """How many views are currently materialised (for tests)."""
        return len(self._views) if self._views else 0

    # -- pickling ---------------------------------------------------------

    def __reduce__(self):
        # From the rows: the store's silent-mutation CRCs must see what the method holds.
        boxes = _flatten_boxes(self)
        if boxes is not None:
            return (_restore_boxes, boxes)
        return (type(self), (list(self),))

    # -- mutators (each invalidates this container's views only) ----------

    def append(self, item):
        if self._views:
            self._views.clear()
        list.append(self, item)

    def extend(self, items):
        if self._views:
            self._views.clear()
        list.extend(self, items)

    def insert(self, index, item):
        if self._views:
            self._views.clear()
        list.insert(self, index, item)

    def remove(self, item):
        if self._views:
            self._views.clear()
        list.remove(self, item)

    def pop(self, index=-1):
        if self._views:
            self._views.clear()
        return list.pop(self, index)

    def clear(self):
        if self._views:
            self._views.clear()
        list.clear(self)

    def sort(self, **kwargs):
        if self._views:
            self._views.clear()
        list.sort(self, **kwargs)

    def reverse(self):
        if self._views:
            self._views.clear()
        list.reverse(self)

    def __setitem__(self, index, value):
        if self._views:
            self._views.clear()
        list.__setitem__(self, index, value)

    def __delitem__(self, index):
        if self._views:
            self._views.clear()
        list.__delitem__(self, index)

    def __iadd__(self, other):
        if self._views:
            self._views.clear()
        return list.__iadd__(self, other)

    def __imul__(self, factor):
        if self._views:
            self._views.clear()
        return list.__imul__(self, factor)


def _flatten_boxes(rows: list) -> "tuple[int, tuple] | None":
    """``(dims, flat)`` for rows that are all :class:`Rect` of one
    dimensionality, else ``None``.

    ``flat`` is the rows' ``lo + hi`` coordinates end to end, elements
    untouched (an ``int`` stays an ``int``, ``-0.0`` keeps its sign): no
    nested tuples for pickle to memoise and no per-row reduce call, which
    is what made a page of boxes dearer to move than a page of points.
    Rows of ``(point, rid)`` tuples measured *slower* flattened and keep
    the list form.
    """
    if not rows or type(rows[0]) is not Rect:
        return None
    dims = len(rows[0].lo)
    if not dims:
        return None
    flat: list = []
    extend = flat.extend
    for row in rows:
        if type(row) is not Rect:
            return None
        lo = row.lo
        if len(lo) != dims:
            return None
        extend(lo)
        extend(row.hi)
    return dims, tuple(flat)


def _restore_boxes(dims: int, flat: tuple) -> SoAList:
    """A packed container of the boxes :func:`_flatten_boxes` flattened.

    Keeps the check ``Rect.__init__`` made when every row was unpickled
    through it — an inverted interval is a ``ValueError`` — as ``dims``
    strided passes over the tuple, and makes it here: a bad image is
    refused by the load, not by whichever reader first asks for a row.
    """
    width = 2 * dims
    if dims < 1 or len(flat) % width:
        raise ValueError(f"dimension mismatch: {len(flat)} coordinates, {dims} dims")
    for axis in range(dims):
        if any(map(operator.gt, flat[axis::width], flat[dims + axis :: width])):
            raise ValueError(f"inverted interval on axis {axis} of a stored box")
    out = list.__new__(_PackedBoxes)
    out._views, out._flat = None, (dims, flat)
    return out


class _PackedBoxes(SoAList):
    """Box rows restored from a page image and not decoded yet.

    Holds ``(dims, flat)`` and no rows.  ``len`` / ``bool``, the box views
    (:func:`_box_rows`) and the pickle image are answered from the tuple;
    the first call of anything in :data:`_DECODES` builds the rows once
    and turns the object into a plain :class:`SoAList`, views kept — the
    rows they describe did not change.  A traversal that reads a missed
    page for its view and its child list never pays for rows, and no
    mutator can run while packed.
    """

    __slots__ = ()  # one layout with SoAList: what __class__ assignment needs

    def __len__(self):
        dims, flat = self._flat
        return len(flat) // (2 * dims)

    def __reduce__(self):
        # No row exists, so there is none a caller could have changed.
        return (_restore_boxes, self._flat)

    def _decode(self) -> None:
        dims, flat = self._flat
        make, width = Rect._make, 2 * dims
        starts = range(0, len(flat), width)
        list.extend(self, [make(flat[i : i + dims], flat[i + dims : i + width]) for i in starts])
        self._flat = None
        self.__class__ = SoAList


#: Every ``list`` / :class:`SoAList` method that needs rows: the readers,
#: the twelve mutators, ``touch`` (its caller changed a held row), and
#: ``__radd__`` — ``plain + packed`` is C-level ``list_concat`` reading the
#: empty item array unless the right operand claims the operator first.
_DECODES = tuple(
    "__getitem__ __iter__ __reversed__ __contains__ __repr__ copy count index "
    "__eq__ __ne__ __lt__ __le__ __gt__ __ge__ __add__ __radd__ __mul__ __rmul__ "
    "append extend insert remove pop clear sort reverse "
    "__setitem__ __delitem__ __iadd__ __imul__ touch".split()
)


def _decoding(name: str):
    after = getattr(SoAList, name, None)  # list has no __radd__ to hand over to

    def method(self, *args, **kwargs):
        self._decode()
        # NotImplemented sends ``plain + packed`` on to list_concat, which
        # now finds the rows.
        return NotImplemented if after is None else after(self, *args, **kwargs)

    return method


for _name in _DECODES:
    setattr(_PackedBoxes, _name, _decoding(_name))


class soa_field:
    """A descriptor that keeps a page attribute a :class:`SoAList`.

    Page classes declare ``records = soa_field()`` (with the backing slot
    added to ``__slots__`` automatically via ``__set_name__`` convention:
    the slot is the public name prefixed with an underscore).  Every
    assignment — including rebinds of plain lists produced by slicing or
    comprehensions in split paths — is wrapped into a fresh container, so
    mutation sites cannot accidentally strip the columnar views.
    """

    __slots__ = ("_slot", "_get", "_set")

    def __set_name__(self, owner, name: str) -> None:
        self._slot = "_soa_" + name
        # Slotted owners expose the backing member descriptor on the class
        # the moment type() creates it; binding its raw __get__/__set__
        # here spares every access a getattr/setattr name lookup.
        member = owner.__dict__.get(self._slot)
        if member is not None:
            self._get = member.__get__
            self._set = member.__set__
        else:
            self._get = None
            self._set = None

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        get = self._get
        if get is not None:
            return get(obj)
        return getattr(obj, self._slot)

    def __set__(self, obj, value) -> None:
        if type(value) is not SoAList:
            value = SoAList(value)
        set_ = self._set
        if set_ is not None:
            set_(obj, value)
        else:
            setattr(obj, self._slot, value)


# -- view builders -----------------------------------------------------------
#
# The fused encodings mirror repro.geometry.kernels: every predicate is one
# ``fused <= qvec`` comparison.  Builders take the container so SoAList.view
# can call them without closures.


def fused_points(lst: "SoAList") -> np.ndarray:
    """``[-p, p]`` rows for a container of ``(point, rid)`` records."""
    pts = np.array([rec[0] for rec in lst], dtype=float)
    return np.concatenate([-pts, pts], axis=1)


def fused_cover_values(lst: "SoAList") -> np.ndarray:
    """``[lo, -hi]`` rows for ``(rect, payload)`` pairs (isect/encl)."""
    lo = np.array([v[0].lo for v in lst], dtype=float)
    hi = np.array([v[0].hi for v in lst], dtype=float)
    return np.concatenate([lo, -hi], axis=1)


def fused_anti_values(lst: "SoAList") -> np.ndarray:
    """``[-lo, hi]`` rows for ``(rect, payload)`` pairs (containment)."""
    lo = np.array([v[0].lo for v in lst], dtype=float)
    hi = np.array([v[0].hi for v in lst], dtype=float)
    return np.concatenate([-lo, hi], axis=1)


def _box_rows(lst: "SoAList") -> "tuple[np.ndarray, int]":
    """A fresh ``(n, 2d)`` array of ``[lo, hi]`` rows, and ``d``.

    Built from the flat coordinate tuple — the one a packed container is,
    else one flattened from the rows here: both stores share this path.
    """
    boxes = getattr(lst, "_flat", None) or _flatten_boxes(lst)  # plain lists build too
    if boxes is None:
        raise TypeError("box view of a container that is not all Rect rows")
    dims, flat = boxes
    return np.array(flat, dtype=float).reshape(-1, 2 * dims), dims


def fused_cover_boxes(lst: "SoAList") -> np.ndarray:
    """``[lo, -hi]`` rows for a container of :class:`Rect` (isect/encl)."""
    arr, dims = _box_rows(lst)
    hi = arr[:, dims:]
    np.negative(hi, out=hi)
    return arr


def fused_anti_boxes(lst: "SoAList") -> np.ndarray:
    """``[-lo, hi]`` rows for a container of :class:`Rect` (containment)."""
    arr, dims = _box_rows(lst)
    lo = arr[:, :dims]
    np.negative(lo, out=lo)
    return arr
