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

import functools
import operator
import struct
from struct import pack
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
    mutating list method invalidates them.  A page image
    (:mod:`repro.storage.pagecodec`) and the container's pickle are made
    from its items alone, so they never carry derived arrays: a container
    of float :class:`Rect` rows or of ``(point, rid)`` records travels as
    byte columns (:func:`_columns`), any other row shape as the plain
    list.

    ``_image`` is ``(rows, columns)`` of the last image, or ``None``; a
    :class:`_Packed` holds ``(None, columns)``: no row exists yet.  The
    slot lives here because the decode turns that object into a plain
    ``SoAList`` by ``__class__`` assignment, which needs one layout; no
    mutator reads or writes it.
    """

    __slots__ = ("_views", "_image")

    def __init__(self, items: Iterable = ()):
        super().__init__(items)
        self._views: "dict[str, tuple[int, Any]] | None" = None
        self._image: "tuple | None" = None

    # -- columnar views ---------------------------------------------------

    def view(self, tag: str, build: Callable[["SoAList"], Any]) -> Any:
        """The cached view for ``tag``, (re)built when absent or drifted."""
        views = self._views
        if views is None:
            views = self._views = {}
        n = len(self)  # the C slot here, the row count of the columns when packed
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
        cols = _image(self)
        if cols is not None:
            return (_restore_columns, cols)
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


def _flatten_boxes(rows) -> "tuple[int, list] | None":
    """``(dims, flat)`` for rows that are all :class:`Rect` of one
    dimensionality, else ``None``: ``flat`` is the rows' ``lo + hi``
    coordinates end to end, elements untouched."""
    if not rows or type(rows[0]) is not Rect:
        return None
    dims = len(rows[0].lo)
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
    return dims, flat


def _columns(rows) -> "tuple[int, bytes, bytes | None] | None":
    """``(dims, coords, rids)``: the byte columns of ``rows``, or ``None``.

    :class:`Rect` rows of one dimensionality: ``coords`` holds each row's
    ``lo + hi``, ``rids`` is ``None``.  ``(point, rid)`` records: ``coords``
    holds the points, ``rids`` one int64 each.  Machine-order float64 /
    int64, what ``np.frombuffer`` reads.  Loaded rows come back from the
    columns, so only ``float`` coordinates and ``int`` rids (no ``bool``)
    within int64 qualify; anything else keeps the list form.
    """
    if not rows:
        return None
    first = rows[0]
    if type(first) is Rect:
        boxes = _flatten_boxes(rows)
        if boxes is None:
            return None
        (dims, flat), rids = boxes, None
    elif type(first) is tuple and len(first) == 2 and type(first[0]) is tuple:
        dims = len(first[0])
        flat, ids = [], []
        extend, add = flat.extend, ids.append
        for row in rows:
            if type(row) is not tuple or len(row) != 2:
                return None
            point, rid = row
            if type(point) is not tuple or len(point) != dims or type(rid) is not int:
                return None
            extend(point)
            add(rid)
        try:
            rids = pack(f"{len(ids)}q", *ids)
        except struct.error:  # a rid past int64
            return None
    else:
        return None
    if not dims or set(map(type, flat)) != _FLOAT:
        return None
    return dims, pack(f"{len(flat)}d", *flat), rids


_FLOAT = {float}


def _image(lst: SoAList) -> "tuple[int, bytes, bytes | None] | None":
    """:func:`_columns` of ``lst``, re-using the bytes of its last image.

    Rows are immutable and compared by identity.  While the rows the last
    image was written from lead the container as the same objects, their
    bytes are kept and only the rows after them are written: none for an
    eviction's re-image of a committed page, one for a commit after an
    ``append``.  Any other change, a row swapped behind the mutators'
    back included, writes every row again.
    """
    last = lst._image
    if last is not None:
        seen, cols = last
        grown = len(lst) - len(seen)
        if grown >= 0 and all(map(operator.is_, lst, seen)):
            if not grown:
                return cols
            dims, coords, rids = cols
            tail = _columns(lst[len(seen) :])
            if tail is not None and tail[0] == dims and (tail[2] is None) == (rids is None):
                cols = dims, coords + tail[1], None if rids is None else rids + tail[2]
                lst._image = (tuple(lst), cols)
                return cols
    rows = tuple(lst)
    cols = _columns(rows)
    lst._image = None if cols is None else (rows, cols)
    return cols


def _restore_columns(dims: int, coords: bytes, rids: "bytes | None") -> SoAList:
    """A packed container of the rows :func:`_columns` wrote.

    Ragged columns, and an inverted interval on a stored box (the check
    ``Rect.__init__`` makes), are a ``ValueError`` here: a bad image is
    refused by the load, not by whichever reader first asks for a row.
    """
    width = 2 * dims if rids is None else dims
    ragged = rids is not None and len(rids) * width != len(coords)
    if dims < 1 or not coords or len(coords) % (8 * width) or ragged:
        raise ValueError(f"ragged columns: {len(coords)} coordinate bytes, {dims} dims")
    if rids is None:
        flat = memoryview(coords).cast("d")
        for axis in range(dims):
            if any(map(operator.gt, flat[axis::width], flat[dims + axis :: width])):
                raise ValueError(f"inverted interval on axis {axis} of a stored box")
    out = list.__new__(_Packed)
    out._views, out._image = None, (None, (dims, coords, rids))
    return out


class _Packed(SoAList):
    """Rows restored from a page image and not decoded yet.

    ``_image`` is ``(None, columns)``: the columns of :func:`_columns`
    and no rows.  ``len`` / ``bool``, the fused views
    (:func:`fused_points`, :func:`fused_cover_boxes`,
    :func:`fused_anti_boxes`) and the pickle image are answered from the
    columns; the first call of anything in :data:`_DECODES` builds the
    rows once and turns the object into a plain :class:`SoAList`, views
    and image kept — the rows they describe did not change.  A traversal
    that reads a missed page for its view and its child list never pays
    for rows, and no mutator can run while packed.
    """

    __slots__ = ()  # one layout with SoAList: what __class__ assignment needs

    def __len__(self):
        dims, coords, rids = self._image[1]
        return len(coords) // (8 * dims if rids is not None else 16 * dims)

    def __reduce__(self):
        # No row exists, so there is none a caller could have changed.
        return (_restore_columns, self._image[1])

    def _decode(self) -> None:
        cols = self._image[1]
        dims, coords, rids = cols
        # Consecutive coordinate tuples; the boxes' lo and hi alternate,
        # and map pulls its two arguments from the one iterator in turn.
        tuples = zip(*[iter(memoryview(coords).cast("d").tolist())] * dims)
        if rids is None:
            rows = map(Rect._make, tuples, tuples)
        else:
            rows = zip(tuples, memoryview(rids).cast("q").tolist())
        list.extend(self, rows)
        self.__class__ = SoAList
        self._image = (tuple(self), cols)


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
        if type(self) is _Packed:  # else an argument (``lst[0]``) decoded it already
            self._decode()
        # NotImplemented sends ``plain + packed`` on to list_concat, which
        # now finds the rows.
        return NotImplemented if after is None else after(self, *args, **kwargs)

    return method


for _name in _DECODES:
    setattr(_Packed, _name, _decoding(_name))


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
    if type(lst) is _Packed:
        dims, coords, _ = lst._image[1]
        pts = np.frombuffer(coords).reshape(-1, dims)
    else:
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


def _signed_boxes(lst: "SoAList", lo: float) -> np.ndarray:
    """``[lo * row.lo, -lo * row.hi]`` for every :class:`Rect` row.

    A packed container multiplies its coordinate column in place of a
    copy; rows are flattened here (plain lists build too).
    """
    if type(lst) is _Packed:
        dims, coords, _ = lst._image[1]
        arr = np.frombuffer(coords).reshape(-1, 2 * dims)
    else:
        boxes = _flatten_boxes(lst)
        if boxes is None:
            raise TypeError("box view of a container that is not all Rect rows")
        dims, flat = boxes
        arr = np.array(flat, dtype=float).reshape(-1, 2 * dims)
    return arr * _signs(dims, lo)


@functools.lru_cache(maxsize=None)
def _signs(dims: int, lo: float) -> np.ndarray:
    signs = np.repeat((lo, -lo), dims)
    signs.flags.writeable = False  # one array for every caller
    return signs


def fused_cover_boxes(lst: "SoAList") -> np.ndarray:
    """``[lo, -hi]`` rows for a container of :class:`Rect` (isect/encl)."""
    return _signed_boxes(lst, 1.0)


def fused_anti_boxes(lst: "SoAList") -> np.ndarray:
    """``[-lo, hi]`` rows for a container of :class:`Rect` (containment)."""
    return _signed_boxes(lst, -1.0)
