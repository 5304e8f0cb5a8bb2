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
reference descents (stores built with ``vector=False``), the auditors,
explain and snapshot walks iterate; the fused arrays are the
representation the batched read path actually evaluates.

In-place mutation of *held objects* (e.g. rebinding ``entry.mbr`` on a
BANG directory entry) cannot be observed by the container; such sites
must call :meth:`SoAList.touch` for the affected view tags.  A length
guard in :meth:`SoAList.view` additionally rebuilds a view whose row
count drifted from the container, so a missed length-changing mutation
degrades to a rebuild, never to a stale verdict.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

import numpy as np

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
    mutating list method invalidates them.  The container pickles as a
    plain reconstruction from its items, so build-cache entries never
    carry derived arrays.
    """

    __slots__ = ("_views",)

    def __init__(self, items: Iterable = ()):
        super().__init__(items)
        self._views: "dict[str, tuple[int, Any]] | None" = None

    # -- columnar views ---------------------------------------------------

    def view(self, tag: str, build: Callable[["SoAList"], Any]) -> Any:
        """The cached view for ``tag``, (re)built when absent or drifted."""
        views = self._views
        if views is None:
            views = self._views = {}
        n = list.__len__(self)
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


def fused_cover_boxes(lst: "SoAList") -> np.ndarray:
    """``[lo, -hi]`` rows for a container of :class:`Rect` (isect/encl)."""
    lo = np.array([r.lo for r in lst], dtype=float)
    hi = np.array([r.hi for r in lst], dtype=float)
    return np.concatenate([lo, -hi], axis=1)


def fused_anti_boxes(lst: "SoAList") -> np.ndarray:
    """``[-lo, hi]`` rows for a container of :class:`Rect` (containment)."""
    lo = np.array([r.lo for r in lst], dtype=float)
    hi = np.array([r.hi for r in lst], dtype=float)
    return np.concatenate([-lo, hi], axis=1)
