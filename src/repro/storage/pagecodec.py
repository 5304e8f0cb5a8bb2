"""Page images: one fixed-layout codec for every page class.

The durable store (:mod:`repro.storage.disk`) logs a page as an
*image*; :func:`encode` makes it and :func:`decode` turns it back into
the page object.  An image is a header naming the
page class and the encoding of each field, then the fields::

    magic 0xC5 | u8 name length | u8 field count | name | one tag per field
    | struct of the fields' fixed parts | the fields' bodies, in order

A page whose class keeps its state in ``__slots__`` and leaves its
pickling to the default (every page class of the package) is named
``module:qualname`` and has one field per slot, in the slot order pickle
uses; any other object (``None`` grid directory pages, the plain values
tests store, a class with its own pickling hook) has an empty name and
is its own one field, so its hook still runs.  The fields are what
pickle's slot state holds, so the image of a page changes exactly when
that state does — the promise the write barrier
(:class:`repro.verify.barrier.WriteBarrier`) and the commit's
equal-bytes skip rest on.  Each field is tagged by one byte:

* ``U`` an unset slot, ``N`` ``None``, ``T`` / ``F`` a ``bool``: no bytes;
* ``q`` an ``int`` within int64: eight bytes in the fixed part;
* ``L`` a ``list`` of such ints (R-tree ``children``): its byte length in
  the fixed part, an int64 column in the body;
* ``B`` / ``R`` a :class:`~repro.storage.soa.SoAList` of boxes / of
  ``(point, rid)`` records: ``dims`` and the column byte lengths in the
  fixed part, the float64 (and int64 rid) columns of
  :func:`repro.storage.soa._image` in the body;
* ``P`` any other value (a ``SoAList`` of BANG / BUDDY ``_Entry`` rows,
  HB ``_Kd`` trees, GRID ``_GridLayer``): the byte length, then the
  pickle of the value.

Element types survive: a column holds only ``float`` coordinates and
``int`` rids and pids within int64, and anything else takes the pickled
form.  A ``B`` / ``R`` field decodes through
:func:`~repro.storage.soa._restore_columns`, which refuses ragged
columns and inverted boxes with a ``ValueError``; every other bad image
(truncated, trailing bytes, an unknown tag, class or slot count, an
unreadable pickled field) is a :class:`CorruptionError`.  Either way no
page object is returned.  So is an image not starting with ``0xC5``,
such as the whole-page pickle (``0x80``) of a store written before this
codec, which the store's format version refuses at open anyway.

Each page class's layout (its slot getter) is built on its first
encode, and each header met on a load is compiled once into
straight-line code that unpacks the fixed part, checks that the bodies
fill the image exactly and sets each slot; a loop of per-field reader
calls spent twice as long outside ``_restore_columns``.
"""

from __future__ import annotations

import copyreg
import importlib
import operator
import pickle
import struct
from typing import Any, Callable

from repro.storage.soa import SoAList, _image, _Packed, _restore_columns

__all__ = ["CorruptionError", "MAGIC", "decode", "encode"]

MAGIC = 0xC5
_PROTOCOL = 4  # fixed: the image of an unchanged value is reproducible


class _Unset:
    """The value an unset slot reads as."""


_UNSET = _Unset()
_INT64 = range(-(1 << 63), 1 << 63)


class CorruptionError(RuntimeError):
    """A page image or log record failed its checks; nothing can heal it."""


# -- field encoders: ``(value, heads, bodies) -> tag`` -------------------------


def _enc_unset(value, heads, bodies) -> int:
    return 0x55  # U


def _enc_none(value, heads, bodies) -> int:
    return 0x4E  # N


def _enc_bool(value, heads, bodies) -> int:
    return 0x54 if value else 0x46  # T / F


def _enc_int(value, heads, bodies) -> int:
    if value not in _INT64:
        return _enc_opaque(value, heads, bodies)
    heads.append(value)
    return 0x71  # q


def _enc_list(value, heads, bodies) -> int:
    if set(map(type, value)) <= _INT:
        try:
            column = struct.pack(f"{len(value)}q", *value)
        except struct.error:  # an int past int64
            return _enc_opaque(value, heads, bodies)
        heads.append(len(column))
        bodies.append(column)
        return 0x4C  # L
    return _enc_opaque(value, heads, bodies)


_INT = {int}


def _enc_columns(cols, heads, bodies) -> int:
    dims, coords, rids = cols
    heads += (dims, len(coords))
    bodies.append(coords)
    if rids is None:
        return 0x42  # B
    heads.append(len(rids))
    bodies.append(rids)
    return 0x52  # R


def _enc_soa(value, heads, bodies) -> int:
    cols = _image(value)
    if cols is not None:
        return _enc_columns(cols, heads, bodies)
    return _enc_opaque(value, heads, bodies)


def _enc_packed(value, heads, bodies) -> int:
    return _enc_columns(value._image[1], heads, bodies)


def _enc_opaque(value, heads, bodies) -> int:
    body = pickle.dumps(value, _PROTOCOL)
    heads.append(len(body))
    bodies.append(body)
    return 0x50  # P


_ENCODERS: dict[type, Callable] = {
    _Unset: _enc_unset,
    type(None): _enc_none,
    bool: _enc_bool,
    int: _enc_int,
    list: _enc_list,
    SoAList: _enc_soa,
    _Packed: _enc_packed,
}

# -- field decoders (called from the compiled per-header decoders) ------------


def _ints(body: bytes) -> list:
    if len(body) % 8:
        raise CorruptionError(f"ragged int column: {len(body)} bytes")
    return memoryview(body).cast("q").tolist()


def _unpickle(body: bytes):
    try:
        return pickle.loads(body)
    except Exception as exc:  # whatever the bytes made pickle raise
        raise CorruptionError(f"page image holds an unreadable pickled field: {exc!r}") from exc


def _misfit(buf: bytes, end: int) -> CorruptionError:
    if end > len(buf):
        return CorruptionError(f"page image truncated: its fields end at byte {end} of {len(buf)}")
    return CorruptionError(f"page image has {len(buf) - end} trailing bytes")


#: Per tag: the fixed part's struct format, how many of its last values
#: are body lengths, and the source of the decoded value, in which
#: ``{h0}`` … name the fixed values and ``{b0}`` … the body slices.
_TAGS = {
    0x55: ("", 0, None),  # U: the slot stays unset
    0x4E: ("", 0, "None"),
    0x54: ("", 0, "True"),
    0x46: ("", 0, "False"),
    0x71: ("q", 0, "{h0}"),
    0x4C: ("I", 1, "_ints({b0})"),
    0x42: ("II", 1, "_restore_columns({h0}, {b0}, None)"),
    0x52: ("III", 2, "_restore_columns({h0}, {b0}, {b1})"),
    0x50: ("I", 1, "_unpickle({b0})"),
}


# -- per-class layouts ---------------------------------------------------------


#: The methods by which a class takes over its own pickling.
_HOOKS = (
    "__reduce_ex__", "__reduce__", "__getstate__", "__setstate__",
    "__getnewargs_ex__", "__getnewargs__",
)  # fmt: skip


def _slot_names(cls: type) -> "list[str] | None":
    """The slots pickle saves for ``cls``, in its order, or ``None`` when
    ``cls`` is not a plain slotted class (a builtin, a class with a
    ``__dict__``, or one that defines or registers a pickling hook):
    such an object is stored as a value."""
    mro = cls.__mro__
    if len(mro) < 2 or cls.__dictoffset__ or cls in copyreg.dispatch_table:
        return None
    for c in mro[:-1]:
        if "__slots__" not in c.__dict__ or any(hook in c.__dict__ for hook in _HOOKS):
            return None
    return copyreg._slotnames(cls)


class _Layout:
    """How one page class is written: ``prefix`` is the image header up
    to the tags, ``values`` reads every field of an object
    (:data:`_UNSET` for an unset slot)."""

    __slots__ = ("prefix", "values")

    def __init__(self, cls: type):
        slots = _slot_names(cls)
        if slots is None:
            name, count = b"", 1
            self.values = _one
        else:
            name, count = f"{cls.__module__}:{cls.__qualname__}".encode(), len(slots)
            self.values = _slot_reader(slots)
        if len(name) > 255 or count > 255:
            raise TypeError(f"{cls.__qualname__}: name or slot count too long for a page image")
        self.prefix = bytes((MAGIC, len(name), count)) + name

    def encode(self, obj) -> bytes:
        heads: list = []
        bodies: list = [b""]
        get = _ENCODERS.get
        tags = bytes([get(type(v), _enc_opaque)(v, heads, bodies) for v in self.values(obj)])
        fixed = _STRUCTS.get(tags)
        if fixed is None:
            fixed = _STRUCTS[tags] = struct.Struct("<" + "".join(_TAGS[t][0] for t in tags))
        bodies[0] = self.prefix + tags + fixed.pack(*heads)
        return b"".join(bodies)


def _one(obj) -> tuple:
    return (obj,)


def _slot_reader(slots: list[str]) -> Callable:
    get = operator.attrgetter(*slots)
    single = len(slots) == 1

    def values(obj) -> tuple:
        try:
            got = get(obj)
        except AttributeError:  # an unset slot
            return tuple(getattr(obj, name, _UNSET) for name in slots)
        return (got,) if single else got

    return values


#: Page class -> layout; fixed-part struct per tag string; decoder per header.
_LAYOUTS: dict[type, _Layout] = {}
_STRUCTS: dict[bytes, struct.Struct] = {}
_DECODERS: dict[bytes, Callable] = {}


def encode(page: Any) -> bytes:
    """The image of ``page``: the one encoder of page state."""
    layout = _LAYOUTS.get(type(page))
    if layout is None:
        layout = _LAYOUTS[type(page)] = _Layout(type(page))
    return layout.encode(page)


# -- decoding --------------------------------------------------------------------


def _compile(header: bytes) -> Callable:
    """The decoder of every image that starts with ``header``: straight-line
    code that unpacks the fixed part, checks that the bodies fill the
    image exactly, then decodes each field and sets its slot."""
    name_len, count = header[1], header[2]
    name, tags = header[3 : 3 + name_len], header[3 + name_len :]
    if any(t not in _TAGS for t in tags):
        raise CorruptionError(f"page image has an unknown field tag in {bytes(tags)!r}")
    if name:
        cls = _resolve(name)
        slots = _slot_names(cls)
        if slots is None or len(slots) != count:
            raise CorruptionError(f"page image names {name!r} with {count} fields")
    elif count != 1 or tags == b"U":
        raise CorruptionError(f"value page image with field tags {bytes(tags)!r}")
    fixed = struct.Struct("<" + "".join(_TAGS[t][0] for t in tags))
    start = len(header) + fixed.size
    lines = [f"if len(buf) < {start}: raise _misfit(buf, {start})"]
    heads = [f"h{i}" for i in range(sum(len(_TAGS[t][0]) for t in tags))]
    if heads:
        lines.append(f"{', '.join(heads)}, = _unpack(buf, {len(header)})")
    lines.append(f"o0 = {start}")
    values, h, o = [], 0, 0
    for tag in tags:
        fmt, n_bodies, expr = _TAGS[tag]
        names = {f"h{i}": heads[h + i] for i in range(len(fmt))}
        for i in range(n_bodies):
            lines.append(f"o{o + 1} = o{o} + {heads[h + len(fmt) - n_bodies + i]}")
            names[f"b{i}"] = f"buf[o{o}:o{o + 1}]"
            o += 1
        h += len(fmt)
        values.append(expr and expr.format(**names))
    lines.append(f"if o{o} != len(buf): raise _misfit(buf, o{o})")
    if name:
        lines.append("obj = _new(_cls)")
        lines += [f"_set{i}(obj, {v})" for i, v in enumerate(values) if v is not None]
        lines.append("return obj")
        scope = {f"_set{i}": getattr(cls, slot).__set__ for i, slot in enumerate(slots)}
        scope.update(_new=cls.__new__, _cls=cls)
    else:
        lines.append(f"return {values[0]}")
        scope = {}
    scope.update(
        _unpack=fixed.unpack_from, _misfit=_misfit, _ints=_ints,
        _unpickle=_unpickle, _restore_columns=_restore_columns,
    )  # fmt: skip
    source = "def decode(buf):\n" + "".join(f"    {line}\n" for line in lines)
    exec(compile(source, f"<page image {bytes(header)!r}>", "exec"), scope)
    return scope["decode"]


def _resolve(name: bytes) -> type:
    try:
        module, _, qualname = name.decode("ascii").partition(":")
        obj: Any = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (UnicodeDecodeError, ImportError, AttributeError, ValueError) as exc:
        raise CorruptionError(f"page image names an unknown class {name!r}") from exc
    if not isinstance(obj, type):
        raise CorruptionError(f"page image names {name!r}, which is not a class")
    return obj


def decode(image: bytes) -> Any:
    """The page object of ``image``: the one decoder of page state."""
    if len(image) < 3:
        raise CorruptionError(f"page image truncated: {len(image)} bytes")
    if image[0] != MAGIC:
        raise CorruptionError(f"page image starts with {image[0]:#04x}, not a known format")
    end = 3 + image[1] + image[2]
    decoder = _DECODERS.get(image[:end])
    if decoder is None:
        if len(image) < end:
            raise CorruptionError("page image truncated inside its header")
        decoder = _DECODERS[image[:end]] = _compile(image[:end])
    return decoder(image)
