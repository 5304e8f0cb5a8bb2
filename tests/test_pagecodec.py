"""The page codec (:mod:`repro.storage.pagecodec`): round trips and refusals.

Every page of every fuzzed structure, built on the durable store with a
pool small enough that pages leave memory, must decode and encode back
to the same bytes; slot values the fixed layout cannot hold keep their
exact types through the fallbacks; and an image whose CRC was recomputed
after it was cut, padded, re-tagged or given a ragged column or an
inverted box is refused by the load with the store's errors.
"""

from __future__ import annotations

import struct

import pytest

from repro.geometry.rect import Rect
from repro.pam.zbtree import _Leaf
from repro.sam.rtree import _Node
from repro.storage.disk import CorruptionError, DiskPageStore
from repro.storage.page import PageKind
from repro.storage.pagecodec import MAGIC, _slot_names, decode, encode
from repro.storage.soa import SoAList, _columns, _Packed
from repro.verify.fuzz import STRUCTURES
from tests.conftest import make_points, make_rects
from tests.test_disk_store import plant_image


def _exact(a, b) -> bool:
    """Equal, with the same type at every level of lists and tuples."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_exact, a, b))
    if isinstance(a, Rect):
        return _exact(a.lo, b.lo) and _exact(a.hi, b.hi)
    return a == b or (a != a and b != b)


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_every_page_of_every_structure_round_trips(name, tmp_path):
    spec = STRUCTURES[name]
    store = DiskPageStore(tmp_path / "store", 512, pool_pages=4, fsync=False)
    am = spec["factory"](store)
    data = make_points(300, seed=2) if spec["kind"] == "pam" else make_rects(200, seed=2)
    for rid, item in enumerate(data):
        am.insert(item, rid)
    store.checkpoint()
    assert store.pool.evictions
    for pid in store.page_ids():
        image = store.pool.image(pid)
        assert image[0] == MAGIC
        page = decode(image)
        assert encode(page) == image
        # The live page (resident or not) has the committed image.
        assert type(page) is type(store.peek(pid)) and encode(store.peek(pid)) == image
    assert sorted(am.iter_records(), key=repr) == sorted(
        ((item, rid) for rid, item in enumerate(data)), key=repr
    )
    store.close()


# -- adversarial slot values -------------------------------------------------------


def _node(**slots) -> _Node:
    node = _Node.__new__(_Node)
    for name, value in slots.items():
        setattr(node, name, value)
    return node


def _leaf(**slots) -> _Leaf:
    leaf = _Leaf.__new__(_Leaf)
    for name, value in slots.items():
        setattr(leaf, name, value)
    return leaf


BOX = Rect((0.25, 0.5), (0.75, 1.0))
POINT = (0.25, 0.5)

ADVERSARIAL = {
    "columns": lambda: _node(is_leaf=False, rects=[BOX, BOX], children=[3, -(2**63)]),
    "int coordinate": lambda: _node(
        is_leaf=True, rects=[BOX, Rect((0, 0), (1, 1))], children=[1, 2]
    ),
    "bool rid": lambda: _leaf(keys=[5], values=[(POINT, True)], next_pid=None),
    "past-int64 rid": lambda: _leaf(keys=[5], values=[(POINT, 2**63)], next_pid=7),
    "bool child": lambda: _node(is_leaf=True, rects=[BOX], children=[False]),
    "past-int64 child": lambda: _node(is_leaf=True, rects=[BOX], children=[-(2**63) - 1]),
    "float child": lambda: _node(is_leaf=True, rects=[BOX], children=[1.0]),
    "list-form SoAList": lambda: _leaf(
        keys=[(1, 2)], values=[(POINT, "a"), [POINT, 1]], next_pid=None
    ),
    "empty containers": lambda: _node(is_leaf=False, rects=[], children=[]),
    "unset slot": lambda: _node(is_leaf=True, children=[]),
    "huge scalar": lambda: _leaf(keys=[], values=[], next_pid=2**64),
    "float scalar": lambda: _leaf(keys=[], values=[], next_pid=-0.0),
    "tuple in a list slot": lambda: _node(is_leaf=True, rects=[], children=(1, 2)),
}


def _slots(page) -> dict:
    return {name: getattr(page, name) for name in type(page).__slots__ if hasattr(page, name)}


@pytest.mark.parametrize("case", sorted(ADVERSARIAL))
def test_adversarial_slot_values_keep_their_exact_types(case):
    page = ADVERSARIAL[case]()
    image = encode(page)
    back = decode(image)
    assert type(back) is type(page)
    want, got = _slots(page), _slots(back)
    assert got.keys() == want.keys()
    for name, value in want.items():
        if type(value) is SoAList:  # a column container comes back packed
            assert type(got[name]) is (SoAList if _columns(value) is None else _Packed)
            assert _exact(list(got[name]), list(value))
        else:
            assert _exact(got[name], value), name
    assert encode(back) == image
    list(getattr(back, "_soa_rects", getattr(back, "_soa_values", [])))  # decode the rows
    assert encode(back) == image


@pytest.mark.parametrize("value", [None, [1, 2, 3], [], {"a": [1.5]}, "x", 7, 2.5, True])
def test_a_value_page_is_its_own_one_field(value):
    image = encode(value)
    assert image[:3] == bytes((MAGIC, 0, 1))
    assert _exact(decode(image), value) and encode(decode(image)) == image


# -- classes that take over their own pickling ------------------------------------


class _SetStateOnly:
    """Slotted, with only a ``__setstate__``: its hook must still run."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __setstate__(self, state) -> None:
        _, slots = state
        self.a, self.b = slots["a"], ("restored", slots["b"])


class _InheritsTheHook(_SetStateOnly):
    __slots__ = ("c",)


class _GetNewArgs:
    __slots__ = ("a",)

    def __new__(cls, a=None):
        obj = object.__new__(cls)
        obj.a = ("new", a)
        return obj

    def __getnewargs__(self):
        return (self.a[1],)


@pytest.mark.parametrize("cls", [_SetStateOnly, _InheritsTheHook, _GetNewArgs])
def test_a_class_with_a_pickling_hook_is_stored_as_a_value(cls):
    page = cls(1) if cls is _GetNewArgs else cls(1, [2.5])
    assert _slot_names(cls) is None
    image = encode(page)
    assert image[:3] == bytes((MAGIC, 0, 1)) and image[3:4] == b"P"
    back = decode(image)
    assert type(back) is cls
    if cls is _GetNewArgs:
        assert back.a == ("new", 1)
    else:
        assert (back.a, back.b) == (1, ("restored", [2.5]))  # the hook ran
    # A codec image that names the class with slot fields is refused: a
    # slot-by-slot decode would bypass the hook.
    name = f"{cls.__module__}:{cls.__qualname__}".encode()
    fields = len(cls.__slots__)
    forged = bytes((MAGIC, len(name), fields)) + name + b"N" * fields
    with pytest.raises(CorruptionError):
        decode(forged)


def test_plain_slotted_page_classes_are_laid_out_slot_by_slot():
    assert _slot_names(_Node) == list(_Node.__slots__)
    assert _slot_names(_Leaf) == list(_Leaf.__slots__)
    assert encode(_node(is_leaf=True, rects=[BOX], children=[1]))[1] > 0  # named


# -- refusals ----------------------------------------------------------------------


def _fields(image: bytes) -> tuple[int, bytes]:
    """``(offset of the fixed part, tags)`` of a codec image."""
    start = 3 + image[1] + image[2]
    return start, image[3 + image[1] : start]


def _inner_node_image() -> bytes:
    """``TBL``: flag, a box column of three 2-d boxes, a two-pid column."""
    node = _node(is_leaf=True, rects=[BOX, Rect((0.0, 0.0), (0.5, 0.5)), BOX], children=[4, 5, 6])
    image = encode(node)
    assert _fields(image)[1] == b"TBL"
    return image


def _records_image() -> bytes:
    """``LRq``: keys, a record column of two 2-d points, an int."""
    image = encode(_leaf(keys=[1, 2], values=[(POINT, 1), ((0.5, 0.5), 2)], next_pid=9))
    assert _fields(image)[1] == b"LRq"
    return image


def _patch(image: bytes, fmt: str, at: int, *values) -> bytes:
    buf = bytearray(image)
    struct.pack_into(fmt, buf, at, *values)
    return bytes(buf)


def _ragged_boxes() -> bytes:
    # Move 8 bytes from the box column to the pid column: the total fits.
    image = _inner_node_image()
    start, _ = _fields(image)
    dims, coords, ints = struct.unpack_from("<III", image, start)
    return _patch(image, "<III", start, dims, coords - 8, ints + 8)


def _ragged_records() -> bytes:
    image = _records_image()
    start, _ = _fields(image)
    keys, dims, coords, rids = struct.unpack_from("<IIII", image, start)
    return _patch(image, "<IIII", start, keys, dims, coords - 8, rids + 8)


def _inverted_box() -> bytes:
    image = _inner_node_image()
    start, _ = _fields(image)
    body = start + 12  # the box column: lo x, lo y, hi x, hi y per box
    lo_x, _, hi_x, _ = struct.unpack_from("<4d", image, body + 32)
    image = _patch(image, "<d", body + 32, hi_x)
    return _patch(image, "<d", body + 48, lo_x)


def _retag(image: bytes, tags: bytes) -> bytes:
    start, old = _fields(image)
    return image[: start - len(old)] + tags + image[start:]


BAD_IMAGES = {
    "empty": (lambda: b"", CorruptionError),
    "cut in the header": (lambda: _inner_node_image()[:10], CorruptionError),
    "cut in the fixed part": (
        lambda: _inner_node_image()[: _fields(_inner_node_image())[0] + 5],
        CorruptionError,
    ),
    "cut in a body": (lambda: _inner_node_image()[:-1], CorruptionError),
    "cut in the records": (lambda: _records_image()[:-9], CorruptionError),
    "trailing bytes": (lambda: _inner_node_image() + b"\0", CorruptionError),
    "unknown field tag": (lambda: _retag(_inner_node_image(), b"TBZ"), CorruptionError),
    "tag for another layout": (lambda: _retag(_inner_node_image(), b"TBq"), CorruptionError),
    "unknown class": (
        lambda: bytes((MAGIC, 13, 1)) + b"repro.no:Such" + b"N", CorruptionError
    ),
    "wrong slot count": (lambda: _retag(_inner_node_image(), b"TBLN"), CorruptionError),
    "unset value page": (lambda: bytes((MAGIC, 0, 1)) + b"U", CorruptionError),
    "unknown format": (lambda: b"\x01" + _inner_node_image()[1:], CorruptionError),
    "bad pickled field": (
        lambda: bytes((MAGIC, 0, 1)) + b"P" + struct.pack("<I", 3) + b"\x80\x04(",
        CorruptionError,
    ),
    "ragged box column": (_ragged_boxes, ValueError),
    "ragged record column": (_ragged_records, ValueError),
    "inverted box": (_inverted_box, ValueError),
}


@pytest.mark.parametrize("case", sorted(BAD_IMAGES))
def test_a_bad_image_with_a_matching_crc_is_refused_by_the_load(case, tmp_path):
    make, error = BAD_IMAGES[case]
    bad = make()
    with pytest.raises(error) as raised:
        decode(bad)
    assert type(raised.value) in (CorruptionError, ValueError)
    # Through the store: the record and the page table agree on the CRC.
    store = DiskPageStore(tmp_path / "store", 512, pool_pages=4, fsync=False)
    pids = []
    for i in range(8):
        store.begin_operation()
        pids.append(store.allocate(PageKind.DATA, _node(is_leaf=True, rects=[BOX], children=[i])))
        store.write(pids[-1])
    store.checkpoint()
    store.begin_operation()
    cold = next(p for p in pids if p not in store.pool.frames)
    plant_image(store, cold, bad)
    misses, loads = store.pool.misses, store.pool.peek_loads
    for load in (store.peek, store.read):
        with pytest.raises(error) as raised:
            load(cold)
        assert type(raised.value) in (CorruptionError, ValueError)
    assert (store.pool.misses, store.pool.peek_loads) == (misses, loads)
    assert cold not in store.pool.frames
    store._wal.close()
    store._base.close()
