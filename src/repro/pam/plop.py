"""PLOP hashing [KS 88] — a "grid file without directory".

Multidimensional order-preserving linear hashing with partial
expansions: each axis is cut into binary (dyadic) slices; the cross
product of the slices addresses a primary bucket *arithmetically*, so no
directory is needed.  The file grows by *partial expansions*: when the
load factor passes a threshold, the next slice of the expansion axis is
halved and only the buckets of that slice are rehashed.  Records that do
not fit their primary bucket go to chained overflow pages — the
structure's weakness under clustered data, where a few buckets grow long
chains while most stay empty.

The paper uses PLOP in two roles: it is excluded from the PAM comparison
("efficient only for weakly correlated data") but serves, via the
overlapping-regions technique, as one of the four compared SAMs
(:mod:`repro.sam.overlapping` builds on the grid core defined here).
"""

from __future__ import annotations

import bisect
from typing import Callable

from repro.core.interfaces import PointAccessMethod
from repro.geometry.rect import Rect
from repro.storage import layout
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore
from repro.query import traverse
from repro.storage.soa import soa_field

__all__ = ["PlopHashing", "QuantileHashing"]

#: Load factor above which the next partial expansion runs.
_EXPANSION_LOAD = 0.8


class _PlopPage:
    """A primary or overflow page of one bucket chain."""

    __slots__ = ("_soa_records",)

    records = soa_field()

    def __init__(self) -> None:
        self.records: list[tuple[tuple[float, ...], object]] = []


class _Bucket:
    """A bucket: the pids of its primary page and overflow chain."""

    __slots__ = ("chain",)

    def __init__(self, primary: int):
        self.chain: list[int] = [primary]


class _PlopGrid:
    """The directory-less slice grid shared by the PAM and the OR-SAM.

    ``key_of`` extracts the hashed point from a record (identity for the
    PAM; the rectangle center for the overlapping-regions SAM).
    """

    def __init__(
        self,
        store: PageStore,
        dims: int,
        page_capacity: int,
        key_of: Callable[[tuple], tuple[float, ...]],
        split_strategy: str = "midpoint",
    ):
        if split_strategy not in ("midpoint", "quantile"):
            raise ValueError(f"unknown split strategy {split_strategy!r}")
        self.store = store
        self.dims = dims
        self.capacity = page_capacity
        self.key_of = key_of
        self.split_strategy = split_strategy
        #: Per axis: sorted dyadic slice boundaries including 0 and 1.
        self.slices: list[list[float]] = [[0.0, 1.0] for _ in range(dims)]
        self.buckets: dict[tuple[int, ...], _Bucket] = {}
        self._records = 0
        self._pages = 1
        #: Axis currently being expanded and the next slice to halve.
        self._axis = 0
        self._pointer = 0
        first = store.allocate(PageKind.DATA, _PlopPage())
        self.buckets[(0,) * dims] = _Bucket(first)
        store.write(first)

    # -- addressing ---------------------------------------------------------

    def address(self, key: tuple[float, ...]) -> tuple[int, ...]:
        """Bucket index of ``key`` — arithmetic, never a disk access."""
        idx = []
        for axis, c in enumerate(key):
            i = bisect.bisect_right(self.slices[axis], c) - 1
            idx.append(min(max(i, 0), len(self.slices[axis]) - 2))
        return tuple(idx)

    def bucket(self, idx: tuple[int, ...]) -> _Bucket:
        """The bucket at ``idx``, created on demand."""
        found = self.buckets.get(idx)
        if found is None:
            pid = self.store.allocate(PageKind.DATA, _PlopPage())
            self._pages += 1
            found = _Bucket(pid)
            self.buckets[idx] = found
        return found

    # -- record operations ------------------------------------------------------

    def insert(self, record: tuple) -> None:
        """Append a record to its bucket chain, expanding if loaded."""
        bucket = self.bucket(self.address(self.key_of(record)))
        for pid in bucket.chain:
            page: _PlopPage = self.store.read(pid)
            if len(page.records) < self.capacity:
                page.records.append(record)
                self.store.write(pid)
                break
        else:
            overflow = _PlopPage()
            overflow.records.append(record)
            pid = self.store.allocate(PageKind.DATA, overflow)
            self._pages += 1
            bucket.chain.append(pid)
            self.store.write(pid)
        self._records += 1
        while self._records > _EXPANSION_LOAD * self._pages * self.capacity:
            self._partial_expansion()

    def read_chain(self, idx: tuple[int, ...]) -> list[tuple]:
        """All records of one bucket, charging every page of the chain."""
        records: list[tuple] = []
        for _, page_records in self.iter_chain_pages(idx):
            records.extend(page_records)
        return records

    def iter_chain_pages(self, idx: tuple[int, ...]):
        """Yield ``(pid, records)`` per chain page, charging every read.

        Page-granular variant of :meth:`read_chain` for the batched
        record match; reads the same pages in the same order.
        """
        bucket = self.buckets.get(idx)
        if bucket is None:
            return
        for pid in bucket.chain:
            page: _PlopPage = self.store.read(pid)
            yield pid, page.records

    def index_range(self, axis: int, lo: float, hi: float) -> range:
        """Slice indices of ``axis`` whose interval meets ``[lo, hi]``."""
        boundaries = self.slices[axis]
        last = len(boundaries) - 2  # 1.0 lies in the last slice, as in address()
        first = min(max(bisect.bisect_right(boundaries, lo) - 1, 0), last)
        stop = min(bisect.bisect_right(boundaries, hi), last + 1)
        return range(first, stop)

    # -- growth --------------------------------------------------------------------

    def _partial_expansion(self) -> None:
        """Halve the next slice of the expansion axis and rehash it."""
        axis = self._axis
        boundaries = self.slices[axis]
        slice_index = self._pointer
        lo, hi = boundaries[slice_index], boundaries[slice_index + 1]
        affected = [idx for idx in self.buckets if idx[axis] == slice_index]
        midpoint = self._split_value(axis, lo, hi, affected)
        boundaries.insert(slice_index + 1, midpoint)
        # Re-address every bucket of the halved slice.
        moved: dict[tuple[int, ...], _Bucket] = {}
        for idx in self.buckets:
            if idx[axis] > slice_index:
                bumped = idx[:axis] + (idx[axis] + 1,) + idx[axis + 1 :]
                moved[bumped] = self.buckets[idx]
            elif idx[axis] < slice_index:
                moved[idx] = self.buckets[idx]
        for idx in affected:
            old = self.buckets[idx]
            records: list[tuple] = []
            for pid in old.chain:
                page: _PlopPage = self.store.read(pid)
                records.extend(page.records)
                self.store.free(pid)
                self._pages -= 1
            lower: list[tuple] = []
            upper: list[tuple] = []
            for record in records:
                side = upper if self.key_of(record)[axis] >= midpoint else lower
                side.append(record)
            for offset, part in enumerate((lower, upper)):
                new_idx = idx[:axis] + (slice_index + offset,) + idx[axis + 1 :]
                chain: list[int] = []
                for start in range(0, max(len(part), 1), self.capacity):
                    page = _PlopPage()
                    page.records = part[start : start + self.capacity]
                    pid = self.store.allocate(PageKind.DATA, page)
                    self._pages += 1
                    self.store.write(pid)
                    chain.append(pid)
                moved[new_idx] = _Bucket(chain[0])
                moved[new_idx].chain = chain
        self.buckets = moved
        # Advance the expansion pointer; when the axis is fully doubled,
        # switch to the axis with the fewest slices.
        self._pointer += 2
        if self._pointer >= len(self.slices[axis]) - 1:
            self._pointer = 0
            self._axis = min(range(self.dims), key=lambda a: len(self.slices[a]))

    def _split_value(self, axis, lo, hi, affected) -> float:
        """Where to cut the slice ``[lo, hi]`` of ``axis``.

        PLOP uses the dyadic midpoint; quantile hashing [KS 87] cuts at
        the *median* of the stored keys so the boundaries follow the
        data's marginal distribution.
        """
        if self.split_strategy == "quantile":
            coords = []
            for idx in affected:
                for pid in self.buckets[idx].chain:
                    page = self.store.held(pid)
                    coords.extend(self.key_of(r)[axis] for r in page.records)
            coords.sort()
            if coords:
                median = coords[len(coords) // 2]
                if lo < median < hi:
                    return median
        return (lo + hi) / 2.0


def snapshot_plop_pages(grid: _PlopGrid):
    """Uncharged :class:`~repro.obs.structure.PageView` walk of a PLOP grid.

    Shared by the PAM and the overlapping-regions SAM.  Every page is a
    data page; the *depth* is the page's position in its bucket chain,
    so the snapshot's level rows show the overflow-chain profile.  The
    primary page carries the bucket's slice-product region.
    """
    from repro.obs.structure import PageView

    for idx, bucket in sorted(grid.buckets.items()):
        lo = tuple(grid.slices[axis][i] for axis, i in enumerate(idx))
        hi = tuple(grid.slices[axis][i + 1] for axis, i in enumerate(idx))
        region = Rect(lo, hi)
        for position, pid in enumerate(bucket.chain):
            page: _PlopPage = grid.store.peek(pid)
            yield PageView.data(
                pid,
                position,
                (region,) if position == 0 else (),
                grid.capacity,
                page.records,
            )


class PlopHashing(PointAccessMethod):
    """PLOP hashing as a point access method."""

    def __init__(self, store: PageStore, dims: int = 2):
        super().__init__(store, dims, layout.point_record_size(dims))
        capacity = layout.data_page_capacity(self.record_size, store.page_size)
        self._grid = _PlopGrid(store, dims, capacity, key_of=lambda r: r[0])

    @property
    def record_capacity(self) -> int:
        return self._grid.capacity

    @property
    def directory_height(self) -> int:
        """PLOP has no directory; addresses are computed arithmetically."""
        return 0

    def _snapshot_pages(self):
        """Uncharged :class:`PageView` walk (see :mod:`repro.obs.structure`)."""
        yield from snapshot_plop_pages(self._grid)

    def _insert(self, point: tuple[float, ...], rid: object) -> None:
        self._grid.insert((point, rid))

    def _range_query(self, rect: Rect) -> list[tuple[tuple[float, ...], object]]:
        ranges = [
            self._grid.index_range(axis, rect.lo[axis], rect.hi[axis])
            for axis in range(self.dims)
        ]
        pages = []
        idx = [r.start for r in ranges]
        while True:
            pages.extend(self._grid.iter_chain_pages(tuple(idx)))
            axis = 0
            while axis < self.dims:
                idx[axis] += 1
                if idx[axis] < ranges[axis].stop:
                    break
                idx[axis] = ranges[axis].start
                axis += 1
            if axis == self.dims:
                break
        # Read-then-batch: chains were read in the original order above;
        # evaluate every cold page in one fused kernel call.
        rows = traverse.data_hit_rows(self.store, rect, pages)
        result = []
        for pid, records in pages:
            result.extend([records[i] for i in rows[pid]])
        return result

    def _exact_match(self, point: tuple[float, ...]) -> list[object]:
        records = self._grid.read_chain(self._grid.address(point))
        return [rid for p, rid in records if p == point]


class QuantileHashing(PlopHashing):
    """Multidimensional quantile hashing [KS 87].

    Identical to PLOP hashing except that partial expansions cut each
    slice at the *median* of the stored keys rather than the dyadic
    midpoint, so the slice boundaries approximate per-axis quantiles —
    the property behind the title claim that quantile hashing "is very
    efficient for non-uniform distributions".  The ``ABL-QUANTILE``
    bench compares the two on the paper's skewed files.
    """

    def __init__(self, store: PageStore, dims: int = 2):
        super().__init__(store, dims)
        self._grid.split_strategy = "quantile"
