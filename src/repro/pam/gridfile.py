"""The classic (one-level) grid file [NHS 84] and its grid machinery.

A grid file cuts each axis of its region with a *linear scale* (a sorted
list of boundaries).  The scales induce a grid of cells; a *directory*
maps every cell to a data page, and the cells of one data page always
form a rectangular *box* of cells (the page region).  Splitting a full
page either reuses an existing boundary inside its box or refines a
scale; refining doubles the affected directory slice, which is the
source of the directory's superlinear growth under skewed data that the
paper criticises.

The grid machinery (:class:`_GridLayer`) is shared with the paper's
GRID structure, the 2-level grid file in
:mod:`repro.pam.twolevelgrid`.
"""

from __future__ import annotations

import bisect
from typing import Iterable

import numpy as np

from repro.core.interfaces import PointAccessMethod
from repro.geometry import kernels
from repro.geometry.rect import Rect
from repro.storage import layout
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore
from repro.query import traverse
from repro.storage.soa import delete_record, soa_field

__all__ = ["GridFile"]

#: Give up splitting after this many scale refinements of one cell; with
#: duplicate-free data this is never reached (48 halvings separate any
#: two distinct doubles in the unit square).
_MAX_REFINEMENTS = 64


class _GridLayer:
    """Scales, cells and page boxes of one grid level over a region.

    The layer knows nothing about disk pages; it maps cell index tuples
    to opaque *payload* identifiers and maintains, per payload, the
    inclusive box of cell indices it owns.
    """

    def __init__(self, region: Rect):
        self.region = region
        self.dims = region.dims
        #: Per axis, the sorted boundaries including both region edges.
        self.scales: list[list[float]] = [
            [region.lo[a], region.hi[a]] for a in range(self.dims)
        ]
        #: Cell index tuple -> payload id.
        self.cells: dict[tuple[int, ...], object] = {}
        #: Payload id -> (lo_idx, hi_idx) inclusive cell box.
        self.boxes: dict[object, tuple[list[int], list[int]]] = {}
        # Columnar snapshot of the payload box rectangles, in boxes-dict
        # order: (pids, lo, hi).  Dropped by every mutation that moves a
        # box or a scale boundary; rebuilt lazily by payloads_in_rect.
        self._bounds: tuple[list[object], np.ndarray, np.ndarray] | None = None

    def __getstate__(self):
        # The snapshot is derived state and is shed the way SoAList sheds
        # its views: a query must not change the image of the page (or
        # method blob) the layer is pickled into.
        return {**self.__dict__, "_bounds": None}

    # -- geometry ---------------------------------------------------------

    def ncells(self, axis: int) -> int:
        """Number of cells along ``axis``."""
        return len(self.scales[axis]) - 1

    def total_cells(self) -> int:
        """Total number of directory cells."""
        n = 1
        for a in range(self.dims):
            n *= self.ncells(a)
        return n

    def byte_size(self) -> int:
        """Bytes needed to store scales plus the cell array."""
        scale_bytes = sum(len(s) for s in self.scales) * layout.COORD_SIZE
        return scale_bytes + self.total_cells() * layout.POINTER_SIZE

    def cell_of_point(self, point: Iterable[float]) -> tuple[int, ...]:
        """Cell containing ``point`` (half-open cells; upper edge clamped)."""
        idx = []
        for a, c in enumerate(point):
            i = bisect.bisect_right(self.scales[a], c) - 1
            idx.append(min(max(i, 0), self.ncells(a) - 1))
        return tuple(idx)

    def box_rect(self, pid: object) -> Rect:
        """Spatial rectangle of a payload's cell box."""
        lo_idx, hi_idx = self.boxes[pid]
        lo = tuple(self.scales[a][lo_idx[a]] for a in range(self.dims))
        hi = tuple(self.scales[a][hi_idx[a] + 1] for a in range(self.dims))
        return Rect(lo, hi)

    # -- payload management -------------------------------------------------

    def install_root_payload(self, pid: object) -> None:
        """Assign the whole (so far unsplit) region to ``pid``."""
        if self.cells:
            raise ValueError("layer already populated")
        self._bounds = None
        lo = [0] * self.dims
        hi = [self.ncells(a) - 1 for a in range(self.dims)]
        self.boxes[pid] = (lo, hi)
        self._fill_box(pid, lo, hi)

    def payload_of_point(self, point: Iterable[float]) -> object:
        """Payload responsible for ``point``."""
        return self.cells[self.cell_of_point(point)]

    def payloads_in_rect(self, rect: Rect) -> list[object]:
        """Distinct payloads whose box intersects the closed ``rect``.

        Uses the per-payload boxes rather than enumerating cells, so the
        cost is proportional to the number of payloads, not cells: the
        box rectangles are tested in one NumPy call over a cached bounds
        snapshot.  Payload order — and therefore the order data pages are
        read in — is the boxes-dict order.
        """
        if len(self.boxes) > 1:
            pids, lo, hi = self._box_bounds()
            mask = kernels.boxes_intersect(
                lo, hi, np.asarray(rect.lo, dtype=float), np.asarray(rect.hi, dtype=float)
            )
            return [pids[i] for i in np.nonzero(mask)[0]]
        return [pid for pid in self.boxes if self.box_rect(pid).intersects(rect)]

    def _box_bounds(self) -> tuple[list[object], np.ndarray, np.ndarray]:
        """The cached ``(pids, lo, hi)`` snapshot of every payload box."""
        if self._bounds is None:
            pids = list(self.boxes)
            lo = np.empty((len(pids), self.dims))
            hi = np.empty((len(pids), self.dims))
            for i, pid in enumerate(pids):
                lo_idx, hi_idx = self.boxes[pid]
                for a in range(self.dims):
                    lo[i, a] = self.scales[a][lo_idx[a]]
                    hi[i, a] = self.scales[a][hi_idx[a] + 1]
            self._bounds = (pids, lo, hi)
        return self._bounds

    def _fill_box(self, pid: object, lo: list[int], hi: list[int]) -> None:
        idx = list(lo)
        while True:
            self.cells[tuple(idx)] = pid
            axis = 0
            while axis < self.dims:
                idx[axis] += 1
                if idx[axis] <= hi[axis]:
                    break
                idx[axis] = lo[axis]
                axis += 1
            if axis == self.dims:
                return

    # -- refinement -----------------------------------------------------------

    def refine(self, axis: int, value: float) -> int:
        """Insert boundary ``value`` into the scale of ``axis``.

        All cell indices and boxes are remapped.  Returns the index of
        the new boundary within the scale.  A ``value`` already present
        is a no-op (its index is still returned).
        """
        scale = self.scales[axis]
        pos = bisect.bisect_left(scale, value)
        if pos < len(scale) and scale[pos] == value:
            return pos
        if not scale[0] < value < scale[-1]:
            raise ValueError(f"boundary {value} outside region axis {axis}")
        scale.insert(pos, value)
        self._bounds = None
        split_interval = pos - 1  # the old interval being halved
        new_cells: dict[tuple[int, ...], object] = {}
        for idx, pid in self.cells.items():
            i = idx[axis]
            if i < split_interval:
                new_cells[idx] = pid
            elif i == split_interval:
                new_cells[idx] = pid
                bumped = idx[:axis] + (i + 1,) + idx[axis + 1 :]
                new_cells[bumped] = pid
            else:
                bumped = idx[:axis] + (i + 1,) + idx[axis + 1 :]
                new_cells[bumped] = pid
        self.cells = new_cells
        for lo, hi in self.boxes.values():
            if lo[axis] > split_interval:
                lo[axis] += 1
            if hi[axis] >= split_interval:
                hi[axis] += 1
        return pos

    # -- splitting ------------------------------------------------------------

    def split_payload(
        self,
        pid: object,
        new_pid: object,
        points: list[tuple[float, ...]],
    ) -> tuple[int, float]:
        """Split ``pid``'s box so both halves hold at least one point.

        Finds the most balanced split over all existing boundaries inside
        the box; when every boundary leaves one side empty (all points in
        a single cell), the cell is refined at its spatial midpoint until
        a separating boundary appears.  The upper half of the box is
        reassigned to ``new_pid``.  Returns ``(axis, boundary)`` of the
        cut for the caller to distribute its records.
        """
        for _ in range(_MAX_REFINEMENTS):
            choice = self._best_boundary(pid, points)
            if choice is not None:
                axis, boundary_index = choice
                self._apply_box_split(pid, new_pid, axis, boundary_index)
                return axis, self.scales[axis][boundary_index]
            self._refine_crowded_cell(pid, points)
        raise RuntimeError("grid split did not separate points (duplicates?)")

    def _best_boundary(
        self, pid: object, points: list[tuple[float, ...]]
    ) -> tuple[int, int] | None:
        """Most balanced (axis, scale boundary index) inside the box."""
        lo, hi = self.boxes[pid]
        best: tuple[int, int] | None = None
        best_imbalance = len(points) + 1
        for axis in range(self.dims):
            scale = self.scales[axis]
            for b in range(lo[axis] + 1, hi[axis] + 1):
                cut = scale[b]
                left = sum(1 for p in points if p[axis] < cut)
                right = len(points) - left
                if left == 0 or right == 0:
                    continue
                imbalance = abs(left - right)
                if imbalance < best_imbalance:
                    best_imbalance = imbalance
                    best = (axis, b)
        return best

    def _refine_crowded_cell(
        self, pid: object, points: list[tuple[float, ...]]
    ) -> None:
        """Refine the single cell holding all of ``pid``'s points."""
        cell = self.cell_of_point(points[0])
        # Split the cell's longest axis at its midpoint.
        best_axis, best_extent = 0, -1.0
        for a in range(self.dims):
            width = self.scales[a][cell[a] + 1] - self.scales[a][cell[a]]
            if width > best_extent:
                best_axis, best_extent = a, width
        midpoint = (
            self.scales[best_axis][cell[best_axis]]
            + self.scales[best_axis][cell[best_axis] + 1]
        ) / 2.0
        self.refine(best_axis, midpoint)

    def _apply_box_split(
        self, pid: object, new_pid: object, axis: int, boundary_index: int
    ) -> None:
        """Give the upper part of ``pid``'s box (from ``boundary_index``) to ``new_pid``."""
        self._bounds = None
        lo, hi = self.boxes[pid]
        upper_lo = list(lo)
        upper_lo[axis] = boundary_index
        upper_hi = list(hi)
        new_hi = list(hi)
        new_hi[axis] = boundary_index - 1
        self.boxes[pid] = (lo, new_hi)
        self.boxes[new_pid] = (upper_lo, upper_hi)
        self._fill_box(new_pid, upper_lo, upper_hi)

    # -- merging (deletions) ------------------------------------------------------

    def merge_candidates(self, pid: object) -> list[object]:
        """Payloads whose box unions with ``pid``'s box into a box (buddies)."""
        lo, hi = self.boxes[pid]
        out = []
        for other, (olo, ohi) in self.boxes.items():
            if other == pid:
                continue
            # The union is a box iff the boxes agree on all axes but one,
            # where they are adjacent.
            diff_axis = None
            adjacent = False
            ok = True
            for a in range(self.dims):
                if lo[a] == olo[a] and hi[a] == ohi[a]:
                    continue
                if diff_axis is not None:
                    ok = False
                    break
                diff_axis = a
                adjacent = hi[a] + 1 == olo[a] or ohi[a] + 1 == lo[a]
            if ok and diff_axis is not None and adjacent:
                out.append(other)
        return out

    def merge_payloads(self, keep: object, remove: object) -> None:
        """Fuse ``remove``'s box into ``keep``'s (must be buddies)."""
        self._bounds = None
        klo, khi = self.boxes[keep]
        rlo, rhi = self.boxes.pop(remove)
        lo = [min(a, b) for a, b in zip(klo, rlo)]
        hi = [max(a, b) for a, b in zip(khi, rhi)]
        self.boxes[keep] = (lo, hi)
        self._fill_box(keep, lo, hi)


class _DataPage:
    """A grid-file data page: a list of ``(point, rid)`` records."""

    __slots__ = ("_soa_records",)

    records = soa_field()

    def __init__(self) -> None:
        self.records: list[tuple[tuple[float, ...], object]] = []


class GridFile(PointAccessMethod):
    """One-level grid file: in-core scales, paged directory, data pages.

    The classic design follows the *two-disk-access principle*: the
    linear scales live in main memory, the directory array on disk (one
    access), the data page is the second access.  The directory array is
    packed row-major onto directory pages.

    This structure is an auxiliary baseline; the paper's GRID is the
    2-level variant in :class:`repro.pam.twolevelgrid.TwoLevelGridFile`.
    """

    def __init__(self, store: PageStore, dims: int = 2):
        super().__init__(store, dims, layout.point_record_size(dims))
        self._capacity = layout.data_page_capacity(self.record_size, store.page_size)
        self._layer = _GridLayer(Rect.unit(dims))
        # The paper buffers only "the last two accessed pages" for GRID.
        store.path_buffer_limit = 2
        self._dir_cells_per_page = layout.directory_page_payload(
            store.page_size
        ) // layout.POINTER_SIZE
        first = self.store.allocate(PageKind.DATA, _DataPage())
        self._layer.install_root_payload(first)
        self.store.write(first)
        # Directory pages are simulated: the array occupies
        # ceil(total_cells / cells_per_page) pages; accessing cell i
        # touches page i // cells_per_page.  We allocate placeholder
        # pages lazily to keep counts honest.
        self._dir_pages: list[int] = []
        self._sync_directory_pages()

    # -- plumbing ---------------------------------------------------------

    @property
    def directory_height(self) -> int:
        """One directory level."""
        return 1

    @property
    def record_capacity(self) -> int:
        return self._capacity

    def _snapshot_pages(self):
        """Uncharged :class:`PageView` walk (see :mod:`repro.obs.structure`)."""
        from repro.obs.structure import PageView

        per = self._dir_cells_per_page
        total = self._layer.total_cells()
        children: dict[int, dict[int, None]] = {
            pid: {} for pid in self._dir_pages
        }
        for cell in sorted(self._layer.cells):
            children[self._dir_page_of_cell(cell)].setdefault(
                self._layer.cells[cell]
            )
        for i, dpid in enumerate(self._dir_pages):
            yield PageView(
                pid=dpid,
                kind="directory",
                depth=0,
                regions=(),
                records=min(per, total - i * per),
                capacity=per,
                children=tuple(children[dpid]),
            )
        for pid in self._layer.boxes:
            page: _DataPage = self.store.peek(pid)
            yield PageView.data(
                pid, 1, (self._layer.box_rect(pid),), self._capacity, page.records
            )

    def _sync_directory_pages(self) -> None:
        """Grow/shrink the simulated directory pages to the cell count."""
        needed = -(-self._layer.total_cells() // self._dir_cells_per_page)
        while len(self._dir_pages) < needed:
            pid = self.store.allocate(PageKind.DIRECTORY, None)
            self._dir_pages.append(pid)
        while len(self._dir_pages) > needed:
            self.store.free(self._dir_pages.pop())

    def _dir_page_of_cell(self, cell: tuple[int, ...]) -> int:
        """Directory page holding the pointer of ``cell`` (row-major)."""
        linear = 0
        for a in range(self.dims):
            linear = linear * self._layer.ncells(a) + cell[a]
        return self._dir_pages[linear // self._dir_cells_per_page]

    def _locate(self, point: tuple[float, ...]) -> int:
        """Read the directory, then return the data page id of ``point``."""
        cell = self._layer.cell_of_point(point)
        self.store.read(self._dir_page_of_cell(cell))
        return self._layer.cells[cell]

    # -- operations ------------------------------------------------------------

    def _insert(self, point: tuple[float, ...], rid: object) -> None:
        pid = self._locate(point)
        page: _DataPage = self.store.read(pid)
        page.records.append((point, rid))
        if len(page.records) > self._capacity:
            self._split_data_page(pid, page)
        else:
            self.store.write(pid)

    def _split_data_page(self, pid: int, page: _DataPage) -> None:
        new_page = _DataPage()
        new_pid = self.store.allocate(PageKind.DATA, new_page)
        points = [p for p, _ in page.records]
        axis, cut = self._layer.split_payload(pid, new_pid, points)
        stay = [r for r in page.records if r[0][axis] < cut]
        move = [r for r in page.records if r[0][axis] >= cut]
        page.records = stay
        new_page.records = move
        self.store.write(pid)
        self.store.write(new_pid)
        self._sync_directory_pages()
        # The refreshed directory region is written back.
        self.store.write(self._dir_page_of_cell(self._layer.cell_of_point(points[0])))

    def _range_query(self, rect: Rect) -> list[tuple[tuple[float, ...], object]]:
        # Scales are in memory: identify candidate directory pages from
        # the cell index ranges, then visit each intersecting data page.
        touched_dir: set[int] = set()
        lo_cell = self._layer.cell_of_point(rect.lo)
        hi_cell = self._layer.cell_of_point(rect.hi)
        idx = list(lo_cell)
        while True:
            touched_dir.add(self._dir_page_of_cell(tuple(idx)))
            axis = 0
            while axis < self.dims:
                idx[axis] += 1
                if idx[axis] <= hi_cell[axis]:
                    break
                idx[axis] = lo_cell[axis]
                axis += 1
            if axis == self.dims:
                break
        for dpid in touched_dir:
            self.store.read(dpid)
        result = []
        store = self.store
        pids = self._layer.payloads_in_rect(rect)
        # Read-then-batch: the candidate set is content-independent, so
        # the pages are read in the original (charged) order first and
        # every cold page rides one fused kernel call.
        pages = [(pid, store.read(pid).records) for pid in pids]
        rows = traverse.data_hit_rows(store, rect, pages)
        for pid, records in pages:
            result.extend([records[i] for i in rows[pid]])
        return result

    def _exact_match(self, point: tuple[float, ...]) -> list[object]:
        pid = self._locate(point)
        page: _DataPage = self.store.read(pid)
        return [rid for p, rid in page.records if p == point]

    # -- deletion (not part of the paper's comparison, see §3) ------------------

    def delete(self, point: tuple[float, ...], rid: object) -> bool:
        """Remove one record; underfilled pages merge with a buddy.

        Returns ``True`` when the record existed.  The paper's
        comparison only grows files, but the grid file's merge policy is
        well defined, so it is implemented (and tested) here.
        """
        self.store.begin_operation()
        point = tuple(float(c) for c in point)
        pid = self._locate(point)
        page: _DataPage = self.store.read(pid)
        if not delete_record(page.records, point, rid):
            return False
        self._records -= 1
        self.store.write(pid)
        if len(page.records) < self._capacity * 0.3:
            self._try_merge(pid, page)
        return True

    def _try_merge(self, pid: int, page: _DataPage) -> None:
        for other in self._layer.merge_candidates(pid):
            other_page: _DataPage = self.store.read(other)
            if len(other_page.records) + len(page.records) <= self._capacity:
                page.records.extend(other_page.records)
                self._layer.merge_payloads(pid, other)
                self.store.write(pid)
                self.store.free(other)
                self._sync_directory_pages()
                return
