"""GRID — the 2-level grid file [Hin 85], the paper's measuring stick.

The grid directory itself is managed by another grid file: a coarse
*first-level* directory, kept entirely in main memory per §3 of the
paper, partitions the data space into subregions; each subregion owns a
*second-level* directory page holding an independent grid (scales plus
cell array) over that subregion, whose cells point to data pages.

Splitting cascades upward: a full data page splits inside its
second-level grid (possibly refining the subregion's scales); when a
second-level grid no longer fits its 512-byte page, the subregion is cut
in two along one of its own boundaries and the first-level directory is
refined accordingly.  A subregion cut that would slice through a data
page's cell box force-splits that page first, which is one reason GRID
shows the lowest storage utilisation in the paper's tables.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.interfaces import PointAccessMethod
from repro.core.stats import BuildMetrics
from repro.geometry.rect import Rect
from repro.pam.gridfile import _DataPage, _GridLayer
from repro.storage import layout
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore
from repro.query import traverse

__all__ = ["TwoLevelGridFile"]


class _SubGrid:
    """A second-level directory page: one grid over one subregion."""

    __slots__ = ("layer",)

    def __init__(self, layer: _GridLayer):
        self.layer = layer


class TwoLevelGridFile(PointAccessMethod):
    """The paper's GRID structure.

    The first-level directory is main-memory resident; its size is
    reported through :attr:`BuildMetrics.pinned_pages` (the paper notes
    it reached 45 pages for 100 000 diagonal records).  Second-level
    directory pages and data pages live on disk.
    """

    def __init__(self, store: PageStore, dims: int = 2):
        super().__init__(store, dims, layout.point_record_size(dims))
        self._capacity = layout.data_page_capacity(self.record_size, store.page_size)
        self._subgrid_payload = layout.directory_page_payload(store.page_size)
        self._root = _GridLayer(Rect.unit(dims))
        # The paper buffers only "the last two accessed pages" for GRID.
        store.path_buffer_limit = 2
        # Bootstrap: one subregion covering everything, one data page.
        first_layer = _GridLayer(Rect.unit(dims))
        first_data = self.store.allocate(PageKind.DATA, _DataPage())
        first_layer.install_root_payload(first_data)
        spid = self.store.allocate(PageKind.DIRECTORY, _SubGrid(first_layer))
        self._root.install_root_payload(spid)
        self.store.write(first_data)
        self.store.write(spid)

    # -- plumbing -------------------------------------------------------

    @property
    def directory_height(self) -> int:
        """Two directory levels, as reported for GRID in every table."""
        return 2

    @property
    def record_capacity(self) -> int:
        return self._capacity

    @property
    def first_level_pages(self) -> int:
        """Main-memory pages occupied by the first-level directory."""
        return -(-self._root.byte_size() // self.store.page_size)

    def metrics(self) -> BuildMetrics:
        """Table metrics; pinned pages are the in-core first level."""
        return replace(super().metrics(), pinned_pages=self.first_level_pages)

    def _snapshot_pages(self):
        """Uncharged :class:`PageView` walk (see :mod:`repro.obs.structure`).

        The in-core first level is not a disk page and is not walked;
        second-level directory pages sit at depth 0, data pages below.
        """
        from repro.obs.structure import PageView

        for spid in self._root.boxes:
            subgrid: _SubGrid = self.store.peek(spid)
            layer = subgrid.layer
            yield PageView(
                pid=spid,
                kind="directory",
                depth=0,
                regions=(self._root.box_rect(spid),),
                records=len(layer.boxes),
                capacity=0,
                children=tuple(layer.boxes),
                entry_regions=tuple(layer.box_rect(d) for d in layer.boxes),
            )
            for dpid in layer.boxes:
                page: _DataPage = self.store.peek(dpid)
                yield PageView.data(
                    dpid, 1, (layer.box_rect(dpid),), self._capacity, page.records
                )

    # -- operations --------------------------------------------------------

    def _insert(self, point: tuple[float, ...], rid: object) -> None:
        spid = self._root.payload_of_point(point)
        subgrid: _SubGrid = self.store.read(spid)
        dpid = subgrid.layer.payload_of_point(point)
        page: _DataPage = self.store.read(dpid)
        page.records.append((point, rid))
        if len(page.records) <= self._capacity:
            self.store.write(dpid)
            return
        self._split_data_page(spid, subgrid, dpid, page)
        # A subregion cut roughly halves a grid, but pathological scale
        # refinements can leave either half still too large, so iterate.
        worklist = [spid]
        while worklist:
            current = worklist.pop()
            grid: _SubGrid = self.store.read(current)
            if grid.layer.byte_size() > self._subgrid_payload:
                new_spid = self._split_subregion(current, grid)
                worklist.extend((current, new_spid))

    def _split_data_page(
        self, spid: int, subgrid: _SubGrid, dpid: int, page: _DataPage
    ) -> None:
        new_page = _DataPage()
        new_pid = self.store.allocate(PageKind.DATA, new_page)
        points = [p for p, _ in page.records]
        axis, cut = subgrid.layer.split_payload(dpid, new_pid, points)
        stay = [r for r in page.records if r[0][axis] < cut]
        move = [r for r in page.records if r[0][axis] >= cut]
        page.records = stay
        new_page.records = move
        self.store.write(dpid)
        self.store.write(new_pid)
        self.store.write(spid)

    def _split_subregion(self, spid: int, subgrid: _SubGrid) -> int:
        layer = subgrid.layer
        axis, boundary_index = self._choose_subregion_cut(layer)
        cut = layer.scales[axis][boundary_index]
        # Force-split any data page whose box straddles the cut.
        for dpid in list(layer.boxes):
            lo, hi = layer.boxes[dpid]
            if lo[axis] < boundary_index <= hi[axis]:
                self._force_split_data_page(layer, dpid, axis, boundary_index, cut)
        new_layer = self._extract_upper_layer(layer, axis, boundary_index)
        new_spid = self.store.allocate(PageKind.DIRECTORY, _SubGrid(new_layer))
        self.store.write(spid)
        self.store.write(new_spid)
        # Reflect the cut in the in-core first level.
        root_boundary = self._root.refine(axis, cut)
        self._root._apply_box_split(spid, new_spid, axis, root_boundary)
        return new_spid

    def _choose_subregion_cut(self, layer: _GridLayer) -> tuple[int, int]:
        """Pick (axis, boundary index) cutting fewest boxes, then most balanced."""
        best: tuple[int, int] | None = None
        best_key: tuple[int, float] | None = None
        for axis in range(layer.dims):
            n = layer.ncells(axis)
            for b in range(1, n):
                cuts = sum(
                    1
                    for lo, hi in layer.boxes.values()
                    if lo[axis] < b <= hi[axis]
                )
                balance = abs(b - (n - b)) / n
                key = (cuts, balance)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (axis, b)
        if best is None:
            raise RuntimeError("subregion with a single cell cannot overflow")
        return best

    def _force_split_data_page(
        self, layer: _GridLayer, dpid: int, axis: int, boundary_index: int, cut: float
    ) -> None:
        """Split a data page whose box straddles the subregion cut."""
        page: _DataPage = self.store.read(dpid)
        new_page = _DataPage()
        new_pid = self.store.allocate(PageKind.DATA, new_page)
        layer._apply_box_split(dpid, new_pid, axis, boundary_index)
        new_page.records = [r for r in page.records if r[0][axis] >= cut]
        page.records = [r for r in page.records if r[0][axis] < cut]
        self.store.write(dpid)
        self.store.write(new_pid)

    @staticmethod
    def _extract_upper_layer(
        layer: _GridLayer, axis: int, boundary_index: int
    ) -> _GridLayer:
        """Move everything at/above the cut into a fresh layer."""
        cut = layer.scales[axis][boundary_index]
        upper_region_lo = list(layer.region.lo)
        upper_region_lo[axis] = cut
        upper_region = Rect(tuple(upper_region_lo), layer.region.hi)
        lower_region_hi = list(layer.region.hi)
        lower_region_hi[axis] = cut
        lower_region = Rect(layer.region.lo, tuple(lower_region_hi))

        new_layer = _GridLayer(upper_region)
        new_layer.scales = [list(s) for s in layer.scales]
        new_layer.scales[axis] = layer.scales[axis][boundary_index:]
        new_layer.cells = {}
        new_layer.boxes = {}
        moved = [
            pid for pid, (lo, _) in layer.boxes.items() if lo[axis] >= boundary_index
        ]
        for pid in moved:
            lo, hi = layer.boxes.pop(pid)
            lo[axis] -= boundary_index
            hi[axis] -= boundary_index
            new_layer.boxes[pid] = (lo, hi)
            new_layer._fill_box(pid, lo, hi)
        # Shrink the old layer.  Boxes and scales were rewritten outside
        # the layer's own mutators, so drop its bounds snapshot by hand.
        layer.region = lower_region
        layer.scales[axis] = layer.scales[axis][: boundary_index + 1]
        layer.cells = {
            idx: pid for idx, pid in layer.cells.items() if idx[axis] < boundary_index
        }
        layer._bounds = None
        return new_layer

    def _range_query(self, rect: Rect) -> list[tuple[tuple[float, ...], object]]:
        result = []
        store = self.store
        # Read-then-batch: the visit set depends only on the directory
        # grids, so all data pages are read in the original (charged)
        # order, then evaluated in one fused kernel call.
        pages = []
        for spid in self._root.payloads_in_rect(rect):
            subgrid: _SubGrid = store.read(spid)
            for dpid in subgrid.layer.payloads_in_rect(rect):
                pages.append((dpid, store.read(dpid).records))
        rows = traverse.data_hit_rows(store, rect, pages)
        for dpid, records in pages:
            result.extend([records[i] for i in rows[dpid]])
        return result

    def _exact_match(self, point: tuple[float, ...]) -> list[object]:
        spid = self._root.payload_of_point(point)
        subgrid: _SubGrid = self.store.read(spid)
        dpid = subgrid.layer.payload_of_point(point)
        page: _DataPage = self.store.read(dpid)
        return [rid for p, rid in page.records if p == point]
