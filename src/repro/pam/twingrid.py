"""The twin grid file [HSW 88] — class C2 of the paper's taxonomy.

Two grid files over the same data space cooperate: every record lives
either in its *primary* bucket (first grid) or in its *twin* bucket
(second grid).  A full primary bucket overflows into the twin bucket;
only when **both** are full does a split happen, and records migrate
back from the twin when the split frees primary space.  Distributing
the load across two dependent files is what lifts storage utilisation
towards 90 % — the "space optimizing" in the original title — at the
price of touching two directories per operation.

The paper classifies the scheme (class C2: rectangular and complete but
non-disjoint regions, since the twin regions overlay the primary ones)
and leaves it unmeasured, noting that "the concept ... is generally
applicable to any PAM" and "might be worth investigating [for] the
winners of our comparison".  Here it completes the taxonomy and the
``ABL-TWIN`` bench measures the storage/retrieval trade-off.
"""

from __future__ import annotations

from repro.core.interfaces import PointAccessMethod
from repro.geometry.rect import Rect
from repro.pam.gridfile import _DataPage, _GridLayer
from repro.storage import layout
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore
from repro.query import traverse

__all__ = ["TwinGridFile"]


class TwinGridFile(PointAccessMethod):
    """Two cooperating grid files with overflow-into-twin placement."""

    def __init__(self, store: PageStore, dims: int = 2):
        super().__init__(store, dims, layout.point_record_size(dims))
        self._capacity = layout.data_page_capacity(self.record_size, store.page_size)
        store.path_buffer_limit = 4  # two 2-page search paths
        self._layers = (_GridLayer(Rect.unit(dims)), _GridLayer(Rect.unit(dims)))
        self._dir_cells_per_page = (
            layout.directory_page_payload(store.page_size) // layout.POINTER_SIZE
        )
        self._dir_pages: list[list[int]] = [[], []]
        for layer_index, layer in enumerate(self._layers):
            first = store.allocate(PageKind.DATA, _DataPage())
            layer.install_root_payload(first)
            store.write(first)
            self._sync_directory_pages(layer_index)

    # -- plumbing -----------------------------------------------------------

    @property
    def record_capacity(self) -> int:
        return self._capacity

    @property
    def directory_height(self) -> int:
        """One level per grid file; both are searched."""
        return 2

    def _snapshot_pages(self):
        """Uncharged :class:`PageView` walk (see :mod:`repro.obs.structure`).

        Both grids are walked; the twin grid's pages sit one depth below
        the primary's so the level rows separate the two files.
        """
        from repro.obs.structure import PageView

        per = self._dir_cells_per_page
        for layer_index, layer in enumerate(self._layers):
            total = layer.total_cells()
            children: dict[int, dict[int, None]] = {
                pid: {} for pid in self._dir_pages[layer_index]
            }
            for cell in sorted(layer.cells):
                children[self._dir_page_of_cell(layer_index, cell)].setdefault(
                    layer.cells[cell]
                )
            for i, dpid in enumerate(self._dir_pages[layer_index]):
                yield PageView(
                    pid=dpid,
                    kind="directory",
                    depth=2 * layer_index,
                    regions=(),
                    records=min(per, total - i * per),
                    capacity=per,
                    children=tuple(children[dpid]),
                )
            for pid in layer.boxes:
                page: _DataPage = self.store.peek(pid)
                yield PageView.data(
                    pid,
                    2 * layer_index + 1,
                    (layer.box_rect(pid),),
                    self._capacity,
                    page.records,
                )

    def _sync_directory_pages(self, layer_index: int) -> None:
        layer = self._layers[layer_index]
        pages = self._dir_pages[layer_index]
        needed = -(-layer.total_cells() // self._dir_cells_per_page)
        while len(pages) < needed:
            pages.append(self.store.allocate(PageKind.DIRECTORY, None))
        while len(pages) > needed:
            self.store.free(pages.pop())

    def _dir_page_of_cell(self, layer_index: int, cell: tuple[int, ...]) -> int:
        layer = self._layers[layer_index]
        linear = 0
        for a in range(self.dims):
            linear = linear * layer.ncells(a) + cell[a]
        return self._dir_pages[layer_index][linear // self._dir_cells_per_page]

    def _locate(self, layer_index: int, point: tuple[float, ...]) -> int:
        layer = self._layers[layer_index]
        cell = layer.cell_of_point(point)
        self.store.read(self._dir_page_of_cell(layer_index, cell))
        return layer.cells[cell]

    # -- insertion ---------------------------------------------------------------

    def _insert(self, point: tuple[float, ...], rid: object) -> None:
        primary_pid = self._locate(0, point)
        primary: _DataPage = self.store.read(primary_pid)
        if len(primary.records) < self._capacity:
            primary.records.append((point, rid))
            self.store.write(primary_pid)
            return
        twin_pid = self._locate(1, point)
        twin: _DataPage = self.store.read(twin_pid)
        if len(twin.records) < self._capacity:
            twin.records.append((point, rid))
            self.store.write(twin_pid)
            return
        # Both full: split the primary bucket, then pull records back
        # from the twin into the freed primary space.
        primary.records.append((point, rid))
        self._split_primary(primary_pid, primary)
        self._reabsorb(twin_pid, twin)
        if len(twin.records) >= self._capacity:
            self._split_twin(twin_pid, twin)

    def _split_primary(self, pid: int, page: _DataPage) -> None:
        new_page = _DataPage()
        new_pid = self.store.allocate(PageKind.DATA, new_page)
        points = [p for p, _ in page.records]
        axis, cut = self._layers[0].split_payload(pid, new_pid, points)
        stay = [r for r in page.records if r[0][axis] < cut]
        move = [r for r in page.records if r[0][axis] >= cut]
        page.records = stay
        new_page.records = move
        self.store.write(pid)
        self.store.write(new_pid)
        self._sync_directory_pages(0)
        self.store.write(self._dir_page_of_cell(0, self._layers[0].cell_of_point(points[0])))

    def _split_twin(self, pid: int, page: _DataPage) -> None:
        if len(set(p for p, _ in page.records)) < 2:
            return
        new_page = _DataPage()
        new_pid = self.store.allocate(PageKind.DATA, new_page)
        points = [p for p, _ in page.records]
        axis, cut = self._layers[1].split_payload(pid, new_pid, points)
        stay = [r for r in page.records if r[0][axis] < cut]
        move = [r for r in page.records if r[0][axis] >= cut]
        page.records = stay
        new_page.records = move
        self.store.write(pid)
        self.store.write(new_pid)
        self._sync_directory_pages(1)
        self.store.write(self._dir_page_of_cell(1, self._layers[1].cell_of_point(points[0])))

    def _reabsorb(self, twin_pid: int, twin: _DataPage) -> None:
        """Promote twin records whose primary bucket has space again."""
        keep: list[tuple[tuple[float, ...], object]] = []
        touched: set[int] = set()
        for record in twin.records:
            primary_pid = self._layers[0].payload_of_point(record[0])
            primary: _DataPage = self.store.read(primary_pid)
            if len(primary.records) < self._capacity:
                primary.records.append(record)
                touched.add(primary_pid)
            else:
                keep.append(record)
        twin.records = keep
        for pid in touched:
            self.store.write(pid)
        self.store.write(twin_pid)

    # -- queries -----------------------------------------------------------------------

    def _range_query(self, rect: Rect) -> list[tuple[tuple[float, ...], object]]:
        result: list[tuple[tuple[float, ...], object]] = []
        for layer_index, layer in enumerate(self._layers):
            lo_cell = layer.cell_of_point(rect.lo)
            hi_cell = layer.cell_of_point(rect.hi)
            touched: set[int] = set()
            idx = list(lo_cell)
            while True:
                touched.add(self._dir_page_of_cell(layer_index, tuple(idx)))
                axis = 0
                while axis < self.dims:
                    idx[axis] += 1
                    if idx[axis] <= hi_cell[axis]:
                        break
                    idx[axis] = lo_cell[axis]
                    axis += 1
                if axis == self.dims:
                    break
            for dpid in touched:
                self.store.read(dpid)
            store = self.store
            pids = layer.payloads_in_rect(rect)
            # Read-then-batch: candidate pages are content-independent,
            # so read them in the original order, then evaluate every
            # cold page of the layer in one fused kernel call.
            pages = [(pid, store.read(pid).records) for pid in pids]
            rows = traverse.data_hit_rows(store, rect, pages)
            for pid, records in pages:
                result.extend([records[i] for i in rows[pid]])
        return result

    def _exact_match(self, point: tuple[float, ...]) -> list[object]:
        out = []
        for layer_index in range(2):
            pid = self._locate(layer_index, point)
            page: _DataPage = self.store.read(pid)
            out.extend(rid for p, rid in page.records if p == point)
        return out
