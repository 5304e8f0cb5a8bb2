"""Violation records, the audit collector and the one page-model check.

An auditor receives an :class:`Audit` wrapping one access method and
calls :meth:`Audit.check` for every invariant; failed checks accumulate
as :class:`Violation` records instead of aborting, so one audit reports
*all* broken invariants of a structure at once.

Every auditor starts with :func:`check_walk`, which consumes the
structure's ``_snapshot_pages()`` walk — the same
:class:`~repro.obs.structure.PageView` records snapshots and explain
read — and checks what every structure owes: reachability, page kinds,
pins, capacity, region nesting and tiling, exact MBRs and balance.  The
auditor then loops over the views it returns and checks only what a
view cannot say, reading a data page's records from its view's
``entries``; ``records.count`` counts the same entries, so an audit
walks each structure's pages once.  Checks read pages with
:meth:`repro.storage.pagestore.PageStore.peek` and friends, which leave
the access counters and the path buffer untouched.

The helpers at module level cover substrates shared by several
structures: the grid-file directory layer (GRID, 2-level GRID, twin
grid), the B+-tree (zkd-B-tree, clipping SAM) and the PLOP grid (PLOP,
quantile hashing, overlapping PLOP).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.geometry.rect import Rect
from repro.obs.structure import PageView, _pairwise_overlap

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.interfaces import _AccessMethodBase

__all__ = [
    "Violation",
    "AuditError",
    "Audit",
    "WalkBroken",
    "check_walk",
    "check_grid_layer",
    "check_plop_grid",
    "check_bplus_tree",
]

#: Absolute slack for volume bookkeeping of region partitions.
_AREA_EPS = 1e-9


@dataclass(frozen=True)
class Violation:
    """One broken invariant.

    ``code`` is a stable machine-readable identifier of the invariant
    (e.g. ``"pages.mbr-exact"``); ``message`` is the human diagnosis.
    """

    code: str
    message: str


class AuditError(AssertionError):
    """Raised by ``audit()`` when a structure violates its invariants."""

    def __init__(self, structure: str, violations: Iterable[Violation]):
        self.structure = structure
        self.violations = list(violations)
        lines = "\n".join(f"  [{v.code}] {v.message}" for v in self.violations)
        super().__init__(
            f"{structure}: {len(self.violations)} invariant violation(s)\n{lines}"
        )


class WalkBroken(Exception):
    """The page walk raised or looped; nothing after it can be trusted.

    :func:`check_walk` records ``pages.walk`` / ``pages.repeated`` and
    raises this; ``run_audit`` stops the audit there, before the
    auditor's own checks and before ``records.count`` (which counts the
    walk's entries).  A B+-tree sibling chain that loops raises it too
    (:func:`check_bplus_tree`).
    """


class Audit:
    """Collects invariant violations while walking one access method.

    ``records`` holds the ``(key, rid)`` records the walk found, one per
    logical record: :func:`check_walk` sets it to the entries of the
    data views, and the auditor of a structure that stores an object
    more than once (clipping, R+) keeps one per rid.
    """

    def __init__(self, am: "_AccessMethodBase"):
        self.am = am
        self.store = am.store
        self.violations: list[Violation] = []
        self.records: list[tuple] = []

    def check(self, ok: object, code: str, message: str) -> bool:
        """Record a violation unless ``ok`` is truthy; returns ``bool(ok)``."""
        if not ok:
            self.violations.append(Violation(code, message))
        return bool(ok)

    def check_record_count(self) -> None:
        """The walk must hold exactly ``len(am)`` records."""
        walked = len(self.records)
        self.check(
            walked == len(self.am),
            "records.count",
            f"the walk's data pages hold {walked} records, len() reports "
            f"{len(self.am)}",
        )


# -- the page model ---------------------------------------------------------


def check_walk(
    audit: Audit,
    pins: set[int],
    *,
    leaf_depth: int | None = None,
    partition: bool = False,
    exact: bool = False,
    tolerated: Callable[[PageView], bool] | None = None,
) -> list[PageView]:
    """Check the structure's page walk; return its views of live pages.

    Consumes ``am._snapshot_pages()`` once, lazily, sets
    ``audit.records`` to the entries of the live data views, and checks:

    * ``pages.walk`` / ``pages.repeated`` — the walk raised, or reached
      a page twice (a shared or cyclic link); both raise
      :class:`WalkBroken` at once;
    * ``pages.orphan`` / ``pages.dangling`` / ``pages.pins`` — the walk
      reaches exactly the store's live pages, and exactly ``pins`` are
      pinned;
    * ``pages.kind`` — each page has the kind the store records;
    * ``pages.capacity`` — a page holds at most ``capacity`` entries
      unless ``tolerated(view)``: the structure's own pure split chooser
      finds no split (byte-budget pages, capacity 0, are the auditor's);
    * ``pages.nesting`` — a page's entry regions lie in its region and,
      with ``partition``, tile it (``pages.disjoint``,
      ``pages.complete``);
    * ``pages.mbr-exact`` — with ``exact``, a page's single region is
      the exact MBR of its records or entries;
    * ``pages.balance`` — with ``leaf_depth``, every data page sits at
      that depth.
    """
    views: list[PageView] = []
    seen: set[int] = set()
    repeated = None
    try:
        for view in audit.am._snapshot_pages():
            if view.pid in seen:
                repeated = view.pid
                break
            seen.add(view.pid)
            views.append(view)
    except Exception as exc:  # noqa: BLE001 - a broken walk is a finding
        audit.check(False, "pages.walk", f"_snapshot_pages() raised {exc!r}")
        raise WalkBroken from exc
    if repeated is not None:
        audit.check(
            False,
            "pages.repeated",
            f"the walk reaches page {repeated} twice (a shared or cyclic link)",
        )
        raise WalkBroken
    store = audit.store
    live = set(store.page_ids())
    orphans = live - seen
    dangling = seen - live
    audit.check(
        not orphans,
        "pages.orphan",
        f"store holds {len(orphans)} page(s) the walk never reached: "
        f"{sorted(orphans)[:8]}",
    )
    audit.check(
        not dangling,
        "pages.dangling",
        f"walk referenced {len(dangling)} page(s) not in the store: "
        f"{sorted(dangling)[:8]}",
    )
    actual_pins = store.pinned_ids()
    audit.check(
        actual_pins == pins,
        "pages.pins",
        f"pinned pages {sorted(actual_pins)} != expected {sorted(pins)}",
    )
    views = [v for v in views if v.pid in live]
    audit.records = [e for v in views if v.kind == "data" for e in v.entries]
    for view in views:
        pid = view.pid
        kind = store.kind(pid).value
        audit.check(
            kind == view.kind,
            "pages.kind",
            f"page {pid} has kind {kind}, the walk reaches it as {view.kind}",
        )
        if 0 < view.capacity < view.records:
            audit.check(
                tolerated is not None and tolerated(view),
                "pages.capacity",
                f"{view.kind} page {pid} holds {view.records} entries over "
                f"capacity {view.capacity}"
                + (" although a split is possible" if tolerated else ""),
            )
        if view.regions and view.entry_regions:
            region = view.regions[0]
            for rect in view.entry_regions:
                audit.check(
                    region.contains_rect(rect),
                    "pages.nesting",
                    f"entry region {rect} of page {pid} escapes the page's "
                    f"region {region}",
                )
            if partition:
                overlap = _pairwise_overlap(view.entry_regions)
                audit.check(
                    overlap <= _AREA_EPS,
                    "pages.disjoint",
                    f"entry regions of page {pid} overlap in volume {overlap}",
                )
                total = sum(rect.area() for rect in view.entry_regions)
                audit.check(
                    abs(total - region.area()) <= _AREA_EPS,
                    "pages.complete",
                    f"entry regions of page {pid} cover volume {total}, its "
                    f"region {region} has {region.area()} (the partition "
                    "must be complete)",
                )
        if exact and len(view.regions) == 1:
            want = view.content
            if view.kind == "directory" and view.entry_regions:
                want = Rect.bounding(view.entry_regions)
            audit.check(
                want is None or view.regions[0] == want,
                "pages.mbr-exact",
                f"region {view.regions[0]} of {view.kind} page {pid} is not "
                f"the exact MBR {want} of its contents",
            )
        if leaf_depth is not None and view.kind == "data":
            audit.check(
                view.depth == leaf_depth,
                "pages.balance",
                f"data page {pid} sits at depth {view.depth}, expected "
                f"{leaf_depth} (the structure is balanced)",
            )
    return views


# -- grid-file directory layer -------------------------------------------


def check_grid_layer(audit: Audit, layer, prefix: str, where: str = "") -> None:
    """Structural checks for one ``_GridLayer`` (scales, cells, boxes).

    Invariants:

    * each axis scale is strictly increasing and spans the layer region;
    * every grid cell carries a payload, and the box registry assigns
      every cell to exactly one payload box;
    * each box is a valid (inclusive) index range whose cells all map
      back to the box's payload.
    """
    tag = f" {where}" if where else ""
    for axis, scale in enumerate(layer.scales):
        ok = (
            len(scale) >= 2
            and all(a < b for a, b in zip(scale, scale[1:]))
            and scale[0] == layer.region.lo[axis]
            and scale[-1] == layer.region.hi[axis]
        )
        audit.check(
            ok,
            f"{prefix}.scales",
            f"axis-{axis} scale{tag} is not a strictly increasing partition "
            f"of [{layer.region.lo[axis]}, {layer.region.hi[axis]}]: {scale}",
        )
    total = layer.total_cells()
    audit.check(
        len(layer.cells) == total,
        f"{prefix}.coverage",
        f"grid{tag} has {len(layer.cells)} assigned cells, expected {total}",
    )
    covered = 0
    for pid, (lo_idx, hi_idx) in layer.boxes.items():
        box_ok = all(
            0 <= lo <= hi < layer.ncells(axis)
            for axis, (lo, hi) in enumerate(zip(lo_idx, hi_idx))
        )
        if not audit.check(
            box_ok,
            f"{prefix}.box-range",
            f"box of payload {pid}{tag} has invalid index range "
            f"{lo_idx}..{hi_idx}",
        ):
            continue
        idx = list(lo_idx)
        while True:
            covered += 1
            cell_pid = layer.cells.get(tuple(idx))
            if cell_pid != pid:
                audit.check(
                    False,
                    f"{prefix}.box-cells",
                    f"cell {tuple(idx)}{tag} maps to {cell_pid}, but lies in "
                    f"the box of payload {pid}",
                )
            axis = 0
            while axis < layer.dims:
                idx[axis] += 1
                if idx[axis] <= hi_idx[axis]:
                    break
                idx[axis] = lo_idx[axis]
                axis += 1
            if axis == layer.dims:
                break
    audit.check(
        covered == total,
        f"{prefix}.partition",
        f"boxes{tag} cover {covered} cells, expected {total} "
        "(every cell belongs to exactly one box)",
    )


# -- PLOP grid ------------------------------------------------------------


def check_plop_grid(audit: Audit, grid, prefix: str) -> list[PageView]:
    """Page walk plus the structural checks of one ``_PlopGrid``.

    Returns the walk's views of the live pages.

    Invariants beyond :func:`check_walk` (whose capacity check holds
    strictly: PLOP chains overflow pages instead of overfilling them):

    * slice boundaries per axis are strictly increasing from 0.0 to 1.0;
    * every bucket index lies in the slice grid and has a page chain;
    * every record sits in the bucket its key hashes to (``address``);
    * the grid's page and record counters match the chains exactly.
    """
    views = check_walk(audit, set())
    entries = {view.pid: view.entries for view in views}
    for axis, scale in enumerate(grid.slices):
        ok = (
            len(scale) >= 2
            and all(a < b for a, b in zip(scale, scale[1:]))
            and scale[0] == 0.0
            and scale[-1] == 1.0
        )
        audit.check(
            ok,
            f"{prefix}.slices",
            f"axis-{axis} slices are not a strictly increasing partition "
            f"of [0, 1]: {scale}",
        )
    for idx, bucket in grid.buckets.items():
        audit.check(
            len(idx) == grid.dims
            and all(
                0 <= i < len(grid.slices[axis]) - 1
                for axis, i in enumerate(idx)
            ),
            f"{prefix}.bucket-index",
            f"bucket index {idx} is outside the slice grid",
        )
        audit.check(
            bucket.chain,
            f"{prefix}.chain-empty",
            f"bucket {idx} has an empty page chain",
        )
        for pid in bucket.chain:
            for record in entries.get(pid, ()):
                home = grid.address(grid.key_of(record))
                audit.check(
                    home == idx,
                    f"{prefix}.placement",
                    f"record {record!r} on page {pid} hashes to bucket "
                    f"{home}, stored in {idx}",
                )
    audit.check(
        grid._pages == len(views),
        f"{prefix}.page-count",
        f"grid counts {grid._pages} pages, chains hold {len(views)}",
    )
    records = sum(view.records for view in views)
    audit.check(
        grid._records == records,
        f"{prefix}.record-count",
        f"grid counts {grid._records} records, pages hold {records}",
    )
    return views


# -- B+-tree --------------------------------------------------------------


def check_bplus_tree(audit: Audit, tree, prefix: str) -> list[tuple]:
    """Page walk plus the structural checks of one ``_BPlusTree``.

    Returns the ``(key, value)`` items of the leaves, in key order.

    The walk pins the root alone, puts every leaf at depth ``height``
    and lets a leaf overflow only when all its keys are equal (an
    uncuttable equal-key run).  Beyond it:

    * inner nodes keep ``len(pids) == len(keys) + 1``, leaves one value
      per key (``arity``), and both keep their keys sorted (``sorted``);
    * every key in child ``i`` lies in the separator interval
      ``[keys[i-1], keys[i])`` — strictly below the right separator
      because equal-key runs are never cut by a leaf split;
    * the sibling chain from the leftmost leaf is acyclic, ascends, and
      enumerates exactly the leaves in the walk's (left-to-right) order.
      The walk itself descends from the root, but range scans follow
      the chain (``scan_pages``), so a chain that loops or leaves the
      leaves raises :class:`WalkBroken`: nothing after it is trusted.
    """
    store = tree.store
    views = check_walk(
        audit,
        {tree.root_pid},
        leaf_depth=tree.height,
        tolerated=lambda v: v.kind == "data"
        and len(set(store.peek(v.pid).keys)) == 1,
    )
    # The walk is breadth-first, so parents come before their children
    # and the leaves of a balanced tree come in key order.
    bounds: dict[int, tuple] = {tree.root_pid: (None, None)}
    leaves: list[int] = []
    items: list[tuple] = []
    for view in views:
        pid = view.pid
        node = store.peek(pid)
        lo, hi = bounds.get(pid, (None, None))
        audit.check(
            all(a <= b for a, b in zip(node.keys, node.keys[1:])),
            f"{prefix}.sorted",
            f"{view.kind} page {pid} keys are not sorted",
        )
        if view.kind == "directory":
            audit.check(
                len(node.pids) == len(node.keys) + 1,
                f"{prefix}.arity",
                f"inner {pid} has {len(node.pids)} children, "
                f"{len(node.keys)} separators",
            )
            edges = [lo, *node.keys, hi]
            for i, child in enumerate(node.pids):
                bounds[child] = (edges[i], edges[i + 1])
            continue
        leaves.append(pid)
        items.extend(zip(node.keys, node.values))
        audit.check(
            len(node.keys) == len(node.values),
            f"{prefix}.arity",
            f"leaf {pid} has {len(node.keys)} keys, {len(node.values)} values",
        )
        for key in node.keys:
            audit.check(
                (lo is None or key >= lo) and (hi is None or key < hi),
                f"{prefix}.separators",
                f"leaf {pid} key {key!r} outside separator interval "
                f"[{lo!r}, {hi!r})",
            )
    chain: list[int] = []
    unvisited = set(leaves)
    pid = leaves[0] if leaves else None
    prev_last = None
    while pid is not None:
        if pid not in unvisited:
            audit.check(
                False,
                f"{prefix}.chain-cycle",
                f"sibling chain reaches page {pid} again or off the leaves",
            )
            raise WalkBroken  # a range scan would follow the same chain
        unvisited.remove(pid)
        chain.append(pid)
        leaf = store.peek(pid)
        if leaf.keys:
            audit.check(
                prev_last is None or prev_last <= leaf.keys[0],
                f"{prefix}.chain-sorted",
                f"leaf {pid} starts below the previous leaf's last key",
            )
            prev_last = leaf.keys[-1]
        pid = leaf.next_pid
    audit.check(
        chain == leaves,
        f"{prefix}.chain-coverage",
        f"sibling chain visits {len(chain)} leaves, the walk found "
        f"{len(leaves)} (in another order)",
    )
    return items
