"""Structure snapshots: occupancy, shape and redundancy metrics.

A *snapshot* is a versioned, JSON-serialisable summary of one built
access method's page layout — occupancy histograms, directory depth and
fanout distributions, and the redundancy quantities the source paper is
named for: the clipping duplication factor, the summed overlap volume
of sibling directory regions, dead space inside data-page regions, and
per-level storage utilisation.

Every structure contributes a ``_snapshot_pages()`` walk yielding
:class:`PageView` records: the one page model of the repro.  A data
page's view carries the ``(key, rid)`` entries it stores.  Snapshots,
explain traces, ``iter_records()`` and the invariant auditors all read
it — the auditors through :func:`repro.verify.invariants.check_walk`,
which holds each walk to the store (every live page exactly once, with the kind the
store records) and checks capacity, nesting and balance on the views.
The walk uses only the page store's uncharged audit accessors
(:meth:`~repro.storage.pagestore.PageStore.peek` and friends), so taking
a snapshot never perturbs access counters or the search-path buffer —
:func:`compute_snapshot` verifies this and raises if a walk charged
anything.

Metric definitions (all volumes are d-dimensional, in the unit cube):

``duplication_factor``
    Physically stored data entries divided by logical records.  1.0 for
    one-place schemes; the clipping SAM's redundancy shows up directly.
``overlap_volume``
    Sum over directory pages of the pairwise intersection volumes of
    their entries' regions.  0.0 for disjoint partitioning schemes;
    positive for the R-tree family.
``dead_space``
    Sum over data pages of ``max(0, vol(regions) - vol(MBR of
    contents))`` — region volume not needed to bound the stored data.
    Exact-MBR schemes (BUDDY, the R-tree) report ~0; cell-partitioning
    schemes (GRID, KDB) report their unused region volume.
``coverage``
    Summed volume of all data-page regions.  For disjoint in-universe
    partitions this is the covered fraction of the data space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.geometry.rect import Rect

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.interfaces import _AccessMethodBase

__all__ = [
    "SNAPSHOT_SCHEMA",
    "PageView",
    "compute_snapshot",
    "snapshot_to_json",
    "validate_snapshot",
    "page_parents",
    "render_snapshot",
]

#: Schema identifier embedded in every snapshot.
SNAPSHOT_SCHEMA = "repro.obs/structure/v1"

#: Decimal places kept on every float in a snapshot, so re-serialised
#: snapshots are byte-identical across runs and processes.
_ROUND = 10

#: Occupancy histogram bucket labels (percent of capacity, deciles).
_OCCUPANCY_BUCKETS = tuple(
    f"{lo}-{lo + 10}" for lo in range(0, 100, 10)
) + (">100",)


@dataclass(frozen=True)
class PageView:
    """One page as seen by a structure's snapshot walk.

    ``regions`` are the region(s) the directory assigns to this page
    (shared pages — packed BUDDY — carry one per sharing entry; pages
    without a geometric region, e.g. B+-tree nodes, carry none).
    ``records`` counts stored entries: records on a data page, child
    entries on a directory page.  ``capacity`` is the page's entry
    budget, or 0 for byte-budget pages with no fixed slot count.
    ``entry_regions`` are the per-entry regions stored *in* a directory
    page (used for sibling-overlap accounting).  ``entries`` are the
    ``(key, rid)`` rows a data page stores, taken from the page when
    the view is built (the page's own sequence where it has one); a
    data view is made by :meth:`data`, which counts ``records`` from
    them, and :attr:`content` is their MBR.
    """

    pid: int
    kind: str  # "data" | "directory"
    depth: int  # 0 = root level
    regions: tuple[Rect, ...]
    records: int
    capacity: int
    children: tuple[int, ...] = ()
    entry_regions: tuple[Rect, ...] = ()
    entries: Sequence = ()

    @classmethod
    def data(
        cls,
        pid: int,
        depth: int,
        regions: tuple[Rect, ...],
        capacity: int,
        entries: Sequence,
    ) -> "PageView":
        """The view of a data page storing the ``(key, rid)`` ``entries``."""
        return cls(pid, "data", depth, regions, len(entries), capacity, entries=entries)

    @property
    def content(self) -> Rect | None:
        """MBR of the stored keys (points or rectangles); ``None`` when
        the page stores nothing or is a directory page."""
        if not self.entries:
            return None
        keys = [key for key, _ in self.entries]
        if isinstance(keys[0], Rect):
            return Rect.bounding(keys)
        return Rect.bounding_points(keys)


def _occupancy_bucket(records: int, capacity: int) -> str:
    if records > capacity:
        return ">100"
    share = records / capacity
    return _OCCUPANCY_BUCKETS[min(9, int(share * 10))]


def _rect_volume(rect: Rect) -> float:
    return rect.area()


def _pairwise_overlap(regions: Sequence[Rect]) -> float:
    """Summed intersection volume over every pair of ``regions``.

    One NumPy pass over the pairs ``i < j``: ``Rect.intersection``'s
    corners and its "disjoint when any ``lo > hi``" test, volumes
    multiplied in axis order like ``Rect.area``.  The volumes are then
    added one by one in row-major pair order, the order of the nested
    loop this replaces, so the float total is bit-identical to it.
    """
    if len(regions) < 2:
        return 0.0
    lo = np.array([r.lo for r in regions], dtype=float)
    hi = np.array([r.hi for r in regions], dtype=float)
    i, j = np.triu_indices(len(regions), 1)
    common_lo = np.maximum(lo[i], lo[j])
    common_hi = np.minimum(hi[i], hi[j])
    meets = ~(common_lo > common_hi).any(axis=1)
    sides = (common_hi - common_lo)[meets]
    volumes = sides[:, 0]
    for axis in range(1, sides.shape[1]):
        volumes = volumes * sides[:, axis]
    total = 0.0
    for volume in volumes.tolist():
        total += volume
    return total


def compute_snapshot(am: "_AccessMethodBase") -> dict:
    """Snapshot one built structure into a plain, JSON-ready dict.

    Walks ``am._snapshot_pages()`` and aggregates.  The walk must be
    uncharged; this function compares the store's counters before and
    after and raises :class:`RuntimeError` on any drift, so a hook that
    accidentally uses ``store.read`` cannot silently skew experiments.
    """
    before = am.store.stats.snapshot()
    pages = list(am._snapshot_pages())
    if am.store.stats != before:
        raise RuntimeError(
            f"{type(am).__name__}._snapshot_pages() charged page accesses; "
            "snapshot walks must use store.peek()"
        )

    data_pages = [p for p in pages if p.kind == "data"]
    dir_pages = [p for p in pages if p.kind == "directory"]

    # -- per-level aggregation -------------------------------------------
    levels: dict[int, dict] = {}
    for page in pages:
        cell = levels.setdefault(
            page.depth,
            {
                "depth": page.depth,
                "data_pages": 0,
                "directory_pages": 0,
                "entries": 0,
                "capacity": 0,
            },
        )
        cell["data_pages" if page.kind == "data" else "directory_pages"] += 1
        cell["entries"] += page.records
        cell["capacity"] += page.capacity
    level_rows = []
    for depth in sorted(levels):
        cell = levels[depth]
        cap = cell["capacity"]
        cell["utilisation"] = round(cell["entries"] / cap, _ROUND) if cap else 0.0
        level_rows.append(cell)

    # -- occupancy histograms --------------------------------------------
    occupancy: dict[str, dict[str, int]] = {}
    for label, group in (("data", data_pages), ("directory", dir_pages)):
        hist = {bucket: 0 for bucket in _OCCUPANCY_BUCKETS}
        seen = False
        for page in group:
            if page.capacity <= 0:
                continue
            hist[_occupancy_bucket(page.records, page.capacity)] += 1
            seen = True
        if seen:
            occupancy[label] = {k: v for k, v in hist.items() if v}

    # -- fanout distribution ---------------------------------------------
    fanouts = [p.records for p in dir_pages]
    fanout = {
        "count": len(fanouts),
        "min": min(fanouts) if fanouts else 0,
        "max": max(fanouts) if fanouts else 0,
        "mean": round(sum(fanouts) / len(fanouts), _ROUND) if fanouts else 0.0,
    }

    # -- redundancy metrics ----------------------------------------------
    stored = sum(p.records for p in data_pages)
    logical = len(am)
    overlap = 0.0
    for page in dir_pages:
        if page.entry_regions:
            overlap += _pairwise_overlap(page.entry_regions)
    dead = 0.0
    coverage = 0.0
    for page in data_pages:
        if not page.regions:
            continue
        vol = sum(_rect_volume(r) for r in page.regions)
        coverage += vol
        content = page.content
        if content is not None:
            dead += max(0.0, vol - _rect_volume(content))
        elif page.records == 0:
            dead += vol
    slots = sum(p.capacity for p in data_pages)
    redundancy = {
        "stored_entries": stored,
        "duplication_factor": round(stored / logical, _ROUND) if logical else 0.0,
        "overlap_volume": round(overlap, _ROUND),
        "dead_space": round(dead, _ROUND),
        "coverage": round(coverage, _ROUND),
        "utilisation": round(stored / slots, _ROUND) if slots else 0.0,
    }

    return {
        "schema": SNAPSHOT_SCHEMA,
        "structure": type(am).__name__,
        "records": logical,
        "height": am.directory_height,
        "pages": {"data": len(data_pages), "directory": len(dir_pages)},
        "pinned_pages": am.store.pinned_count,
        "levels": level_rows,
        "occupancy": occupancy,
        "fanout": fanout,
        "redundancy": redundancy,
    }


def snapshot_to_json(snapshot: dict) -> str:
    """Canonical JSON text of a snapshot (sorted keys, no whitespace).

    Two snapshots of the same build — whichever process built it —
    must serialise to byte-identical text.
    """
    import json

    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))


def validate_snapshot(data: object) -> list[str]:
    """Shape-check a snapshot dict; returns problems ([] when valid)."""
    problems: list[str] = []
    if not isinstance(data, dict):
        return ["snapshot is not a JSON object"]
    if data.get("schema") != SNAPSHOT_SCHEMA:
        problems.append(
            f"schema is {data.get('schema')!r}, expected {SNAPSHOT_SCHEMA!r}"
        )
    for key, types in (
        ("structure", str),
        ("records", int),
        ("height", int),
        ("pages", dict),
        ("levels", list),
        ("redundancy", dict),
    ):
        if not isinstance(data.get(key), types):
            problems.append(f"missing or mistyped field {key!r}")
    redundancy = data.get("redundancy")
    if isinstance(redundancy, dict):
        for key in (
            "stored_entries",
            "duplication_factor",
            "overlap_volume",
            "dead_space",
            "coverage",
            "utilisation",
        ):
            if not isinstance(redundancy.get(key), (int, float)):
                problems.append(f"redundancy.{key} missing or mistyped")
    return problems


def page_parents(pages: Iterable[PageView]) -> dict[int, int]:
    """Map child pid -> parent pid from a snapshot walk.

    Shared pages (packed BUDDY, hB-tree index nodes) keep the first
    parent in walk order, which is deterministic.
    """
    parents: dict[int, int] = {}
    for page in pages:
        for child in page.children:
            parents.setdefault(child, page.pid)
    return parents


def render_snapshot(snapshot: dict) -> str:
    """One human-readable block per snapshot."""
    pages = snapshot["pages"]
    red = snapshot["redundancy"]
    lines = [
        f"{snapshot['structure']} — {snapshot['records']} records, "
        f"{pages['data']} data + {pages['directory']} directory pages, "
        f"height {snapshot['height']}",
        f"  redundancy: duplication ×{red['duplication_factor']:.2f}, "
        f"overlap {red['overlap_volume']:.6f}, dead space "
        f"{red['dead_space']:.6f}, coverage {red['coverage']:.4f}, "
        f"utilisation {100.0 * red['utilisation']:.1f}%",
    ]
    for level in snapshot["levels"]:
        lines.append(
            f"  level {level['depth']}: {level['directory_pages']} dir + "
            f"{level['data_pages']} data pages, {level['entries']} entries"
            + (
                f", {100.0 * level['utilisation']:.1f}% full"
                if level["capacity"]
                else ""
            )
        )
    occupancy = snapshot.get("occupancy", {})
    for label, hist in occupancy.items():
        row = ", ".join(f"{bucket}%: {count}" for bucket, count in hist.items())
        lines.append(f"  {label} occupancy: {row}")
    return "\n".join(lines)
