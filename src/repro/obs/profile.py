"""Deterministic cost attribution: where do accesses and time go?

The tracer already records one :class:`~repro.obs.tracer.Span` per
bracketed operation, and the drivers time each structure with two
timers (``<name>/build``, ``<name>/queries``).  This module rolls those
two sources into a :class:`CostAttribution` — per-structure, per-phase,
per-operation rows of disk accesses (charged *and* free) and wall time
— with two exactness guarantees:

* **accesses**: the attribution's charged counters are plain integer
  sums of the spans, so they equal the tracer's
  :class:`~repro.core.stats.AccessStats` totals bit-identically, at any
  worker count (the parallel runner's merge reproduces the serial span
  stream exactly);
* **wall time**: each timer is converted once to integer nanoseconds
  and apportioned over its rows by the largest-remainder method
  (weighted by page touches), so the rows sum back to
  ``round(seconds * 1e9)`` exactly — no float drip.  A timer with no
  matching spans keeps its time on a synthetic ``(untraced)`` row
  rather than dropping it.

The **heatmap** view splits every access method's page touches into
counted vs. uncounted (pinned roots, buffered re-reads, search-path
credits, write dedup) — the paper's charging rules made visible.

:func:`repro.obs.export.profile_to_speedscope` and
``profile_to_collapsed`` turn an attribution's ``stacks()`` into
flamegraph files::

    python -m repro.obs.profile results/report_pam.json \\
        --speedscope results/pam.speedscope.json --unit accesses
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.core.stats import AccessStats
from repro.obs.tracer import Span, phase_of

__all__ = [
    "OpCost",
    "CostAttribution",
    "apportion",
    "main",
]

def apportion(total: int, weights: Sequence[int]) -> list[int]:
    """Split integer ``total`` proportionally to ``weights``, exactly.

    Largest-remainder (Hamilton) apportionment: every share is the
    floor of its proportional entitlement, and the leftover units go to
    the largest fractional remainders (ties to the earlier index).  The
    shares always sum to ``total`` — the property float proportional
    splits cannot promise.  All-zero weights degrade to an even split.
    """
    if not weights:
        return []
    if total <= 0:
        return [0] * len(weights)
    wsum = sum(weights)
    if wsum <= 0:
        weights = [1] * len(weights)
        wsum = len(weights)
    shares = [total * w // wsum for w in weights]
    leftover = total - sum(shares)
    order = sorted(
        range(len(weights)), key=lambda i: (-(total * weights[i] % wsum), i)
    )
    for i in order[:leftover]:
        shares[i] += 1
    return shares


@dataclass
class OpCost:
    """Attributed cost of one ``(structure, op)`` group."""

    structure: str
    op: str
    phase: str
    operations: int = 0
    data_reads: int = 0
    data_writes: int = 0
    dir_reads: int = 0
    dir_writes: int = 0
    free: int = 0
    wall_ns: int = 0

    @property
    def charged(self) -> int:
        return self.data_reads + self.data_writes + self.dir_reads + self.dir_writes

    @property
    def touches(self) -> int:
        """All page touches, counted or not — the apportionment weight."""
        return self.charged + self.free

    def stats(self) -> AccessStats:
        return AccessStats(
            self.data_reads, self.data_writes, self.dir_reads, self.dir_writes
        )

    def as_dict(self) -> dict:
        return {
            "structure": self.structure,
            "op": self.op,
            "phase": self.phase,
            "operations": self.operations,
            "data_reads": self.data_reads,
            "data_writes": self.data_writes,
            "dir_reads": self.dir_reads,
            "dir_writes": self.dir_writes,
            "charged": self.charged,
            "free": self.free,
            "wall_ns": self.wall_ns,
        }


#: Label of the synthetic row carrying a timer with no matching spans.
UNTRACED = "(untraced)"


@dataclass
class CostAttribution:
    """Exact rollup of spans + timers into per-operation rows."""

    rows: list[OpCost] = field(default_factory=list)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_spans(
        cls,
        spans: Iterable[Span],
        timers: Mapping[str, float] | None = None,
    ) -> "CostAttribution":
        """Roll spans up by ``(structure, op)`` and apportion the timers.

        ``timers`` maps ``"<structure>/build"`` / ``"<structure>/queries"``
        to seconds, exactly as the drivers and the parallel merge emit
        them.
        """
        from repro.obs.export import summarise_touches

        self = cls(
            rows=[
                _row_from_touches(structure, op, touch)
                for structure, per_op in summarise_touches(spans).items()
                for op, touch in per_op.items()
            ]
        )
        self._apportion_timers(timers or {})
        return self

    @classmethod
    def from_report(cls, report) -> "CostAttribution":
        """Rebuild an attribution from a saved RunReport.

        Uses the report's per-operation touch summaries (``build.ops``
        and ``queries[*].touches``) plus its timers, so a flamegraph
        does not need the original span stream.
        """
        rows: list[OpCost] = []
        timers: dict[str, float] = {}
        for name, entry in report.structures.items():
            build = entry.get("build", {})
            timers[f"{name}/build"] = build.get("seconds", 0.0)
            for op, touch in build.get("ops", {}).items():
                rows.append(_row_from_touches(name, op, touch))
            queries = entry.get("queries", {})
            timers[f"{name}/queries"] = sum(
                q.get("seconds", 0.0) for q in queries.values()
            )
            for op, q in queries.items():
                touch = q.get("touches")
                if touch is not None:
                    rows.append(_row_from_touches(name, op, touch))
        self = cls(rows=rows)
        self._apportion_timers(timers)
        return self

    def _apportion_timers(self, timers: Mapping[str, float]) -> None:
        for key in timers:
            seconds = timers[key]
            name, _, suffix = key.rpartition("/")
            if not name:
                continue
            phase = "build" if suffix == "build" else "query"
            members = [
                row
                for row in self.rows
                if row.structure == name and row.phase == phase
            ]
            t_ns = round(seconds * 1e9)
            if not members:
                if t_ns:
                    self.rows.append(
                        OpCost(name, UNTRACED, phase, wall_ns=t_ns)
                    )
                continue
            for row, share in zip(
                members, apportion(t_ns, [row.touches for row in members])
            ):
                row.wall_ns += share

    # -- totals ------------------------------------------------------------

    def stats(self) -> AccessStats:
        """Charged accesses over all rows — equals the tracer's totals."""
        total = AccessStats()
        for row in self.rows:
            total.data_reads += row.data_reads
            total.data_writes += row.data_writes
            total.dir_reads += row.dir_reads
            total.dir_writes += row.dir_writes
        return total

    @property
    def total_wall_ns(self) -> int:
        """Attributed wall time — equals ``sum(round(t * 1e9))`` exactly."""
        return sum(row.wall_ns for row in self.rows)

    def phase_wall_ns(self) -> dict[str, dict[str, int]]:
        """structure -> phase -> attributed nanoseconds."""
        out: dict[str, dict[str, int]] = {}
        for row in self.rows:
            per = out.setdefault(row.structure, {})
            per[row.phase] = per.get(row.phase, 0) + row.wall_ns
        return out

    # -- views -------------------------------------------------------------

    def heatmap(self) -> dict[str, dict[str, dict[str, int]]]:
        """Counted-vs-uncounted touches: structure -> op -> {charged, free}."""
        out: dict[str, dict[str, dict[str, int]]] = {}
        for row in self.rows:
            if row.op == UNTRACED:
                continue
            per = out.setdefault(row.structure, {})
            cell = per.setdefault(row.op, {"charged": 0, "free": 0})
            cell["charged"] += row.charged
            cell["free"] += row.free
        return out

    def stacks(self, unit: str = "accesses") -> list[tuple[tuple[str, ...], int]]:
        """Flamegraph frames ``(structure, phase, op)`` with weights.

        ``unit`` is ``"accesses"`` (charged disk accesses) or ``"wall"``
        (attributed nanoseconds); zero-weight rows are dropped.
        """
        if unit not in ("accesses", "wall"):
            raise ValueError(f"unknown stack unit {unit!r}")
        out = []
        for row in self.rows:
            weight = row.charged if unit == "accesses" else row.wall_ns
            if weight > 0:
                out.append(((row.structure, row.phase, row.op), weight))
        return out

    # -- (de)serialisation / rendering -------------------------------------

    def as_dict(self) -> dict:
        return {
            "rows": [row.as_dict() for row in self.rows],
            "totals": self.stats().as_dict(),
            "total_wall_ns": self.total_wall_ns,
        }

    def render(self, fmt: str = "text") -> str:
        """Attribution table, sorted heaviest-first within a structure."""
        rows = sorted(
            self.rows,
            key=lambda r: (r.structure, 0 if r.phase == "build" else 1, -r.wall_ns),
        )
        if fmt == "markdown":
            lines = [
                "| structure | phase | op | ops | charged | free | wall_ms |",
                "| --- | --- | --- | ---: | ---: | ---: | ---: |",
            ]
            for r in rows:
                lines.append(
                    f"| {r.structure} | {r.phase} | {r.op or '(setup)'} "
                    f"| {r.operations} | {r.charged} | {r.free} "
                    f"| {r.wall_ns / 1e6:.3f} |"
                )
            return "\n".join(lines)
        lines = [
            f"{'structure':12s}{'phase':7s}{'op':16s}{'ops':>8s}"
            f"{'charged':>9s}{'free':>9s}{'wall_ms':>10s}"
        ]
        for r in rows:
            lines.append(
                f"{r.structure:12s}{r.phase:7s}{(r.op or '(setup)'):16s}"
                f"{r.operations:>8d}{r.charged:>9d}{r.free:>9d}"
                f"{r.wall_ns / 1e6:>10.3f}"
            )
        totals = self.stats()
        lines.append(
            f"{'TOTAL':35s}{sum(r.operations for r in rows):>8d}"
            f"{totals.total:>9d}{sum(r.free for r in rows):>9d}"
            f"{self.total_wall_ns / 1e6:>10.3f}"
        )
        return "\n".join(lines)

    def render_heatmap(self, fmt: str = "text") -> str:
        """Counted-vs-uncounted table with the free share per cell."""
        cells = []
        for structure, per in self.heatmap().items():
            for op, cell in per.items():
                touches = cell["charged"] + cell["free"]
                share = 100.0 * cell["free"] / touches if touches else 0.0
                cells.append((structure, op or "(setup)", cell, share))
        if fmt == "markdown":
            lines = [
                "| structure | op | charged | free | free share |",
                "| --- | --- | ---: | ---: | ---: |",
            ]
            for structure, op, cell, share in cells:
                lines.append(
                    f"| {structure} | {op} | {cell['charged']} "
                    f"| {cell['free']} | {share:.1f}% |"
                )
            return "\n".join(lines)
        lines = [
            f"{'structure':12s}{'op':16s}{'charged':>9s}{'free':>9s}"
            f"{'free share':>12s}"
        ]
        for structure, op, cell, share in cells:
            lines.append(
                f"{structure:12s}{op:16s}{cell['charged']:>9d}"
                f"{cell['free']:>9d}{share:>11.1f}%"
            )
        return "\n".join(lines)


def _row_from_touches(structure: str, op: str, touch: Mapping) -> OpCost:
    return OpCost(
        structure,
        op,
        phase_of(op),
        operations=int(touch.get("operations", 0)),
        data_reads=int(touch.get("data_reads", 0)),
        data_writes=int(touch.get("data_writes", 0)),
        dir_reads=int(touch.get("dir_reads", 0)),
        dir_writes=int(touch.get("dir_writes", 0)),
        free=int(touch.get("free", 0)),
    )


# -- CLI --------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.profile",
        description="Cost-attribution profile of a saved run report.",
    )
    parser.add_argument("report", metavar="REPORT.json")
    parser.add_argument("--format", choices=("text", "markdown"), default="text")
    parser.add_argument(
        "--heatmap",
        action="store_true",
        help="show the counted-vs-uncounted page-touch table too",
    )
    parser.add_argument(
        "--speedscope",
        metavar="OUT.json",
        default=None,
        help="write a speedscope profile (flamegraph at speedscope.app)",
    )
    parser.add_argument(
        "--collapsed",
        metavar="OUT.txt",
        default=None,
        help="write Brendan Gregg collapsed-stack lines (for flamegraph.pl)",
    )
    parser.add_argument(
        "--unit",
        choices=("accesses", "wall"),
        default="accesses",
        help="flamegraph weight: charged disk accesses or wall nanoseconds",
    )
    args = parser.parse_args(argv)

    from repro.obs.export import (
        RunReport,
        profile_to_collapsed,
        profile_to_speedscope,
    )

    try:
        report = RunReport.load(args.report)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attribution = CostAttribution.from_report(report)
    print(attribution.render(args.format))
    if args.heatmap:
        print()
        print(attribution.render_heatmap(args.format))
    if args.speedscope:
        doc = profile_to_speedscope(
            attribution, name=report.label, unit=args.unit
        )
        Path(args.speedscope).write_text(
            json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8"
        )
        print(f"wrote speedscope profile -> {args.speedscope}")
    if args.collapsed:
        Path(args.collapsed).write_text(
            profile_to_collapsed(attribution, unit=args.unit), encoding="utf-8"
        )
        print(f"wrote collapsed stacks -> {args.collapsed}")
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # Piped into head & co. — close stdout quietly instead of a traceback.
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        raise SystemExit(1)
