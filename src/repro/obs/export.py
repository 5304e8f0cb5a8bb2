"""Exporters: run reports and table rendering.

A :class:`RunReport` is the machine-readable counterpart of the
``results/*.txt`` tables — one JSON document per benchmark run holding,
for every structure, the build metrics, per-operation access
histograms with exact percentiles, wall-clock timings and the final
:class:`~repro.core.stats.AccessStats` totals of the structure's page
store.  Reports are self-describing via ``schema`` =
:data:`RUN_REPORT_SCHEMA`; :func:`validate_run_report` checks the shape
without any third-party schema library.

Report layout (v1)::

    {
      "schema": "repro.obs/run-report/v1",
      "label":  "PAM uniform",
      "kind":   "pam" | "sam",
      "scale":  10000,            # records in the data file
      "page_size": 512,
      "seed":   101,
      "meta":   {...},            # free-form
      "structures": {
        "GRID": {
          "build":   {"metrics": {...BuildMetrics...},
                      "accesses_per_insert": {...histogram...},
                      "seconds": 1.23},
          "queries": {"range_1%": {"accesses": {...histogram...},
                                   "results": 57, "seconds": 0.45}, ...},
          "totals":  {...AccessStats...}   # whole build+query run
        }, ...
      }
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro.core.stats import AccessStats
from repro.obs.metrics import SUMMARY_KEYS, Histogram
from repro.obs.tracer import BUILD_OPS, Span

__all__ = [
    "RUN_REPORT_SCHEMA",
    "RunReport",
    "build_run_report",
    "summarise_spans",
    "summarise_touches",
    "validate_run_report",
]

#: Schema identifier embedded in every report.
RUN_REPORT_SCHEMA = "repro.obs/run-report/v1"


def summarise_spans(spans: Iterable[Span]) -> dict[str, dict[str, Histogram]]:
    """Histogram of charged accesses per operation: structure -> op -> h."""
    out: dict[str, dict[str, Histogram]] = {}
    for span in spans:
        per_op = out.setdefault(span.structure, {})
        hist = per_op.get(span.op)
        if hist is None:
            hist = per_op[span.op] = Histogram(
                f"{span.structure}/{span.op}/accesses"
            )
        hist.observe(span.accesses)
    return out


def summarise_touches(spans: Iterable[Span]) -> dict[str, dict[str, dict]]:
    """Exact per-operation touch counters: structure -> op -> summary.

    Each summary carries the four charged counters, their sum
    (``charged``), the free (uncharged) touch count and the number of
    operations.  These land in the report as ``build.ops`` and
    ``queries[*].touches``, and :meth:`RunReport.render` prints the
    ``charged`` / ``free`` pair beside each operation's histogram.
    """
    out: dict[str, dict[str, dict]] = {}
    for span in spans:
        per_op = out.setdefault(span.structure, {})
        cell = per_op.get(span.op)
        if cell is None:
            cell = per_op[span.op] = {
                "operations": 0,
                "data_reads": 0,
                "data_writes": 0,
                "dir_reads": 0,
                "dir_writes": 0,
                "charged": 0,
                "free": 0,
            }
        cell["operations"] += 1
        cell["data_reads"] += span.data_reads
        cell["data_writes"] += span.data_writes
        cell["dir_reads"] += span.dir_reads
        cell["dir_writes"] += span.dir_writes
        cell["charged"] += span.accesses
        cell["free"] += span.free_accesses
    return out


@dataclass
class RunReport:
    """A structured, versioned record of one benchmark run."""

    label: str
    kind: str
    scale: int
    page_size: int
    seed: int | None
    structures: dict[str, dict]
    meta: dict = field(default_factory=dict)
    schema: str = RUN_REPORT_SCHEMA

    # -- (de)serialisation -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "label": self.label,
            "kind": self.kind,
            "scale": self.scale,
            "page_size": self.page_size,
            "seed": self.seed,
            "meta": self.meta,
            "structures": self.structures,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunReport":
        problems = validate_run_report(data)
        if problems:
            raise ValueError("invalid run report: " + "; ".join(problems))
        return cls(
            label=data["label"],
            kind=data["kind"],
            scale=data["scale"],
            page_size=data["page_size"],
            seed=data.get("seed"),
            structures=data["structures"],
            meta=data.get("meta", {}),
            schema=data["schema"],
        )

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "RunReport":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    # -- convenience accessors --------------------------------------------

    def totals(self, structure: str) -> AccessStats:
        """The structure's final page-store counters, as AccessStats."""
        t = self.structures[structure]["totals"]
        return AccessStats(
            t["data_reads"], t["data_writes"], t["dir_reads"], t["dir_writes"]
        )

    def query_labels(self, structure: str) -> list[str]:
        return list(self.structures[structure].get("queries", {}))

    def access_totals(self) -> dict[str, dict[str, int]]:
        """Per-structure exact access counters, for cross-run comparison.

        Two runs of the same experiment — in one process or two, traced
        or not — must agree on this projection exactly; it deliberately
        excludes the wall-clock timers that legitimately differ.
        """
        return {
            name: {key: entry["totals"][key] for key in _STATS_KEYS}
            for name, entry in self.structures.items()
        }

    def redundancy_metrics(self) -> dict[str, dict]:
        """Per-structure redundancy metrics from structure snapshots.

        Structures recorded before snapshots existed (pre-v6 reports)
        are simply absent from the result.
        """
        out: dict[str, dict] = {}
        for name, entry in self.structures.items():
            snap = entry.get("snapshot")
            if isinstance(snap, Mapping) and isinstance(
                snap.get("redundancy"), Mapping
            ):
                out[name] = dict(snap["redundancy"])
        return out

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Human-readable summary: one block per structure, with its
        redundancy, storage and per-op cost rows (charged and free page
        touches, results and wall seconds)."""
        lines = [
            f"run report: {self.label} ({self.kind}, {self.scale} records, "
            f"{self.page_size} B pages, schema {self.schema})"
        ]
        for name, entry in self.structures.items():
            lines.append("")
            totals = entry.get("totals", {})
            total = sum(totals.values()) if totals else 0
            lines.append(f"{name} — {total} total page accesses")
            red = (entry.get("snapshot") or {}).get("redundancy")
            if isinstance(red, Mapping):
                lines.append(
                    "  redundancy "
                    f"dup={red.get('duplication_factor', 0.0):.3f}  "
                    f"overlap={red.get('overlap_volume', 0.0):.4f}  "
                    f"dead={red.get('dead_space', 0.0):.4f}  "
                    f"coverage={red.get('coverage', 0.0):.4f}  "
                    f"util={red.get('utilisation', 0.0):.3f}"
                )
            st = entry.get("storage")
            if isinstance(st, Mapping):
                pool = st.get("pool", {})
                pagefile = st.get("pagefile", {})
                wal = st.get("wal", {})
                lines.append(
                    "  storage "
                    f"{st.get('backend', '?')}  "
                    f"hit_rate={pool.get('hit_rate', 0.0):.4f}  "
                    f"evictions={pool.get('evictions', 0)}  "
                    f"reads={pagefile.get('reads', 0)}  "
                    f"writes={pagefile.get('writes', 0)}  "
                    f"wal_bytes={wal.get('bytes', 0)}  "
                    f"commits={st.get('commits', 0)}  "
                    f"wa={st.get('write_amplification', 0.0):.2f}"
                )
                fsync = (st.get("latency") or {}).get("storage.io.fsync_seconds")
                if isinstance(fsync, Mapping) and fsync.get("count"):
                    lines.append(
                        "  fsync   "
                        f"count={fsync['count']}  "
                        f"p50={fsync['p50'] * 1e3:.3f}ms  "
                        f"p99={fsync['p99'] * 1e3:.3f}ms  "
                        f"max={fsync['max'] * 1e3:.3f}ms"
                    )
            build = entry.get("build", {})
            hist = build.get("accesses_per_insert")
            if hist:
                lines.append(
                    "  build   "
                    + _histogram_row(
                        "insert", hist, build.get("ops", {}).get("insert")
                    )
                    + f"{'-':>9s}{build.get('seconds', 0.0):>10.3f}s"
                )
            queries = entry.get("queries", {})
            if queries:
                lines.append(
                    f"  queries {'op':14s}{'ops':>7s}{'mean':>9s}"
                    f"{'p50':>7s}{'p90':>7s}{'p99':>7s}{'max':>7s}"
                    f"{'charged':>10s}{'free':>9s}{'results':>9s}"
                    f"{'seconds':>11s}"
                )
            for label, q in queries.items():
                lines.append(
                    "          "
                    + _histogram_row(label, q["accesses"], q.get("touches"))
                    + f"{q.get('results', 0):>9d}"
                    + f"{q.get('seconds', 0.0):>10.3f}s"
                )
        return "\n".join(lines)


def _touch_pair(touch: Mapping | None) -> tuple[object, object]:
    """``(charged, free)`` page touches of one per-op summary.

    Reports written before touch summaries existed render ``-``.
    """
    if not isinstance(touch, Mapping):
        return "-", "-"
    return touch.get("charged", "-"), touch.get("free", "-")


def _histogram_row(label: str, hist: Mapping, touch: Mapping | None) -> str:
    charged, free = _touch_pair(touch)
    return (
        f"{label:14s}{hist['count']:>7d}{hist['mean']:>9.2f}"
        f"{hist['p50']:>7.0f}{hist['p90']:>7.0f}{hist['p99']:>7.0f}"
        f"{hist['max']:>7.0f}{charged:>10}{free:>9}"
    )


# -- report assembly -------------------------------------------------------

_STATS_KEYS = ("data_reads", "data_writes", "dir_reads", "dir_writes")
_HIST_KEYS = (*SUMMARY_KEYS, "buckets")


def build_run_report(
    *,
    label: str,
    kind: str,
    scale: int,
    page_size: int,
    seed: int | None,
    results: Mapping[str, "object"],
    totals: Mapping[str, AccessStats],
    spans: Iterable[Span],
    timers: Mapping[str, float] | None = None,
    meta: Mapping | None = None,
    storage: Mapping[str, Mapping] | None = None,
) -> RunReport:
    """Assemble a :class:`RunReport` from an experiment's artefacts.

    ``results`` maps structure name to
    :class:`~repro.core.comparison.MethodResult`; ``totals`` maps it to
    the structure's final store counters (use ``store.stats.snapshot()``,
    or a delta when several structures share one store); ``timers`` maps
    ``"<structure>/build"`` / ``"<structure>/queries"`` to seconds.  A
    query file's ``seconds`` is the result's ``query_seconds`` entry for
    it; a result without one gets the structure's query time split evenly
    over its files.

    Results carrying a structure ``snapshot`` (occupancy / depth /
    redundancy, see :mod:`repro.obs.structure`) contribute it as the
    structure entry's additive ``snapshot`` field; pre-snapshot results
    simply omit it, keeping old and new reports inter-readable.

    ``storage`` maps structure name to the physical-IO counters of a
    durable backend (``store.io_stats()``: pool hit rate, WAL bytes,
    page-file reads/writes).  It lands as the structure entry's
    additive ``storage`` field; simulated-backend runs omit it, and the
    charged ``totals`` are always the simulated-identical counters.
    """
    timers = dict(timers or {})
    spans = list(spans)
    histograms = summarise_spans(spans)
    touches = summarise_touches(spans)
    structures: dict[str, dict] = {}
    for name, result in results.items():
        per_op = histograms.get(name, {})
        per_op_touches = touches.get(name, {})
        insert_hist = per_op.get("insert")
        entry: dict = {
            "build": {
                "metrics": result.metrics.as_dict(),
                "seconds": timers.get(f"{name}/build", 0.0),
            },
            "queries": {},
            "totals": totals[name].as_dict(),
        }
        if insert_hist is not None:
            entry["build"]["accesses_per_insert"] = insert_hist.as_dict()
        snapshot = getattr(result, "snapshot", None)
        if snapshot is not None:
            entry["snapshot"] = snapshot
        if storage is not None and name in storage:
            entry["storage"] = dict(storage[name])
        build_ops = {
            op: summary
            for op, summary in per_op_touches.items()
            if op in BUILD_OPS
        }
        if build_ops:
            entry["build"]["ops"] = build_ops
        even_split = timers.get(f"{name}/queries", 0.0) / max(1, len(result.query_costs))
        for q_label, cost in result.query_costs.items():
            hist = per_op.get(q_label)
            if hist is None:
                continue
            entry["queries"][q_label] = {
                "accesses": hist.as_dict(),
                "results": result.query_results.get(q_label, 0),
                "seconds": result.query_seconds.get(q_label, even_split),
                "mean": cost,
            }
            touch = per_op_touches.get(q_label)
            if touch is not None:
                entry["queries"][q_label]["touches"] = touch
        structures[name] = entry
    return RunReport(
        label=label,
        kind=kind,
        scale=scale,
        page_size=page_size,
        seed=seed,
        structures=structures,
        meta=dict(meta or {}),
    )


# -- validation ------------------------------------------------------------


def validate_run_report(data: Mapping) -> list[str]:
    """Shape-check a run-report dict; returns problems ([] when valid)."""
    problems: list[str] = []
    if not isinstance(data, Mapping):
        return ["report is not a JSON object"]
    if data.get("schema") != RUN_REPORT_SCHEMA:
        problems.append(
            f"schema is {data.get('schema')!r}, expected {RUN_REPORT_SCHEMA!r}"
        )
    for key, types in (
        ("label", str),
        ("kind", str),
        ("scale", int),
        ("page_size", int),
    ):
        if not isinstance(data.get(key), types):
            problems.append(f"missing or mistyped field {key!r}")
    if not isinstance(data.get("structures"), Mapping):
        problems.append("missing or mistyped field 'structures'")
        return problems
    for name, entry in data["structures"].items():
        where = f"structures[{name!r}]"
        if not isinstance(entry, Mapping):
            problems.append(f"{where} is not an object")
            continue
        totals = entry.get("totals")
        if not isinstance(totals, Mapping) or any(
            not isinstance(totals.get(k), int) for k in _STATS_KEYS
        ):
            problems.append(f"{where}.totals must carry integer {_STATS_KEYS}")
        snapshot = entry.get("snapshot")
        if snapshot is not None:
            from repro.obs.structure import validate_snapshot

            problems.extend(
                f"{where}.snapshot: {p}" for p in validate_snapshot(snapshot)
            )
        storage = entry.get("storage")
        if storage is not None:
            if not isinstance(storage, Mapping):
                problems.append(f"{where}.storage is not an object")
            else:
                from repro.obs.telemetry import validate_io_stats

                problems.extend(
                    f"{where}.storage: {p}" for p in validate_io_stats(storage)
                )
        build = entry.get("build")
        if not isinstance(build, Mapping) or not isinstance(
            build.get("metrics"), Mapping
        ):
            problems.append(f"{where}.build.metrics missing")
        queries = entry.get("queries", {})
        if not isinstance(queries, Mapping):
            problems.append(f"{where}.queries is not an object")
            continue
        for q_label, q in queries.items():
            accesses = q.get("accesses") if isinstance(q, Mapping) else None
            if not isinstance(accesses, Mapping) or any(
                k not in accesses for k in _HIST_KEYS
            ):
                problems.append(
                    f"{where}.queries[{q_label!r}].accesses is not a histogram"
                )
    return problems
