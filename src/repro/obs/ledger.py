"""The performance ledger: ``results/LEDGER.jsonl`` and its CLI.

Every bench produces a one-shot JSON artefact; the **ledger** is the
append-only history that strings those one-shots into a trajectory.
One line per run (schema :data:`LEDGER_SCHEMA`), each carrying

* a **fingerprint** — git commit, a hash over every ``repro`` source
  file (the build cache's :func:`~repro.parallel.cache.code_fingerprint`),
  page size, scale, seed and worker count — so runs are only ever
  compared against runs of the same code and configuration;
* **metrics** — an arbitrary nesting of numeric leaves; wall-clock
  costs end in ``_seconds`` and are the leaves the regression gate
  evaluates (lower is better);
* optional per-structure **access totals** (deterministic under a fixed
  fingerprint, so any drift is flagged as a correctness problem, not a
  perf regression) and references to the run's RunReport files.

Records are written with ``O_APPEND`` as single ``write(2)`` calls, so
parallel workers and interrupted runs can never interleave or tear a
committed line; a truncated trailing line from a crashed process is
skipped and reported on the next read.

CLI::

    python -m repro.obs.ledger record results/BENCH_PARALLEL.json
    python -m repro.obs.ledger log [--limit N] [--format markdown]
    python -m repro.obs.ledger baseline set <run> | baseline show
    python -m repro.obs.ledger compare <run> <run> [--format markdown]
    python -m repro.obs.ledger gate [--max-regression PCT] [--window N]

``gate`` is noise-aware: the candidate (latest run by default) is
compared against the **median** of the last ``--window`` runs with the
same fingerprint — never across differing fingerprints — or against
the pinned per-fingerprint baseline when one is set.  ``record
--inflate 2`` multiplies every ``*_seconds`` leaf, which is how CI
verifies the gate actually fails on a synthetic 2x slowdown.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro.config import RunConfig, parse_location

__all__ = [
    "LEDGER_SCHEMA",
    "FingerprintMismatch",
    "Ledger",
    "LedgerEntry",
    "GateResult",
    "collect_fingerprint",
    "fingerprint_digest",
    "flatten_metrics",
    "compare_entries",
    "gate_run",
    "format_metric_rows",
    "entry_from_run_report",
    "entry_from_timers",
    "entry_from_bench_document",
    "storage_io_totals",
    "storage_latency_leaves",
    "default_ledger_path",
    "resolve_ledger",
    "main",
]

#: Schema identifier embedded in every ledger line.
LEDGER_SCHEMA = "repro.obs/ledger/v1"

#: Gate-relevant metric leaves: wall-clock costs, lower is better.
GATED_SUFFIX = "_seconds"


class FingerprintMismatch(ValueError):
    """Raised when asked to compare runs with differing fingerprints."""


def default_ledger_path() -> Path:
    """``<repo>/results/LEDGER.jsonl`` (or ``./results`` outside one)."""
    from repro.parallel.cache import default_results_root

    return default_results_root() / "LEDGER.jsonl"


def _git_commit() -> str:
    """The checkout's HEAD commit, or ``"unknown"`` outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else "unknown"


def collect_fingerprint(
    *,
    page_size: int,
    scale: int,
    seed: int | None = None,
    workers: int = 1,
    commit: str | None = None,
    code: str | None = None,
    storage: Mapping | None = None,
) -> dict:
    """Everything a run's performance legitimately depends on.

    ``code`` reuses the build cache's source fingerprint, so any edit
    anywhere in the package separates histories automatically.

    ``storage`` describes a durable backend (at least ``backend``,
    typically also the pool budget and fsync mode): a disk run must
    never gate against a sim run's timings.  The key is **added only
    when given**, so simulated runs share one dict shape.
    """
    if code is None:
        from repro.parallel.cache import code_fingerprint

        code = code_fingerprint()
    fingerprint = {
        "git_commit": commit if commit is not None else _git_commit(),
        "code": code,
        "page_size": page_size,
        "scale": scale,
        "seed": seed,
        "workers": workers,
    }
    if storage is not None:
        fingerprint["storage"] = dict(storage)
    return fingerprint


def fingerprint_digest(fingerprint: Mapping) -> str:
    """Short stable digest of a fingerprint dict (key order agnostic)."""
    canonical = json.dumps(dict(fingerprint), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass
class LedgerEntry:
    """One recorded run — a single line of the ledger."""

    label: str
    source: str
    fingerprint: dict
    metrics: dict
    totals: dict | None = None
    reports: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    timestamp: str = ""
    run_id: str = ""
    schema: str = LEDGER_SCHEMA

    def __post_init__(self):
        if not self.timestamp:
            self.timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    @property
    def digest(self) -> str:
        return fingerprint_digest(self.fingerprint)

    @property
    def total_seconds(self) -> float | None:
        value = self.metrics.get("total_seconds")
        return float(value) if isinstance(value, (int, float)) else None

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "run_id": self.run_id,
            "timestamp": self.timestamp,
            "label": self.label,
            "source": self.source,
            "fingerprint": self.fingerprint,
            "fingerprint_digest": self.digest,
            "metrics": self.metrics,
            "totals": self.totals,
            "reports": self.reports,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "LedgerEntry":
        if not isinstance(data, Mapping):
            raise ValueError("ledger entry is not a JSON object")
        if data.get("schema") != LEDGER_SCHEMA:
            raise ValueError(
                f"schema is {data.get('schema')!r}, expected {LEDGER_SCHEMA!r}"
            )
        for key, types in (
            ("label", str),
            ("source", str),
            ("fingerprint", Mapping),
            ("metrics", Mapping),
        ):
            if not isinstance(data.get(key), types):
                raise ValueError(f"missing or mistyped field {key!r}")
        return cls(
            label=data["label"],
            source=data["source"],
            fingerprint=dict(data["fingerprint"]),
            metrics=dict(data["metrics"]),
            totals=dict(data["totals"]) if data.get("totals") else None,
            reports=dict(data.get("reports") or {}),
            meta=dict(data.get("meta") or {}),
            timestamp=data.get("timestamp", ""),
            run_id=data.get("run_id", ""),
        )


class Ledger:
    """Append-only JSONL store of :class:`LedgerEntry` records.

    Appends are single ``O_APPEND`` writes of one newline-terminated
    line, so concurrent writers sharing the file never interleave and
    an interrupted writer can at worst leave a truncated *trailing*
    line — which :meth:`read` skips and reports instead of failing.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else default_ledger_path()

    # -- writing -----------------------------------------------------------

    def record(self, entry: LedgerEntry) -> LedgerEntry:
        """Append ``entry`` (assigning its ``run_id``) and return it."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not entry.run_id:
            payload = entry.to_dict()
            payload.pop("run_id")
            material = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            nonce = f"#{os.getpid()}#{self._line_count()}"
            entry.run_id = hashlib.sha256(
                (material + nonce).encode()
            ).hexdigest()[:12]
        line = json.dumps(entry.to_dict(), sort_keys=True, separators=(",", ":"))
        if "\n" in line:  # pragma: no cover - json never emits raw newlines
            raise ValueError("ledger records must be single lines")
        fd = os.open(
            self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        try:
            os.write(fd, (line + "\n").encode("utf-8"))
        finally:
            os.close(fd)
        return entry

    def _line_count(self) -> int:
        try:
            with self.path.open("rb") as fh:
                return sum(1 for _ in fh)
        except OSError:
            return 0

    # -- reading -----------------------------------------------------------

    def read(self) -> tuple[list[LedgerEntry], list[str]]:
        """All well-formed entries plus a report of skipped lines.

        Malformed lines — torn trailing writes from a killed process,
        manual edits — never poison the history: they are skipped and
        described in the returned problem list.
        """
        entries: list[LedgerEntry] = []
        problems: list[str] = []
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return entries, problems
        for lineno, raw in enumerate(text.splitlines(), 1):
            if not raw.strip():
                continue
            try:
                entries.append(LedgerEntry.from_dict(json.loads(raw)))
            except (json.JSONDecodeError, ValueError) as exc:
                problems.append(f"line {lineno}: {exc}")
        return entries, problems

    def entries(self) -> list[LedgerEntry]:
        return self.read()[0]

    def get(self, run_id: str) -> LedgerEntry:
        """The entry with ``run_id`` (unambiguous prefixes accepted)."""
        matches = [
            e for e in self.entries() if e.run_id == run_id
        ] or [e for e in self.entries() if e.run_id.startswith(run_id)]
        if not matches:
            raise KeyError(f"no ledger entry with run id {run_id!r}")
        if len({e.run_id for e in matches}) > 1:
            raise KeyError(f"run id prefix {run_id!r} is ambiguous")
        return matches[-1]

    # -- baselines ---------------------------------------------------------

    @property
    def baseline_path(self) -> Path:
        return self.path.with_name(f"{self.path.stem}_BASELINE.json")

    def baselines(self) -> dict:
        """Per-fingerprint pinned baselines: digest -> {run, label, ...}."""
        try:
            return json.loads(self.baseline_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return {}

    def set_baseline(self, run_id: str) -> LedgerEntry:
        """Pin ``run_id`` as the gate baseline for its fingerprint."""
        entry = self.get(run_id)
        data = self.baselines()
        data[entry.digest] = {
            "run": entry.run_id,
            "label": entry.label,
            "timestamp": entry.timestamp,
        }
        tmp = self.baseline_path.with_name(
            f"{self.baseline_path.name}.tmp{os.getpid()}"
        )
        tmp.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
        os.replace(tmp, self.baseline_path)
        return entry


# -- argument resolution ---------------------------------------------------


def resolve_ledger(value) -> Ledger | None:
    """Normalise a ledger argument: instance, path, bool or switch string.

    ``None`` / ``False`` disable recording, ``True`` uses the default
    path, a path is the ledger file; a string (``--ledger 1/0/path``)
    is read in the ``REPRO_LEDGER`` vocabulary first.
    """
    if isinstance(value, Ledger):
        return value
    if isinstance(value, str):
        value = parse_location(value)
    if value is True:
        return Ledger()
    return Ledger(value) if value else None


# -- metric comparison ------------------------------------------------------


def flatten_metrics(metrics: Mapping, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a nested metrics dict as ``a/b/c`` paths."""
    out: dict[str, float] = {}
    for key in sorted(metrics):
        value = metrics[key]
        path = f"{prefix}{key}"
        if isinstance(value, Mapping):
            out.update(flatten_metrics(value, f"{path}/"))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[path] = float(value)
    return out


def compare_entries(old: LedgerEntry, new: LedgerEntry) -> list[dict]:
    """Shared-metric deltas between two runs of the same fingerprint.

    Raises :class:`FingerprintMismatch` when the runs differ in commit,
    code, or configuration — cross-fingerprint deltas are meaningless
    and the ledger refuses to print them as if they weren't.
    """
    if old.digest != new.digest:
        differing = sorted(
            key
            for key in {*old.fingerprint, *new.fingerprint}
            if old.fingerprint.get(key) != new.fingerprint.get(key)
        )
        raise FingerprintMismatch(
            f"refusing to compare {old.run_id} and {new.run_id}: "
            f"fingerprints differ in {', '.join(differing) or 'shape'}"
        )
    old_flat = flatten_metrics(old.metrics)
    rows = []
    for key, value in flatten_metrics(new.metrics).items():
        if key not in old_flat:
            continue
        reference = old_flat[key]
        delta = 100.0 * (value - reference) / reference if reference else 0.0
        rows.append(
            {"metric": key, "old": reference, "new": value, "delta_pct": delta}
        )
    return rows


def format_metric_rows(
    rows: Sequence[Mapping],
    threshold: float | None = None,
    fmt: str = "text",
) -> str:
    """Render comparison/gate rows as a text or markdown table."""
    gated = lambda row: (  # noqa: E731 - tiny local predicate
        threshold is not None
        and row["metric"].endswith(GATED_SUFFIX)
        and row["delta_pct"] > threshold
    )
    if fmt == "markdown":
        lines = [
            "| metric | old | new | delta |",
            "| --- | ---: | ---: | ---: |",
        ]
        for row in rows:
            flag = " **REGRESSION**" if gated(row) else ""
            lines.append(
                f"| `{row['metric']}` | {row['old']:.6g} | {row['new']:.6g} "
                f"| {row['delta_pct']:+.1f}%{flag} |"
            )
        return "\n".join(lines)
    lines = [f"{'metric':44s}{'old':>12s}{'new':>12s}{'delta':>9s}"]
    for row in rows:
        flag = "  REGRESSION" if gated(row) else ""
        lines.append(
            f"{row['metric']:44s}{row['old']:>12.6g}{row['new']:>12.6g}"
            f"{row['delta_pct']:>+8.1f}%{flag}"
        )
    return "\n".join(lines)


# -- the gate ---------------------------------------------------------------


@dataclass
class GateResult:
    """Outcome of one gate evaluation."""

    ok: bool
    notes: list[str] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def gate_run(
    ledger: Ledger,
    *,
    run_id: str | None = None,
    max_regression: float = 25.0,
    window: int = 5,
) -> GateResult:
    """Gate a run against its own fingerprint's history.

    The candidate (``run_id`` or the latest entry) is compared against
    the pinned baseline for its fingerprint if one exists, otherwise
    against the per-metric **median** of the last ``window`` runs with
    the identical fingerprint recorded before it.  Only ``*_seconds``
    leaves gate (wall-clock cost, lower is better); a run whose access
    totals drift from the reference fails outright regardless of
    ``max_regression``, because those are deterministic under a fixed
    fingerprint.
    """
    entries, problems = ledger.read()
    result = GateResult(ok=True)
    result.notes.extend(f"skipped malformed {p}" for p in problems)
    if not entries:
        result.ok = False
        result.failures.append(f"ledger {ledger.path} has no readable entries")
        return result
    if run_id is None:
        candidate = entries[-1]
        index = len(entries) - 1
    else:
        candidate = ledger.get(run_id)
        index = max(i for i, e in enumerate(entries) if e.run_id == candidate.run_id)
    history = [e for e in entries[:index] if e.digest == candidate.digest]

    baseline = ledger.baselines().get(candidate.digest)
    reference: list[LedgerEntry]
    if baseline:
        try:
            reference = [ledger.get(baseline["run"])]
            result.notes.append(f"reference: pinned baseline {baseline['run']}")
        except KeyError:
            result.notes.append(
                f"pinned baseline {baseline['run']} missing; using history"
            )
            reference = history[-window:]
    else:
        reference = history[-window:]
    if not reference:
        result.notes.append(
            f"no prior runs with fingerprint {candidate.digest}; nothing to gate"
        )
        return result
    if not baseline:
        result.notes.append(
            f"reference: median of {len(reference)} same-fingerprint run(s)"
        )

    flat_reference = [flatten_metrics(e.metrics) for e in reference]
    for key, value in flatten_metrics(candidate.metrics).items():
        samples = [flat[key] for flat in flat_reference if key in flat]
        if not samples:
            continue
        median = statistics.median(samples)
        delta = 100.0 * (value - median) / median if median else 0.0
        result.rows.append(
            {"metric": key, "old": median, "new": value, "delta_pct": delta}
        )
        if key.endswith(GATED_SUFFIX) and delta > max_regression:
            result.failures.append(
                f"{key}: {value:.6g} is {delta:+.1f}% vs median {median:.6g} "
                f"(limit {max_regression:.1f}%)"
            )

    reference_totals = next(
        (e.totals for e in reversed(reference) if e.totals), None
    )
    if candidate.totals and reference_totals and candidate.totals != reference_totals:
        drifted = sorted(
            name
            for name in {*candidate.totals, *reference_totals}
            if candidate.totals.get(name) != reference_totals.get(name)
        )
        result.failures.append(
            "access totals drifted under an identical fingerprint "
            f"({', '.join(drifted)}) — behaviour change, not noise"
        )

    result.ok = not result.failures
    return result


# -- entry builders ---------------------------------------------------------


def storage_io_totals(storage: Mapping) -> dict:
    """The deterministic projection of one ``io_stats()`` document.

    Pool traffic, page-file and WAL counters, commit/checkpoint counts
    and write amplification are pure functions of the workload under a
    fixed fingerprint, so they belong in a ledger entry's ``totals``
    (drift fails the gate outright).  Latency data deliberately stays
    out — it is noise, and gates via ``*_seconds`` metric leaves.
    """
    pool = storage.get("pool", {})
    return {
        "backend": storage.get("backend"),
        "pool_hits": pool.get("hits", 0),
        "pool_misses": pool.get("misses", 0),
        "evictions": pool.get("evictions", 0),
        "hit_rate": pool.get("hit_rate", 0.0),
        "pagefile_reads": storage.get("pagefile", {}).get("reads", 0),
        "pagefile_writes": storage.get("pagefile", {}).get("writes", 0),
        "wal_records": storage.get("wal", {}).get("records", 0),
        "wal_bytes": storage.get("wal", {}).get("bytes", 0),
        "commits": storage.get("commits", 0),
        "checkpoints": storage.get("checkpoints", 0),
        "write_amplification": storage.get("write_amplification", 0.0),
    }


def storage_latency_leaves(storage: Mapping) -> dict[str, float]:
    """Gated ``*_seconds`` leaves from an ``io_stats()`` latency block."""
    fsync = (storage.get("latency") or {}).get("storage.io.fsync_seconds")
    if isinstance(fsync, Mapping) and fsync.get("count"):
        return {
            "fsync_p50_seconds": fsync["p50"],
            "fsync_p99_seconds": fsync["p99"],
        }
    return {}


def entry_from_timers(
    *,
    label: str,
    source: str,
    kind: str,
    timers: Mapping[str, float],
    totals: Mapping | None = None,
    page_size: int,
    scale: int,
    seed: int | None,
    workers: int = 1,
    reports: Mapping | None = None,
    meta: Mapping | None = None,
    fingerprint: Mapping | None = None,
    snapshots: Mapping[str, Mapping] | None = None,
    storage: Mapping[str, Mapping] | None = None,
) -> LedgerEntry:
    """Build an entry from ``<structure>/build|queries`` timer seconds.

    ``totals`` maps structure name to an access-stats mapping (or an
    object with ``as_dict``); they ride along so the gate can detect
    behaviour drift, not just slowdowns.

    ``snapshots`` maps structure name to its structure snapshot; each
    snapshot's redundancy metrics fold into that structure's totals, so
    the gate flags redundancy drift under an identical fingerprint
    exactly like an access-count drift (both are deterministic, so any
    change is a behaviour change).

    ``storage`` maps structure name to the durable backend's
    ``io_stats()`` document, which contributes twice: the
    *deterministic* physical-IO counters (:func:`storage_io_totals`)
    fold into the structure's totals — drift under an identical
    fingerprint fails the gate outright — while the *noisy* fsync
    latency percentiles land as ``*_seconds`` metric leaves, gated at
    the usual regression threshold.  Unless ``fingerprint`` is given,
    the collected one additionally grows a ``storage`` key (backend +
    pool budget) so disk runs never gate against sim history.
    """
    structures: dict[str, dict[str, float]] = {}
    for key, seconds in timers.items():
        name, _, phase = key.rpartition("/")
        if not name:
            continue
        metric = "build_seconds" if phase == "build" else "query_seconds"
        structures.setdefault(name, {})[metric] = (
            structures.get(name, {}).get(metric, 0.0) + seconds
        )
    totals_dict = None
    if totals:
        totals_dict = {
            name: stats.as_dict() if hasattr(stats, "as_dict") else dict(stats)
            for name, stats in totals.items()
        }
        for name, snapshot in (snapshots or {}).items():
            if name in totals_dict and isinstance(snapshot.get("redundancy"), Mapping):
                totals_dict[name]["redundancy"] = dict(snapshot["redundancy"])
    storage_fp = None
    for name, io in (storage or {}).items():
        if storage_fp is None:
            storage_fp = {
                "backend": io.get("backend", "disk"),
                "pool": io.get("pool", {}).get("budget"),
            }
        if totals_dict is not None and name in totals_dict:
            totals_dict[name]["storage_io"] = storage_io_totals(io)
        leaves = storage_latency_leaves(io)
        if leaves:
            structures.setdefault(name, {}).update(leaves)
    return LedgerEntry(
        label=label,
        source=source,
        fingerprint=dict(fingerprint)
        if fingerprint is not None
        else collect_fingerprint(
            page_size=page_size,
            scale=scale,
            seed=seed,
            workers=workers,
            storage=storage_fp,
        ),
        metrics={"total_seconds": sum(timers.values()), "structures": structures},
        totals=totals_dict,
        reports=dict(reports or {}),
        meta={"kind": kind, **dict(meta or {})},
    )


def entry_from_run_report(
    report,
    *,
    label: str | None = None,
    source: str = "repro.obs.runner",
    workers: int = 1,
    reports: Mapping | None = None,
    meta: Mapping | None = None,
    fingerprint: Mapping | None = None,
) -> LedgerEntry:
    """Derive a ledger entry from a :class:`~repro.obs.export.RunReport`.

    Each structure entry's ``snapshot`` and ``storage`` blocks fold in
    as described for :func:`entry_from_timers`.
    """
    timers: dict[str, float] = {}
    for name, entry in report.structures.items():
        timers[f"{name}/build"] = entry.get("build", {}).get("seconds", 0.0)
        timers[f"{name}/queries"] = sum(
            q.get("seconds", 0.0) for q in entry.get("queries", {}).values()
        )

    def blocks(key: str) -> dict:
        return {
            name: entry[key]
            for name, entry in report.structures.items()
            if isinstance(entry.get(key), Mapping)
        }

    return entry_from_timers(
        label=label or report.label,
        source=source,
        kind=report.kind,
        timers=timers,
        totals={n: e.get("totals", {}) for n, e in report.structures.items()},
        page_size=report.page_size,
        scale=report.scale,
        seed=report.seed,
        workers=workers,
        reports=reports,
        meta=meta,
        fingerprint=fingerprint,
        snapshots=blocks("snapshot"),
        storage=blocks("storage"),
    )


def _scale_seconds(metrics, factor: float):
    """Multiply every ``*_seconds`` leaf — synthetic-regression helper."""
    if isinstance(metrics, Mapping):
        return {
            key: (
                value * factor
                if key.endswith(GATED_SUFFIX)
                and isinstance(value, (int, float))
                and not isinstance(value, bool)
                else _scale_seconds(value, factor)
            )
            for key, value in metrics.items()
        }
    return metrics


def entry_from_bench_document(
    doc: Mapping,
    *,
    path: str | None = None,
    label: str | None = None,
    inflate: float = 1.0,
) -> LedgerEntry:
    """Build an entry from a bench artefact, dispatching on its schema.

    Understands ``repro.parallel/bench/v1`` (the grid timing bench),
    ``repro.obs/clip-redundancy/v1`` (the clipping redundancy sweep)
    and ``repro.obs/run-report/v1``.  ``inflate`` scales every
    ``*_seconds`` metric — the gate's injected-regression test hook.
    """
    schema = doc.get("schema")
    meta: dict = {"source_schema": schema}
    if path:
        meta["source_path"] = str(path)
    if inflate != 1.0:
        meta["inflate"] = inflate

    if schema == "repro.parallel/bench/v1":
        metrics = {
            "total_seconds": doc["parallel_seconds"],
            "serial_seconds": doc.get("serial_seconds"),
            "parallel_seconds": doc["parallel_seconds"],
            "warm_cache_seconds": doc.get("warm_cache_seconds"),
        }
        metrics = {k: v for k, v in metrics.items() if v is not None}
        meta.update(
            speedup=doc.get("speedup"),
            jobs=doc.get("jobs"),
            verified=doc.get("verified"),
        )
        entry = LedgerEntry(
            label=label or "parallel-bench",
            source="repro.parallel.bench",
            fingerprint=collect_fingerprint(
                page_size=doc["page_size"],
                scale=doc["scale"],
                seed=None,
                workers=doc.get("workers", 1),
            ),
            metrics=metrics,
            meta=meta,
        )
    elif schema == "repro.obs/clip-redundancy/v1":
        from repro.obs.ablation import validate_clip_redundancy

        problems = validate_clip_redundancy(doc)
        if problems:
            raise ValueError(
                "invalid clip-redundancy document: " + "; ".join(problems)
            )
        budgets: dict[str, dict] = {}
        totals: dict[str, dict] = {}
        for row in doc["rows"]:
            key = f"r{row['budget']}"
            budgets[key] = {
                "build_seconds": row["build_seconds"],
                "query_seconds": row["query_seconds"],
                "point_cost": row["point_cost"],
            }
            # Deterministic build shape + redundancy ride in totals, so
            # the gate flags drift under an identical fingerprint.
            totals[key] = {
                "data_pages": row["data_pages"],
                "regions_per_object": row["regions_per_object"],
                "redundancy": dict(row["redundancy"]),
            }
        entry = LedgerEntry(
            label=label or "clip-redundancy-sweep",
            source="benchmarks/bench_ablation_techniques.py",
            fingerprint=collect_fingerprint(
                page_size=doc["page_size"],
                scale=doc["scale"],
                seed=doc.get("seed"),
                workers=1,
            ),
            metrics={
                "total_seconds": sum(
                    b["build_seconds"] + b["query_seconds"]
                    for b in budgets.values()
                ),
                "budgets": budgets,
            },
            totals=totals,
            meta={**meta, "file": doc["file"]},
        )
    elif schema == "repro.obs/run-report/v1":
        from repro.obs.export import RunReport

        entry = entry_from_run_report(
            RunReport.from_dict(doc), label=label, source="repro.obs.report"
        )
        entry.meta.update(meta)
    else:
        raise ValueError(f"unrecognised bench schema {schema!r}")

    if inflate != 1.0:
        entry.metrics = _scale_seconds(entry.metrics, inflate)
    return entry


# -- CLI --------------------------------------------------------------------


def _format_log(
    entries: Sequence[LedgerEntry], fmt: str = "text"
) -> str:
    if fmt == "markdown":
        lines = [
            "| run | when | label | fingerprint | total_s |",
            "| --- | --- | --- | --- | ---: |",
        ]
        for e in entries:
            total = f"{e.total_seconds:.3f}" if e.total_seconds is not None else "-"
            lines.append(
                f"| `{e.run_id}` | {e.timestamp} | {e.label} "
                f"| `{e.digest}` | {total} |"
            )
        return "\n".join(lines)
    lines = [
        f"{'run':14s}{'when':22s}{'label':28s}{'fingerprint':18s}{'total_s':>9s}"
    ]
    for e in entries:
        total = f"{e.total_seconds:.3f}" if e.total_seconds is not None else "-"
        lines.append(
            f"{e.run_id:14s}{e.timestamp:22s}{e.label[:26]:28s}"
            f"{e.digest:18s}{total:>9s}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.ledger",
        description="Record, inspect and gate the performance ledger.",
    )
    parser.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="ledger file (default: REPRO_LEDGER or results/LEDGER.jsonl)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("record", help="append a run derived from a bench JSON")
    p.add_argument("bench", metavar="FILE", help="bench JSON or run report")
    p.add_argument("--label", default=None)
    p.add_argument(
        "--inflate",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="multiply every *_seconds metric (synthetic-regression testing)",
    )

    p = sub.add_parser("log", help="print the recorded trajectory")
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--format", choices=("text", "markdown"), default="text")

    p = sub.add_parser("baseline", help="pin or show per-fingerprint baselines")
    p.add_argument("action", choices=("set", "show"))
    p.add_argument("run", nargs="?", default=None)

    p = sub.add_parser("compare", help="diff two runs of the same fingerprint")
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--format", choices=("text", "markdown"), default="text")

    p = sub.add_parser("gate", help="fail on regressions vs same-fingerprint history")
    p.add_argument("--run", default=None, help="candidate run id (default: latest)")
    p.add_argument("--max-regression", type=float, default=25.0, metavar="PCT")
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--format", choices=("text", "markdown"), default="text")

    args = parser.parse_args(argv)
    ledger = (
        Ledger(args.ledger)
        if args.ledger
        else resolve_ledger(RunConfig.from_env().ledger) or Ledger()
    )

    if args.command == "record":
        try:
            doc = json.loads(Path(args.bench).read_text(encoding="utf-8"))
            entry = entry_from_bench_document(
                doc, path=args.bench, label=args.label, inflate=args.inflate
            )
        except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        ledger.record(entry)
        print(
            f"recorded {entry.run_id} ({entry.label}, fingerprint "
            f"{entry.digest}) -> {ledger.path}"
        )
        return 0

    if args.command == "log":
        entries, problems = ledger.read()
        for problem in problems:
            print(f"warning: skipped malformed {problem}", file=sys.stderr)
        if not entries:
            print(f"ledger {ledger.path} is empty")
            return 0
        print(_format_log(entries[-args.limit :], args.format))
        return 0

    if args.command == "baseline":
        if args.action == "show":
            baselines = ledger.baselines()
            if not baselines:
                print("no baselines pinned")
                return 0
            for digest, info in sorted(baselines.items()):
                print(f"{digest}  {info['run']}  {info.get('label', '')}")
            return 0
        if not args.run:
            parser.error("baseline set needs a run id")
        try:
            entry = ledger.set_baseline(args.run)
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"baseline for {entry.digest} -> {entry.run_id} ({entry.label})")
        return 0

    if args.command == "compare":
        try:
            rows = compare_entries(ledger.get(args.old), ledger.get(args.new))
        except FingerprintMismatch as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(format_metric_rows(rows, fmt=args.format))
        return 0

    # gate
    try:
        result = gate_run(
            ledger,
            run_id=args.run,
            max_regression=args.max_regression,
            window=args.window,
        )
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for note in result.notes:
        print(note)
    if result.rows:
        print(format_metric_rows(result.rows, args.max_regression, args.format))
    for failure in result.failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if result.ok:
        print("gate: OK")
        return 0
    return 2


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # Piped into head & co. — close stdout quietly instead of a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        raise SystemExit(1)
