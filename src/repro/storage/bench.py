"""``python -m repro.storage.bench`` — larger-than-pool durable-backend bench.

Builds representative structures at a scale whose page count dwarfs the
buffer pool (default: the pool holds 10% of the final page count), runs
the full §3/§7 query workload on both backends, and

* verifies the durable backend is **bit-identical** to the simulated
  store — same per-query disk-access counts, same per-query results,
  same total :class:`~repro.core.stats.AccessStats`;
* reports wall-clock build/query times for both, plus the physical-IO
  profile of the disk run (pool hit rate, evictions, WAL bytes, page
  file reads/writes);
* writes ``results/BENCH_STORAGE.json``;
* with ``--telemetry`` (or ``REPRO_TELEMETRY=1``), runs the whole bench
  under a :mod:`repro.obs.telemetry` flight recorder: the disk phase's
  per-call IO latencies land in histograms (the ``storage`` block of
  every record then carries fsync/pread/pwrite percentiles), a
  validated timeline JSONL and a Prometheus text export are written
  next to the bench JSON, and any slow operations
  (``REPRO_SLOW_OP_MS``) are saved as their own log.

Usage::

    PYTHONPATH=src python -m repro.storage.bench --scale 20000
    PYTHONPATH=src python -m repro.storage.bench --scale 100000 --pool-frac 0.1
    PYTHONPATH=src python -m repro.storage.bench --scale 20000 --telemetry
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.config import RunConfig
from repro.core.comparison import query_files
from repro.parallel.cache import default_results_root
from repro.query.driver import run_query_file
from repro.storage.factory import make_store
from repro.verify.fuzz import STRUCTURES, _point_pool, _rect_pool

__all__ = ["BENCH_SCHEMA", "DEFAULT_STRUCTURES", "bench_structure", "main"]

BENCH_SCHEMA = "repro.storage/bench/v1"

#: One tree SAM and one hashing PAM: different page populations, both
#: representative of how the comparison driver touches the store.
DEFAULT_STRUCTURES = ("R", "GRID")


def _timed_run(spec: dict, data, store) -> dict:
    """Build on ``store`` and run the paper's query files, timing both.

    ``outcomes`` are the driver's per-query ``(cost, result)`` pairs
    per file and ``totals`` the charged counters — the exact material
    the identity check compares across backends.
    """
    t0 = time.perf_counter()
    method = spec["factory"](store)
    for rid, item in enumerate(data):
        method.insert(item, rid)
    t1 = time.perf_counter()
    outcomes = [
        (label, run_query_file(method, query_kind, queries, operation))
        for label, query_kind, queries, operation in query_files(spec["kind"], method)
    ]
    t2 = time.perf_counter()
    return {
        "seconds": {"build_seconds": t1 - t0, "query_seconds": t2 - t1},
        "outcomes": outcomes,
        "totals": store.stats.as_dict(),
    }


def bench_structure(
    name: str,
    scale: int,
    *,
    seed: int,
    pool_frac: float,
    page_size: int,
    fsync: bool,
    directory: str | None,
) -> dict:
    """One sim-vs-disk identity-checked timing run; returns the record."""
    spec = STRUCTURES[name]
    data = (
        _point_pool(scale, seed) if spec["kind"] == "pam" else _rect_pool(scale, seed)
    )
    data = data[:scale]

    sim_store = make_store(page_size, backend="sim")
    sim = _timed_run(spec, data, sim_store)
    total_pages = len(sim_store.page_ids())

    pool_pages = max(8, int(total_pages * pool_frac))
    disk_store = make_store(
        page_size,
        backend="disk",
        directory=directory,
        pool_pages=pool_pages,
        fsync=fsync,
    )
    disk = _timed_run(spec, data, disk_store)
    io = disk_store.io_stats()
    disk_store.close()

    return {
        "structure": name,
        "kind": spec["kind"],
        "scale": len(data),
        "page_size": page_size,
        "pages": total_pages,
        "pool_pages": pool_pages,
        "fsync": fsync,
        "identical": sim["totals"] == disk["totals"]
        and sim["outcomes"] == disk["outcomes"],
        "totals": disk["totals"],
        "sim": sim["seconds"],
        "disk": disk["seconds"],
        "storage": io,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.storage.bench",
        description="Larger-than-pool durable-backend identity + timing bench.",
    )
    parser.add_argument("--scale", type=int, default=20000, help="records")
    parser.add_argument("--seed", type=int, default=7, help="data seed")
    parser.add_argument(
        "--pool-frac",
        type=float,
        default=0.1,
        help="buffer pool budget as a fraction of the built page count",
    )
    parser.add_argument("--page-size", type=int, default=512)
    parser.add_argument(
        "--structures",
        default=",".join(DEFAULT_STRUCTURES),
        help="comma-separated fuzz-matrix structure names",
    )
    parser.add_argument(
        "--fsync",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="fsync WAL commits (--no-fsync measures pure CPU/pool cost)",
    )
    parser.add_argument(
        "--store-dir", default=None, help="keep store files here (default: tmp)"
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: results/BENCH_STORAGE.json)",
    )
    parser.add_argument(
        "--telemetry",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="record IO latency histograms + a flight-recorder timeline "
        "(default: REPRO_TELEMETRY)",
    )
    parser.add_argument(
        "--timeline",
        default=None,
        help="timeline JSONL path (default: results/TELEMETRY_STORAGE.jsonl)",
    )
    parser.add_argument(
        "--prometheus",
        default=None,
        help="Prometheus text export path "
        "(default: results/METRICS_STORAGE.prom)",
    )
    parser.add_argument(
        "--slow-ops",
        default=None,
        help="slow-operation log path "
        "(default: results/SLOW_OPS_STORAGE.jsonl, written when non-empty)",
    )
    parser.add_argument(
        "--sample-interval",
        type=float,
        default=0.25,
        help="flight-recorder sampling interval in seconds",
    )
    args = parser.parse_args(argv)

    names = [n.strip() for n in args.structures.split(",") if n.strip()]
    unknown = [n for n in names if n not in STRUCTURES]
    if unknown:
        parser.error(f"unknown structures {unknown}; choose from {sorted(STRUCTURES)}")

    config = RunConfig.from_env()
    telemetry_on = config.telemetry if args.telemetry is None else args.telemetry
    telem = flight = None
    if telemetry_on:
        from repro.obs.telemetry import FlightRecorder, Telemetry, set_telemetry

        telem = Telemetry(label="storage-bench", slow_op_ms=config.slow_op_ms)
        set_telemetry(telem)  # make_store attaches it to every disk store
        timeline_path = (
            Path(args.timeline)
            if args.timeline
            else default_results_root() / "TELEMETRY_STORAGE.jsonl"
        )
        flight = FlightRecorder(
            telem,
            timeline_path,
            interval_seconds=args.sample_interval,
            label="storage-bench",
        ).start()

    records = []
    failures = 0
    for name in names:
        record = bench_structure(
            name,
            args.scale,
            seed=args.seed,
            pool_frac=args.pool_frac,
            page_size=args.page_size,
            fsync=args.fsync,
            directory=args.store_dir,
        )
        records.append(record)
        pool = record["storage"]["pool"]
        flag = "ok " if record["identical"] else "DIVERGED"
        print(
            f"{name:8s} {flag} scale={record['scale']} pages={record['pages']} "
            f"pool={record['pool_pages']} hit_rate={pool['hit_rate']:.3f} "
            f"build {record['sim']['build_seconds']:.2f}s sim / "
            f"{record['disk']['build_seconds']:.2f}s disk, "
            f"queries {record['sim']['query_seconds']:.2f}s sim / "
            f"{record['disk']['query_seconds']:.2f}s disk"
        )
        if not record["identical"]:
            failures += 1

    payload = {
        "schema": BENCH_SCHEMA,
        "scale": args.scale,
        "page_size": args.page_size,
        "pool_frac": args.pool_frac,
        "seed": args.seed,
        "structures": records,
    }
    out = Path(args.out or default_results_root() / "BENCH_STORAGE.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")

    if flight is not None:
        from repro.obs.telemetry import (
            set_telemetry,
            validate_timeline,
            write_prometheus,
        )

        flight.stop()
        problems = validate_timeline(flight.path)
        if problems:
            failures += 1
            print(f"timeline {flight.path} INVALID: {'; '.join(problems)}")
        else:
            print(
                f"wrote {flight.path} ({flight.samples_written} samples, OK)"
            )
        prom = write_prometheus(
            telem,
            Path(args.prometheus)
            if args.prometheus
            else default_results_root() / "METRICS_STORAGE.prom",
        )
        print(f"wrote {prom}")
        if telem.slow_ops or args.slow_ops:
            slow = telem.save_slow_ops(
                Path(args.slow_ops)
                if args.slow_ops
                else default_results_root() / "SLOW_OPS_STORAGE.jsonl"
            )
            print(f"wrote {slow} ({len(telem.slow_ops)} slow ops)")
        fsync_summary = telem.latency_summaries().get("storage.io.fsync_seconds")
        if fsync_summary and fsync_summary["count"]:
            print(
                f"fsync    count={fsync_summary['count']} "
                f"p50={fsync_summary['p50'] * 1e3:.3f}ms "
                f"p99={fsync_summary['p99'] * 1e3:.3f}ms "
                f"max={fsync_summary['max'] * 1e3:.3f}ms"
            )
        set_telemetry(None)

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
