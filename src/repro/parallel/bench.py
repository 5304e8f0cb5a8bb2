"""``python -m repro.parallel.bench`` — the paper grid, timed end to end.

Runs the complete Part I/II comparison (every point file × the standard
PAMs, every rectangle file × the standard SAMs) twice — once serially
in-process, once fanned out over ``--workers`` processes — verifies the
two passes produced identical tables and access totals, optionally
replays the parallel pass against the now-warm build cache, and records
the wall-clock numbers in ``results/BENCH_PARALLEL.json``::

    PYTHONPATH=src python -m repro.parallel.bench --workers 4 --scale 2000

The emitted JSON (schema ``repro.parallel/bench/v1``) is the repo's
first perf-trajectory artefact: serial seconds, parallel seconds,
speedup, warm-cache seconds and the cache hit counters, plus enough
metadata (scale, page size, cpu count) to compare runs across machines.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro.config import RunConfig
from repro.parallel.cache import BuildCache, default_results_root, resolve_cache
from repro.parallel.jobs import JobSpec, file_specs
from repro.parallel.runner import ExperimentOutcome, merge_outcomes, run_specs

__all__ = ["BENCH_SCHEMA", "build_grid", "compare_outcomes", "main"]

#: Schema identifier of results/BENCH_PARALLEL.json.
BENCH_SCHEMA = "repro.parallel/bench/v1"


def build_grid(
    pam_files: list[str],
    sam_files: list[str],
    scale: int,
    page_size: int,
) -> dict[str, list[JobSpec]]:
    """experiment id (``pam/uniform``, ``sam/diagonal`` …) -> its specs."""
    return {
        f"{kind}/{name}": file_specs(kind, name, scale, page_size=page_size)
        for kind, names in (("pam", pam_files), ("sam", sam_files))
        for name in names
    }


def compare_outcomes(
    reference: dict[str, ExperimentOutcome],
    candidate: dict[str, ExperimentOutcome],
) -> list[str]:
    """Differences between two grid runs ([] when identical).

    Compares everything the paper's tables are made of — per-structure
    build metrics, per-query-type costs and result counts — plus the
    exact :class:`~repro.core.stats.AccessStats` totals that the run
    reports carry.  Wall-clock timers are excluded by design.
    """
    problems: list[str] = []
    if list(reference) != list(candidate):
        return [f"experiment sets differ: {list(reference)} vs {list(candidate)}"]
    for exp_id, ref in reference.items():
        out = candidate[exp_id]
        if list(ref.results) != list(out.results):
            problems.append(
                f"{exp_id}: structure order {list(out.results)} != {list(ref.results)}"
            )
            continue
        for name, ref_result in ref.results.items():
            result = out.results[name]
            where = f"{exp_id}:{name}"
            if ref_result.metrics.as_dict() != result.metrics.as_dict():
                problems.append(f"{where}: build metrics differ")
            if ref_result.query_costs != result.query_costs:
                problems.append(f"{where}: query costs differ")
            if ref_result.query_results != result.query_results:
                problems.append(f"{where}: query result counts differ")
            if ref.totals[name] != out.totals[name]:
                problems.append(
                    f"{where}: access totals {out.totals[name]} != {ref.totals[name]}"
                )
    return problems


def _run_grid(
    grid: dict[str, list[JobSpec]],
    *,
    workers: int,
    cache: BuildCache | None,
) -> tuple[dict[str, ExperimentOutcome], float]:
    """Run every experiment of the grid, returning outcomes and seconds.

    The whole grid is submitted as one flat spec list so the pool stays
    saturated across file boundaries; outcomes are re-grouped afterwards.
    """
    flat: list[JobSpec] = []
    slices: dict[str, tuple[int, int]] = {}
    for exp_id, specs in grid.items():
        slices[exp_id] = (len(flat), len(flat) + len(specs))
        flat.extend(specs)
    started = time.perf_counter()
    job_results = run_specs(flat, workers=workers, cache=cache)
    seconds = time.perf_counter() - started
    outcomes = {
        exp_id: merge_outcomes(job_results[lo:hi])
        for exp_id, (lo, hi) in slices.items()
    }
    return outcomes, seconds


def main(argv: list[str] | None = None) -> int:
    from repro.workloads.distributions import POINT_FILES
    from repro.workloads.rect_distributions import RECT_FILES

    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel.bench",
        description="Time the full paper grid serially vs in parallel.",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=max(2, os.cpu_count() or 2),
        help="process count for the parallel pass (default: cpu count)",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=None,
        help="records per data file (default: REPRO_BENCH_SCALE or 10000)",
    )
    parser.add_argument("--page-size", type=int, default=512)
    parser.add_argument(
        "--pam-files",
        default=",".join(POINT_FILES),
        help="comma-separated point files (default: all seven)",
    )
    parser.add_argument(
        "--sam-files",
        default=",".join(RECT_FILES),
        help="comma-separated rectangle files (default: all five)",
    )
    parser.add_argument(
        "--no-serial",
        action="store_true",
        help="skip the serial reference pass (no speedup, no verification)",
    )
    parser.add_argument(
        "--no-warm",
        action="store_true",
        help="skip the warm-cache replay pass",
    )
    parser.add_argument(
        "--cache",
        default=None,
        help="build-cache directory (default: REPRO_BUILD_CACHE or "
        "results/.build_cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="run the parallel pass uncached"
    )
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the JSON (default: results/BENCH_PARALLEL.json)",
    )
    args = parser.parse_args(argv)
    config = RunConfig.from_env()

    scale = args.scale if args.scale is not None else config.bench_scale
    pam_files = [f for f in args.pam_files.split(",") if f]
    sam_files = [f for f in args.sam_files.split(",") if f]
    grid = build_grid(pam_files, sam_files, scale, args.page_size)
    jobs = sum(len(specs) for specs in grid.values())
    print(
        f"grid: {len(pam_files)} point files x PAMs + {len(sam_files)} "
        f"rectangle files x SAMs = {jobs} jobs at scale {scale}"
    )

    if args.no_cache:
        cache = None
    elif args.cache is not None:
        cache = BuildCache(args.cache)
    else:
        cache = resolve_cache(config.build_cache)

    serial: dict[str, ExperimentOutcome] | None = None
    serial_seconds = None
    if not args.no_serial:
        serial, serial_seconds = _run_grid(grid, workers=1, cache=None)
        print(f"serial   ({jobs} jobs, 1 process):   {serial_seconds:8.2f}s")

    cold_hits = cache.hits if cache is not None else 0
    parallel, parallel_seconds = _run_grid(grid, workers=args.workers, cache=cache)
    cache_hits = (cache.hits - cold_hits) if cache is not None else 0
    print(
        f"parallel ({jobs} jobs, {args.workers} workers): {parallel_seconds:8.2f}s"
        + (f"  [{cache_hits} cache hits]" if cache_hits else "")
    )

    verified = None
    if serial is not None:
        problems = compare_outcomes(serial, parallel)
        verified = not problems
        for problem in problems:
            print(f"MISMATCH: {problem}")
        print(
            "verification: parallel outcome "
            + ("identical to serial" if verified else "DIFFERS from serial")
        )

    warm_seconds = None
    if cache is not None and not args.no_warm:
        _, warm_seconds = _run_grid(grid, workers=args.workers, cache=cache)
        print(f"warm cache replay:                  {warm_seconds:8.2f}s")

    speedup = (
        serial_seconds / parallel_seconds
        if serial_seconds is not None and parallel_seconds > 0
        else None
    )
    document = {
        "schema": BENCH_SCHEMA,
        "scale": scale,
        "page_size": args.page_size,
        "workers": args.workers,
        "cpu_count": os.cpu_count(),
        "pam_files": pam_files,
        "sam_files": sam_files,
        "jobs": jobs,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": speedup,
        "warm_cache_seconds": warm_seconds,
        "warm_cache_speedup": (
            serial_seconds / warm_seconds
            if serial_seconds is not None and warm_seconds
            else None
        ),
        "cache": (
            {
                "root": str(cache.root),
                "hits": cache.hits,
                "misses": cache.misses,
                "stores": cache.stores,
            }
            if cache is not None
            else None
        ),
        "verified": verified,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    output = Path(args.output or default_results_root() / "BENCH_PARALLEL.json")
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    if speedup is not None:
        print(f"speedup: {speedup:.2f}x over serial")
    return 0 if verified in (True, None) else 1


if __name__ == "__main__":
    raise SystemExit(main())
