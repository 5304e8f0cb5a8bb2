"""The metric registry: names, units, directions, bounds — and ``compare``.

Two views of one registry:

* ``END_TO_END`` is the full list a person reads: every end-to-end
  metric, the workloads it applies to, and the bound by which it may
  worsen.  ``run.py`` prints these and ``compare`` judges them.
* ``contract()`` is ``BENCHMARK.json``.  The driver wants *every*
  end-to-end metric from *every* workload, none of them ever zero, each
  steady across ten runs with ten different seeds.  So only the timing
  and memory metrics that apply to all five workloads are listed there
  as end-to-end; the workload-specific ones (build rate, recovery time,
  the churn op latencies) and the exact counts (which repeat under one
  seed but not across seeds) ride in its ``per_layer`` list, where a
  workload that does not exercise them reports 0.
"""

from __future__ import annotations

from workloads import PAM_LABELS, PAM_NAMES, SAM_LABELS, SAM_NAMES, SIZES

RUN_SECONDS = 10

WHY = {
    "testbed_sim": "generate, build nine structures, paper query files, report: builds are ~80 % of it, so split choosers and PageStore charging carry it and the query layer does not",
    "query_sim": "nine pre-built structures at 512 B and 8 KiB pages, large query files: all query + kernels, no insert path; traversal-bound and kernel-bound pages land in different sub-metrics",
    "disk_oversize": "R-Tree + GRID on the durable backend with a pool of 10 % of the pages, fsync on: misses, evictions, WAL, commit and crash recovery all run",
    "disk_fit": "same inputs and ops as disk_oversize but the pool holds everything: bypasses the miss/eviction path, so a miss-path change must not move it while a WAL/commit change does",
    "churn_sim": "inserts, deletes and single ad-hoc queries interleaved one op at a time: the query layer unbatched, with mutations invalidating its page columns between queries",
}
ALL = tuple(WHY)
DISK = ("disk_oversize", "disk_fit")
BUILDS = ("testbed_sim",) + DISK

#: name -> (unit, better, bound, workloads, exact).  ``exact`` metrics are
#: counts made by the program: with one seed they repeat bit for bit, so
#: their bound is 0 and ``compare`` reports any change.  Timing bounds are
#: three times the run-to-run spread this sandbox showed after
#: normalisation (4-8 %), which is also the contract's ceiling.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25, ALL, False),
    "pipeline_s": ("s", "lower", 0.25, ALL, False),
    "query_per_s": ("1/s", "higher", 0.25, ALL, False),
    "query_p50_ms": ("ms", "lower", 0.25, ALL, False),
    "accesses_per_query": ("count", "lower", 0.0, ALL, True),
    "peak_rss_mb": ("MB", "lower", 0.10, ALL, False),
    "build_rec_per_s": ("1/s", "higher", 0.25, BUILDS, False),
    "accesses_per_insert": ("count", "lower", 0.0, BUILDS + ("churn_sim",), True),
    "op_per_s": ("1/s", "higher", 0.25, ("churn_sim",), False),
    "op_p50_ms": ("ms", "lower", 0.25, ("churn_sim",), False),
    "recover_s": ("s", "lower", 0.25, DISK, False),
    # The seconds blocked inside them are excluded from every timing and
    # reported raw as the per-layer storage.io.fsync_s: two runs of the
    # same code differ by 40 % in it, so no bound can be put on it.
    "fsync_calls": ("count", "lower", 0.0, DISK, True),
    "disk_bytes_per_user_byte": ("ratio", "lower", 0.0, DISK, True),
    # Carried by the contract's attempted/failed fields, not its metric
    # list: it is 0 on every workload, and the driver divides by medians.
    "failed_op_share": ("ratio", "lower", 0.0, ALL, True),
}

#: The driver checks each of these on every workload, across ten seeds:
#: only what applies to all five workloads and is not a per-seed count.
CONTRACT_END_TO_END = tuple(
    name
    for name, (_, _, _, workloads, exact) in END_TO_END.items()
    if workloads == ALL and not exact
)


def _per_layer() -> dict[str, tuple[str, str]]:
    """name -> (unit, better) for every per-layer metric, by module."""
    out: dict[str, tuple[str, str]] = {}
    # The end-to-end metrics the contract cannot list as such (see the
    # module docstring).
    for name, (unit, better, _, _, _) in END_TO_END.items():
        if name not in CONTRACT_END_TO_END and name != "failed_op_share":
            out[name] = (unit, better)
    # The p99 latencies could not hold the two-run check (single cycles
    # differ by 20-250 %, ten-run medians by 11-14 %): demoted, as the
    # issue provides for.
    out["query_p99_ms"] = ("ms", "lower")
    out["op_p99_ms"] = ("ms", "lower")
    out["workloads.generate_s"] = ("s", "lower")
    out["workloads.queries_generate_s"] = ("s", "lower")
    for kind, names in (("pam", PAM_NAMES), ("sam", SAM_NAMES)):
        for name in names.values():
            out[f"{kind}.{name}.build_s"] = ("s", "lower")
            out[f"{kind}.{name}.query_s"] = ("s", "lower")
            out[f"{kind}.{name}.accesses_per_insert"] = ("count", "lower")
    for label in PAM_LABELS + SAM_LABELS:
        out[f"query.{label}.s"] = ("s", "lower")
        out[f"query.{label}.accesses_per_query"] = ("count", "lower")
    out["query.ps512.query_per_s"] = ("1/s", "higher")
    out["query.ps8192.query_per_s"] = ("1/s", "higher")
    out["query.register_s"] = ("s", "lower")
    out["query.unbatched_per_s"] = ("1/s", "higher")
    out["query.candidates_per_hit"] = ("ratio", "lower")
    for kernel in ("points_in_boxes", "fused_match_many"):
        for n in (20, 340):
            out[f"geometry.{kernel}.n{n}_ns"] = ("ns", "lower")
    for method in ("read", "write", "allocate", "begin_operation"):
        out[f"storage.pagestore.{method}_calls"] = ("count", "lower")
    out["storage.pagestore.read_self_s"] = ("s", "lower")
    out["storage.pagestore.write_self_s"] = ("s", "lower")
    out["storage.pagestore.charge_self_s"] = ("s", "lower")
    out["storage.disk.pool.hit_rate"] = ("ratio", "higher")
    for key in ("evictions", "overflows", "silent_dirty", "resident_over_budget"):
        out[f"storage.disk.pool.{key}"] = ("count", "lower")
    out["storage.disk.commits"] = ("count", "lower")
    out["storage.disk.commit_s"] = ("s", "lower")
    out["storage.disk.commit_self_s"] = ("s", "lower")
    out["storage.disk.checkpoints"] = ("count", "lower")
    out["storage.disk.checkpoint_s"] = ("s", "lower")
    out["storage.disk.read_self_s"] = ("s", "lower")
    out["storage.disk_over_sim.build_ratio"] = ("ratio", "lower")
    out["storage.disk_over_sim.query_ratio"] = ("ratio", "lower")
    out["storage.wal.records"] = ("count", "lower")
    out["storage.wal.bytes"] = ("B", "lower")
    out["storage.wal.bytes_per_user_byte"] = ("ratio", "lower")
    out["storage.wal.replay_s"] = ("s", "lower")
    out["storage.write_amp"] = ("ratio", "lower")
    for op in ("pread", "pwrite", "fsync"):
        out[f"storage.io.{op}_calls"] = ("count", "lower")
        out[f"storage.io.{op}_s"] = ("s", "lower")
    out["storage.io.pread_bytes"] = ("B", "lower")
    out["storage.io.pwrite_bytes"] = ("B", "lower")
    out["storage.io.fsync_p99_ms"] = ("ms", "lower")
    out["obs.snapshot_s"] = ("s", "lower")
    out["obs.report_s"] = ("s", "lower")
    out["obs.tracer_on_ratio"] = ("ratio", "lower")
    out["trace.overhead_pct"] = ("%", "lower")
    out["core.driver_self_s"] = ("s", "lower")
    # What normalisation was applied: a cycle's wall seconds as the clock
    # read them, and how much slower than nominal the reference work ran.
    out["calib.pipeline_wall_s"] = ("s", "lower")
    out["calib.slowdown"] = ("ratio", "lower")
    out["verify.audit_s"] = ("s", "lower")
    out["verify.oracle_check_s"] = ("s", "lower")
    return out


PER_LAYER = _per_layer()

#: Per-layer counts that must repeat exactly between two run sets.
EXACT_PER_LAYER = tuple(
    name
    for name in PER_LAYER
    if name.endswith(("_calls", ".accesses_per_query", ".accesses_per_insert"))
    or name in (
        "storage.wal.bytes",
        "storage.wal.records",
        "storage.wal.bytes_per_user_byte",
        "storage.write_amp",
        "storage.disk.commits",
        "storage.disk.checkpoints",
        "storage.disk.pool.evictions",
        "storage.io.pread_bytes",
        "storage.io.pwrite_bytes",
    )
)


def contract() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WHY.items()],
        "end_to_end": [
            {
                "name": name,
                "unit": END_TO_END[name][0],
                "better": END_TO_END[name][1],
                "bound": END_TO_END[name][2],
            }
            for name in CONTRACT_END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }


def frozen_sizes() -> dict:
    return {name: dict(sizes) for name, sizes in SIZES.items()}


# -- compare -------------------------------------------------------------------


def judge(name: str, a: dict, b: dict) -> tuple[str, float, float]:
    """``(verdict, worsening, spread)`` of run ``b`` against run ``a``.

    ``worsening`` is the share of ``a``'s median by which ``b`` is worse
    (negative = better).  ``spread`` is how far the reported medians can
    be trusted: the cycles' quartile distance as a share of their median,
    divided by the square root of the cycle count (the median of k cycles
    is that much steadier than one cycle, so more cycles narrow it), the
    wider of the two runs.  A change is *unresolved*, not unchanged, when
    that spread is wider than the bound.
    """
    _, better, bound, _, exact = END_TO_END[name]
    va, vb = a["value"], b["value"]
    if exact or not va:
        if va == vb:
            return "same", 0.0, 0.0
        worse = (vb > va) == (better == "lower")
        return ("REGRESSION" if worse else "changed"), (vb - va) / va if va else 0.0, 0.0
    worsening = (vb - va) / va if better == "lower" else (va - vb) / va
    spread = max(
        (run["q3"] - run["q1"]) / run["value"] / run["k"] ** 0.5 if run["value"] else 0.0
        for run in (a, b)
    )
    if spread > bound:
        return "unresolved", worsening, spread
    if worsening > bound:
        return "REGRESSION", worsening, spread
    return ("improved" if worsening < -bound else "ok"), worsening, spread


def compare(run_a: dict, run_b: dict) -> tuple[list[str], int]:
    """Rows of the comparison table and the number of findings
    (regressions, unresolved end-to-end metrics, exact per-layer drifts)."""
    rows = [
        f"{'workload':14s} {'metric':26s} {'A':>12s} {'B':>12s} {'worse by':>9s} "
        f"{'spread':>7s} {'bound':>6s}  verdict"
    ]
    findings = 0
    for workload, wa in run_a["workloads"].items():
        wb = run_b["workloads"].get(workload)
        if wb is None:
            rows.append(f"{workload:14s} missing from B")
            findings += 1
            continue
        for name, a in wa["metrics"].items():
            b = wb["metrics"].get(name)
            if b is None:
                rows.append(f"{workload:14s} {name:26s} missing from B")
                findings += 1
                continue
            verdict, worsening, spread = judge(name, a, b)
            if verdict in ("REGRESSION", "unresolved"):
                findings += 1
            rows.append(
                f"{workload:14s} {name:26s} {a['value']:12.5g} {b['value']:12.5g} "
                f"{worsening:+9.1%} {spread:7.1%} {END_TO_END[name][2]:6.0%}  {verdict}"
            )
        layers_a, layers_b = wa.get("per_layer") or {}, wb.get("per_layer") or {}
        for name in EXACT_PER_LAYER:
            if name in layers_a and name in layers_b:
                va, vb = layers_a[name]["value"], layers_b[name]["value"]
                if va != vb:
                    findings += 1
                    rows.append(
                        f"{workload:14s} {name:26s} {va:12.5g} {vb:12.5g}  exact per-layer count drifted"
                    )
    return rows, findings
