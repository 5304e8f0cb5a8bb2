"""Run one workload: set-up, warm-up, measured cycles, traced cycles, checks.

The order is fixed: three timed set-ups (the last one is kept), one
warm-up cycle whose answers become the reference, untraced measured
cycles, then — in a traced run only — traced cycles and the per-layer
extras, and last the correctness checks, which never overlap a timed
region.  End-to-end metrics come from untraced cycles only.

Every timing is normalised, cycle by cycle, to the reference work that
cycle was interleaved with (see ``harness``).
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np
from harness import (
    REFERENCE_NOMINAL_S,
    Recorder,
    layer_table,
    percentile,
    quartiles,
    reference_work,
    self_times,
)
from metrics import END_TO_END, PER_LAYER
from workloads import PAM_LABELS, SAM_LABELS, SIZES, WORKLOADS, Cycle

from repro.geometry import kernels
from repro.obs.explain import ExplainRecorder
from repro.obs.tracer import Tracer
from repro.query.driver import run_query_file

SETUP_REPEATS = 3
OUT_DIR = Path(__file__).resolve().parent / "out"


def pipeline_wall(rec: Recorder) -> float:
    """Seconds of the cycle as the clock read them, less the reference
    work and the time blocked inside fsync."""
    return rec.totals["core.cycle"] - rec.totals["calib.reference"]


def cycle_values(rec: Recorder, cyc: Cycle) -> dict[str, float]:
    """Every metric one cycle yields without a trace, normalised."""
    tally = cyc.tally
    slowdown = rec.slowdown
    v = dict(cyc.values)
    v["pipeline_s"] = pipeline_wall(rec) / slowdown
    v["calib.pipeline_wall_s"] = pipeline_wall(rec) + rec.fsync_wait
    v["calib.slowdown"] = slowdown
    if rec.fsync_calls:
        v["fsync_calls"] = v["storage.io.fsync_calls"] = rec.fsync_calls
        v["storage.io.fsync_s"] = rec.fsync_wait  # raw: the sandbox's device
    # Batched files are timed around run_query_file; the unbatched single
    # queries of churn_sim have only their own latency samples.
    query_s = sum(cyc.query_seconds) / slowdown if cyc.op_seconds else rec.seconds("query.")
    v["query_per_s"] = cyc.queries / query_s
    v["query_p50_ms"] = 1e3 * statistics.median(cyc.query_seconds) / slowdown
    v["query_p99_ms"] = 1e3 * percentile(cyc.query_seconds, 0.99) / slowdown
    v["accesses_per_query"] = cyc.query_accesses / cyc.queries
    if cyc.inserts:
        v["accesses_per_insert"] = cyc.insert_accesses / cyc.inserts
    build_s = rec.seconds("pam.build") + rec.seconds("sam.build")
    if build_s:
        v["build_rec_per_s"] = cyc.inserts / build_s
    if cyc.op_seconds:
        v["op_per_s"] = cyc.ops * slowdown / sum(cyc.op_seconds)
        v["op_p50_ms"] = 1e3 * statistics.median(cyc.op_seconds) / slowdown
        v["op_p99_ms"] = 1e3 * percentile(cyc.op_seconds, 0.99) / slowdown
        v["query.unbatched_per_s"] = v["query_per_s"]
    for label in PAM_LABELS + SAM_LABELS:
        queries = tally[f"query.{label}.queries"]
        if queries:
            v[f"query.{label}.s"] = rec.totals[f"query.{label}"] / slowdown
            v[f"query.{label}.accesses_per_query"] = tally[f"query.{label}.accesses"] / queries
    for page_size in (512, 8192):
        seconds = tally[f"query.ps{page_size}.seconds"]
        if seconds:
            v[f"query.ps{page_size}.query_per_s"] = (
                tally[f"query.ps{page_size}.queries"] * slowdown / seconds
            )
    for (who, name), seconds in rec.by_op.items():
        if name.endswith(".build"):
            v[f"{who}.build_s"] = seconds / slowdown
        elif name.startswith("query."):
            v[f"{who}.query_s"] = v.get(f"{who}.query_s", 0.0) + seconds / slowdown
    for stem in ("workloads.generate", "workloads.queries_generate", "obs.snapshot", "obs.report"):
        if stem in rec.totals:
            v[f"{stem}_s"] = rec.totals[stem] / slowdown
    return v


def trace_values(rec: Recorder, table: dict[str, list]) -> dict[str, float]:
    """The metrics only spans can give (normalised like the rest)."""

    def col(name: str, index: int) -> float:
        return table[name][index] if name in table else 0

    v: dict[str, float] = {}
    charge = 0.0
    for method in ("read", "write", "allocate", "begin_operation"):
        v[f"storage.pagestore.{method}_calls"] = col(f"storage.pagestore.{method}", 0) + col(
            f"storage.disk.{method}", 0
        )
        charge += col(f"storage.pagestore.{method}", 2)
    v["storage.pagestore.read_self_s"] = col("storage.pagestore.read", 2)
    v["storage.pagestore.write_self_s"] = col("storage.pagestore.write", 2)
    v["storage.pagestore.charge_self_s"] = charge
    if any(name.startswith("storage.disk.") for name in table):
        v["storage.disk.read_self_s"] = col("storage.disk.read", 2)
        v["storage.disk.commit_s"] = col("storage.disk.commit", 1)
        v["storage.disk.commit_self_s"] = col("storage.disk.commit", 2)
        v["storage.disk.checkpoint_s"] = col("storage.disk.checkpoint", 1)
        v["storage.wal.replay_s"] = col("storage.wal.replay", 1)
        for op in ("pread", "pwrite", "fsync"):
            v[f"storage.io.{op}_calls"] = col(f"storage.io.{op}", 0)
            v[f"storage.io.{op}_s"] = col(f"storage.io.{op}", 1)
        v["storage.io.pread_bytes"] = rec.io_bytes["pread"]
        v["storage.io.pwrite_bytes"] = rec.io_bytes["pwrite"]
        fsyncs = [end - start for name, start, end, _, _ in rec.spans if name == "storage.io.fsync"]
        v["storage.io.fsync_p99_ms"] = 1e3 * percentile(fsyncs, 0.99) / rec.slowdown
    if "query.register_query_workload" in table:
        v["query.register_s"] = col("query.register_query_workload", 1) + col(
            "query.end_query_workload", 1
        )
    v["core.driver_self_s"] = col("core.cycle", 2) + col("core.churn", 2)
    return v


def run_cycles(workload, reference: Cycle, trace: bool, budget: float, k_min: int, fixed: int | None):
    """Measured cycles until ``budget`` seconds and ``k_min`` cycles are
    both reached (or exactly ``fixed`` cycles).  Returns the per-cycle
    values, ops attempted, ops in cycles that answered differently from
    the reference, and the last recorder."""
    values, attempted, failed, rec = [], 0, 0, None
    started = time.perf_counter()
    while True:
        rec = Recorder(trace)
        with rec.span("core.cycle"):
            cyc = workload.cycle(rec)
        rec.unwatch()  # nothing after the cycle may add spans to it
        v = cycle_values(rec, cyc)
        if trace:
            v.update(trace_values(rec, self_times(rec.spans, rec.slowdown)))
        values.append(v)
        attempted += cyc.ops
        if cyc.outcomes != reference.outcomes:
            failed += cyc.ops
        done = len(values)
        if fixed is not None:
            if done >= fixed:
                break
        elif done >= k_min and time.perf_counter() - started >= budget:
            break
    return values, attempted, failed, rec


def summarise(samples: list[float]) -> dict:
    q1, median, q3 = quartiles(samples)
    return {"value": median, "q1": q1, "q3": q3, "k": len(samples)}


# -- per-layer extras (traced run only, outside the cycles) --------------------


def kernel_values() -> dict[str, float]:
    """ns per element of the two batch kernels on arrays sized like a
    512 B page (20 records) and an 8 KiB page (340), 64 queries."""
    rng = np.random.default_rng(0)
    out = {}
    for n in (20, 340):
        pts = rng.random((n, 2))
        qlo = rng.random((64, 2)) * 0.5
        qhi = qlo + 0.3
        fused = kernels.fuse_points(pts)
        qvecs = np.concatenate([-qlo, qhi], axis=1)
        for name, call in (
            ("points_in_boxes", lambda: kernels.points_in_boxes(pts, qlo, qhi)),
            ("fused_match_many", lambda: kernels.fused_match_many(fused, qvecs)),
        ):
            call()
            rounds = []
            for _ in range(7):
                start = time.perf_counter()
                for _ in range(200):
                    call()
                rounds.append((time.perf_counter() - start) / (200 * 64 * n))
            out[f"geometry.{name}.n{n}_ns"] = 1e9 * statistics.median(rounds)
    return out


def candidates_per_hit(targets: list[tuple]) -> float:
    """Records examined per record returned, from EXPLAIN traces: the
    useful-work ratio of the query layer."""
    candidates = hits = 0
    for who, method, files in targets:
        recorder = ExplainRecorder(who)
        for label, kind, queries, attr in files:
            recorder.label = label
            run_query_file(method, kind, queries, getattr(method, attr), explain=recorder)
        for file in recorder.files:
            for query in file["queries"]:
                candidates += query["candidates"]
                hits += query["hits"]
    return candidates / hits if hits else 0.0


def layer_extras(workload, pipeline_s: float) -> dict[str, float]:
    out = kernel_values()
    start = time.perf_counter()
    for method in workload.built_methods():
        method.audit()
    out["verify.audit_s"] = time.perf_counter() - start
    targets = workload.explain_targets()
    if targets:
        out["query.candidates_per_hit"] = candidates_per_hit(targets)
    if workload.name == "testbed_sim":
        # The same cycle with a repro.obs.Tracer observing every store:
        # "costs nothing when disabled" needs the enabled cost as a number.
        rec = Recorder()
        with rec.span("core.cycle"):
            workload.cycle(rec, tracer=Tracer())
        out["obs.tracer_on_ratio"] = pipeline_wall(rec) / rec.slowdown / pipeline_s
    return out


# -- one workload --------------------------------------------------------------


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    import_s: float,
    n: int | None = None,
    cycles: int | None = None,
) -> dict:
    """Run workload ``name`` and return its detail document."""
    sizes = SIZES[name]
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"tmp-{name}-", dir=OUT_DIR))
    workload = WORKLOADS[name](seed, n or sizes["n"], scratch)
    try:
        # Set-up is normalised by the reference work around each piece.
        around = [reference_work()]
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            elapsed = time.perf_counter() - start
            around.append(reference_work())
            setups.append(elapsed * 2 * REFERENCE_NOMINAL_S / (around[-2] + around[-1]))
        warm = Recorder()
        with warm.span("core.cycle"):
            reference = workload.cycle(warm)
        setup_s = (
            import_s * REFERENCE_NOMINAL_S / around[0]
            + statistics.median(setups)
            + pipeline_wall(warm) / warm.slowdown
        )

        values, attempted, failed, _ = run_cycles(
            workload, reference, False, seconds / 2 if trace else seconds,
            sizes["min_cycles"], cycles,
        )  # fmt: skip
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = []
        for metric, (_, _, _, _, exact) in END_TO_END.items():
            seen = {v[metric] for v in values if metric in v}
            if exact and len(seen) > 1:
                problems.append(f"exact metric {metric} varies across cycles: {sorted(seen)}")

        traced, extras, layers = [], {}, None
        if trace:
            traced, t_attempted, t_failed, rec = run_cycles(
                workload, reference, True, seconds / 2, 1, cycles
            )
            attempted += t_attempted
            failed += t_failed
            pipeline_s = statistics.median(v["pipeline_s"] for v in values)
            traced_s = statistics.median(v["pipeline_s"] for v in traced)
            extras = layer_extras(workload, pipeline_s)
            extras["trace.overhead_pct"] = 100.0 * (traced_s / pipeline_s - 1.0)
            layers = write_trace(name, seed, rec)

        start = time.perf_counter()
        checked, found = workload.verify(reference)
        extras["verify.oracle_check_s"] = time.perf_counter() - start
        attempted += checked
        problems += found
        failed += len(problems)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    def column(metric: str, source: list[dict]) -> list[float]:
        return [v[metric] for v in source if metric in v]

    single = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "failed_op_share": failed / attempted}
    e2e = {}
    for metric, (unit, better, bound, workloads, _) in END_TO_END.items():
        if name in workloads:
            value = single.get(metric)
            row = (
                summarise(column(metric, values))
                if value is None
                else {"value": value, "q1": value, "q3": value, "k": 1}
            )
            e2e[metric] = {**row, "unit": unit, "better": better, "bound": bound}

    per_layer = None
    if trace:
        per_layer = {}
        for metric, (unit, better) in PER_LAYER.items():
            # Untraced cycles where they can tell, traced ones otherwise.
            samples = column(metric, values) or column(metric, traced)
            if samples:
                row = summarise(samples)
            elif metric in extras:
                row = {"value": extras[metric], "q1": extras[metric], "q3": extras[metric], "k": 1}
            else:
                continue  # a layer this workload does not exercise
            per_layer[metric] = {**row, "unit": unit, "better": better}

    return {
        "workload": name,
        "seed": seed,
        "n": workload.n,
        "k": len(values),
        "samples_per_cycle": {"query": reference.queries, "op": len(reference.op_seconds)},
        "calib": {
            metric: summarise(column(metric, values))
            for metric in ("calib.pipeline_wall_s", "calib.slowdown")
        },
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "metrics": e2e,
        "per_layer": per_layer,
        "layers": layers,
    }


def write_trace(name: str, seed: int, rec: Recorder) -> dict:
    """Write the last traced cycle's spans and self-time table; returns
    the per-layer summary (which must add up to the traced cycle)."""
    table = self_times(rec.spans, rec.slowdown)
    origin = rec.spans[0][1]
    # The reference work is the benchmark's, not the pipeline's.
    root_s = table["core.cycle"][1] - table.pop("calib.reference")[1]
    layers = layer_table(table)
    build_s = sum(table[span][1] for span in ("pam.build", "sam.build") if span in table)
    summary = {
        "traced_pipeline_s": root_s,
        "self_sum_s": sum(layers.values()),
        "build_span_share": build_s / root_s,
        "self_s": layers,
        "share": {layer: seconds / root_s for layer, seconds in layers.items()},
    }
    document = {
        "workload": name,
        "seed": seed,
        "note": "tables are in normalised seconds; spans are as the clock read them",
        "slowdown": rec.slowdown,
        "layers": summary,
        "self_time": {
            span: {"calls": calls, "total_s": total, "self_s": self_s}
            for span, (calls, total, self_s) in sorted(table.items(), key=lambda i: -i[1][2])
        },
        "span_fields": ["name", "start_s", "end_s", "parent", "op"],
        "spans": [
            [span, start - origin, end - origin, parent, op]
            for span, start, end, parent, op in rec.spans
        ],
    }
    (OUT_DIR / f"trace-{name}.json").write_text(json.dumps(document))
    return summary
