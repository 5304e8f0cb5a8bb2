#!/usr/bin/env python3
"""``python benchmarks/e2e/run.py`` — the layer-attributed end-to-end benchmark.

Three ways in:

* ``run.py [--trace] [--seed N] [--out FILE]`` runs all five workloads,
  each in its own fresh subprocess, prints every end-to-end metric with
  unit, direction, bound, cycle count and quartiles (``--trace`` adds a
  second, traced run per workload for the per-layer metrics and the span
  files) and writes the run set as JSON.
* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` is one such
  subprocess, and the form ``BENCHMARK.json`` names: its last line of
  output is the result object the driver reads.
* ``run.py compare A.json B.json`` judges run set B against run set A by
  each metric's direction and bound.

See ``README.md`` next to this file for what the workloads and metrics
mean and how they interact.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

# Every knob reaches the program as an explicit argument; a stray
# REPRO_* variable must not be able to change what is measured.
for _key in [key for key in os.environ if key.startswith("REPRO_")]:
    del os.environ[_key]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'}: the program this benchmark measures is not here")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy  # noqa: E402
from measure import OUT_DIR, measure  # noqa: E402
from metrics import (  # noqa: E402
    CONTRACT_END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    compare,
    frozen_sizes,
)
from workloads import WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - _STARTED


def result_line(detail: dict, trace: bool) -> str:
    """The object the driver reads: exactly the contract's metric names."""
    if trace:
        rows = detail["per_layer"]
        # A layer this workload does not exercise did no work: 0.
        metrics = {
            name: {"value": rows[name]["value"] if name in rows else 0.0, "unit": unit}
            for name, (unit, _) in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": detail["metrics"][name]["value"], "unit": detail["metrics"][name]["unit"]}
            for name in CONTRACT_END_TO_END
        }
    return json.dumps(
        {
            "correct": detail["correct"],
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": metrics,
        }
    )


def run_one(args) -> int:
    # One client on one core: stay on it, so that the reference work and
    # the cycle it calibrates see the same neighbours.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    detail = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), IMPORT_S, args.n, args.cycles
    )
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail))
    for problem in detail["problems"]:
        print(f"FAILED {problem}")
    print(
        f"{args.workload} seed={args.seed} n={detail['n']} k={detail['k']} "
        f"attempted={detail['attempted']} failed={detail['failed']}"
    )
    print(result_line(detail, bool(args.trace)))
    return 0 if detail["correct"] else 1


# -- the full run ------------------------------------------------------------------


def header(args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "git_commit": commit or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "sizes": frozen_sizes(),
        "note": "latencies are this sandbox's (page-cache reads, cheap fsync), not a device's",
    }


def child(args, name: str, trace: int) -> dict:
    detail_path = OUT_DIR / f"detail-{name}-{trace}.json"
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--detail", str(detail_path),
    ]  # fmt: skip
    for flag, value in (("--n", args.n), ("--cycles", args.cycles)):
        if value is not None:
            command += [flag, str(value)]
    done = subprocess.run(command, capture_output=True, text=True)
    if not detail_path.exists():
        raise SystemExit(f"{name}: no result\n{done.stdout}{done.stderr}")
    detail = json.loads(detail_path.read_text())
    detail_path.unlink()
    return detail


def print_metrics(title: str, rows: dict, bounds: bool) -> None:
    print(f"\n{title}")
    print(f"  {'metric':40s} {'median':>12s} {'unit':6s} {'better':7s}"
          + (f" {'bound':>6s}" if bounds else "") + f" {'k':>3s} {'q1':>12s} {'q3':>12s}")
    for name, row in rows.items():
        bound = f" {row['bound']:6.0%}" if bounds else ""
        print(
            f"  {name:40s} {row['value']:12.6g} {row['unit']:6s} {row['better']:7s}{bound} "
            f"{row['k']:3d} {row['q1']:12.6g} {row['q3']:12.6g}"
        )


def run_all(args) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    document = {"header": header(args), "workloads": {}}
    for key, value in document["header"].items():
        print(f"# {key}: {value}")
    failed = 0
    for name in WORKLOADS:
        detail = child(args, name, 0)
        if args.trace:
            traced = child(args, name, 1)
            detail["per_layer"], detail["layers"] = traced["per_layer"], traced["layers"]
            detail["attempted"] += traced["attempted"]
            detail["failed"] += traced["failed"]
            detail["problems"] += traced["problems"]
        document["workloads"][name] = detail
        samples = detail["samples_per_cycle"]
        calib = ", ".join(f"{key} {row['value']:.4g}" for key, row in detail["calib"].items())
        print_metrics(
            f"== {name}: n={detail['n']}, k={detail['k']} cycles, "
            f"{samples['query']} query / {samples['op']} op latency samples per cycle, "
            f"ops attempted {detail['attempted']}, failed {detail['failed']}\n   as measured: {calib}",
            detail["metrics"],
            bounds=True,
        )
        for problem in detail["problems"]:
            print(f"  FAILED {problem}")
        if args.trace:
            print_metrics(f"-- {name}: per layer", detail["per_layer"], bounds=False)
            layers = detail["layers"]
            print(
                f"-- {name}: self time by layer of one traced cycle "
                f"({layers['traced_pipeline_s']:.4f} s; self times sum to {layers['self_sum_s']:.4f} s; "
                f"build spans cover {layers['build_span_share']:.1%})"
            )
            for layer, share in layers["share"].items():
                print(f"  {layer:20s} {layers['self_s'][layer]:10.4f} s {share:7.1%}")
        failed += detail["failed"]
    out = Path(args.out) if args.out else OUT_DIR / "run.json"
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"\nwrote {out}")
    return 1 if failed else 0


def run_compare(paths: list[str]) -> int:
    if len(paths) != 2:
        raise SystemExit("usage: run.py compare A.json B.json")
    run_a, run_b = (json.loads(Path(path).read_text()) for path in paths)
    rows, findings = compare(run_a, run_b)
    print("\n".join(rows))
    print(f"\n{findings} finding(s): regressions, unresolved end-to-end metrics, exact-count drifts")
    return 1 if findings else 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        return run_compare(argv[1:])
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=11, help="seeds data, query files and op streams")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS, help="how long each run measures")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="also (or, with --workload, instead) make the traced per-layer run")
    parser.add_argument("--out", help="where the full run writes its run set (default out/run.json)")
    parser.add_argument("--n", type=int, help="records per workload instead of the frozen sizes (smoke test)")
    parser.add_argument("--cycles", type=int, help="exactly this many measured cycles (smoke test)")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
