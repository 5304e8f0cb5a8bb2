"""Smoke test of the e2e benchmark: ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.

Not part of tier-1 (``testpaths = ["tests"]``).  Runs all five workloads
at N = 300 with one measured cycle and checks the shape of what comes
out, not the numbers: the output schema, the contract's name alphabet
and limits, that ``BENCHMARK.json`` and the command list the same names,
and that the exact metrics repeat under one seed and move under another.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import metrics
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py"), "--n", "300", "--cycles", "1"]

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def full_run(out: Path, seed: int, *extra: str) -> dict:
    subprocess.run(RUN + ["--seed", str(seed), "--out", str(out), *extra], check=True, capture_output=True)
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    tmp = tmp_path_factory.mktemp("e2e")
    return {
        "traced": full_run(tmp / "a.json", 11, "--trace"),
        "again": full_run(tmp / "b.json", 11),
        "other_seed": full_run(tmp / "c.json", 12),
    }


def test_benchmark_json_is_the_registry():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == metrics.contract()


def test_contract_limits():
    contract = metrics.contract()
    assert set(contract) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert 1 <= contract["run_seconds"] <= 60
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer") for row in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(row["why"]) <= 200 and "\n" not in row["why"] for row in contract["workloads"])
    for row in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.fullmatch(row["unit"]) and row["better"] in ("lower", "higher")
    assert all(0 < row["bound"] <= 0.25 for row in contract["end_to_end"])
    setup = next(row for row in contract["end_to_end"] if row["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(row["bound"] for row in contract["end_to_end"])


def test_full_run_schema(runs):
    document = runs["traced"]
    assert {"git_commit", "python", "numpy", "nproc", "seed", "sizes"} <= set(document["header"])
    assert list(document["workloads"]) == list(metrics.WHY)
    for name, detail in document["workloads"].items():
        assert detail["correct"] and detail["failed"] == 0 and detail["attempted"] >= 1
        applicable = [m for m, row in metrics.END_TO_END.items() if name in row[3]]
        assert list(detail["metrics"]) == applicable
        for row in detail["metrics"].values():
            assert {"value", "unit", "better", "bound", "k", "q1", "q3"} <= set(row)
        assert detail["metrics"]["failed_op_share"]["value"] == 0
        assert set(detail["per_layer"]) <= set(metrics.PER_LAYER)
        layers = detail["layers"]
        assert abs(layers["self_sum_s"] - layers["traced_pipeline_s"]) <= 0.02 * layers["traced_pipeline_s"]
    pool = {w: document["workloads"][w]["per_layer"] for w in metrics.DISK}
    assert pool["disk_fit"]["storage.disk.pool.evictions"]["value"] == 0
    assert pool["disk_fit"]["storage.disk.pool.hit_rate"]["value"] == 1.0
    assert pool["disk_oversize"]["storage.disk.pool.evictions"]["value"] > 0


@pytest.mark.parametrize("workload", ["disk_fit", "churn_sim"])
@pytest.mark.parametrize("trace", [0, 1])
def test_command_output_lists_the_contract_names(workload, trace):
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        check=True, capture_output=True, text=True,
    )  # fmt: skip
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = contract["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [row["name"] for row in listed]
    for row in listed:
        got = result["metrics"][row["name"]]
        assert got["unit"] == row["unit"] and isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_exact_metrics_repeat_with_the_seed_and_move_with_it(runs):
    exact = [name for name, row in metrics.END_TO_END.items() if row[4] and name != "failed_op_share"]
    moved = 0
    for workload, detail in runs["traced"]["workloads"].items():
        for name in exact:
            if name in detail["metrics"]:
                value = detail["metrics"][name]["value"]
                assert runs["again"]["workloads"][workload]["metrics"][name]["value"] == value
                moved += runs["other_seed"]["workloads"][workload]["metrics"][name]["value"] != value
    assert moved >= len(runs["traced"]["workloads"])


def test_compare_applies_direction_bound_and_spread(runs):
    base = runs["again"]
    assert metrics.compare(base, base)[1] == 0
    slower = copy.deepcopy(base)
    row = slower["workloads"]["churn_sim"]["metrics"]["pipeline_s"]
    row.update(value=row["value"] * 1.5, q1=row["q1"] * 1.5, q3=row["q3"] * 1.5)
    rows, findings = metrics.compare(base, slower)
    assert findings == 1 and any("pipeline_s" in r and "REGRESSION" in r for r in rows)
    noisy = copy.deepcopy(base)
    row = noisy["workloads"]["churn_sim"]["metrics"]["pipeline_s"]
    row.update(q1=row["value"] * 0.8, q3=row["value"] * 1.2)
    rows, findings = metrics.compare(base, noisy)
    assert findings == 1 and any("pipeline_s" in r and "unresolved" in r for r in rows)
    drifted = copy.deepcopy(base)
    drifted["workloads"]["query_sim"]["metrics"]["accesses_per_query"]["value"] += 0.01
    assert metrics.compare(base, drifted)[1] == 1
