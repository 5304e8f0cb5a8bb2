"""Golden charged access counts for the whole structure matrix.

The scalar/vector frontier oracle (``test_query_traversal.py``) compares
two execution paths against each other, so it cannot see a drift that
moves both.  This test pins absolute numbers instead: for every entry of
:data:`repro.verify.fuzz.STRUCTURES`, at the paper's 512-byte pages and
at 8 KiB, one small fixed build and one query file per query type must
reproduce ``tests/goldens/access_counts.json`` exactly — the build's
:class:`~repro.core.stats.AccessStats`, each file's summed charged cost
and hit count through :func:`~repro.query.driver.run_query_file`, the
sha256 of the canonical structure snapshot, and the sha256 of the
canonical explain trace of every query file (so a change to how explain
reads the pages cannot move a trace byte unnoticed).

Regenerate (only when a change is *meant* to move charged counts) with
``PYTHONPATH=src python tests/test_access_goldens.py``.  With ``--diff``
nothing is written: every moved ``(structure, page size, field)`` is
printed as old -> new — the table a PR that moves a golden must show.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.obs.explain import ExplainRecorder
from repro.obs.structure import snapshot_to_json
from repro.query.driver import run_query_file
from repro.storage.pagestore import PageStore
from repro.verify.fuzz import STRUCTURES, _point_pool, _rect_pool
from repro.workloads.queries import (
    RANGE_QUERY_VOLUMES,
    generate_partial_match_queries,
    generate_point_queries,
    generate_range_queries,
    generate_rect_query_workload,
)

GOLDEN = Path(__file__).parent / "goldens" / "access_counts.json"
SCALE = 400
SEED = 1989
PAGE_SIZES = (512, 8192)


def _query_files(kind, method):
    """``[(driver kind, queries, operation), ...]`` for one method."""
    if kind == "pam":
        ranges = [
            q
            for volume in RANGE_QUERY_VOLUMES
            for q in generate_range_queries(volume, count=12, seed=SEED)
        ]
        pms = [
            q
            for axis in (0, 1)
            for q in generate_partial_match_queries(axis, count=10, seed=SEED)
        ]
        return [
            ("range", ranges, method.range_query),
            ("pm", pms, method.partial_match),
        ]
    workload = generate_rect_query_workload(seed=SEED, queries_per_class=3)
    rects = workload["rectangles"]
    return [
        ("point", generate_point_queries(24, seed=SEED), method.point_query),
        ("intersection", rects, method.intersection),
        ("containment", rects, method.containment),
        ("enclosure", rects, method.enclosure),
    ]


def measure(name, page_size):
    """Build ``name`` at ``page_size`` and run its query files."""
    spec = STRUCTURES[name]
    data = (
        _point_pool(SCALE, SEED)
        if spec["kind"] == "pam"
        else _rect_pool(SCALE, SEED + 1)
    )
    store = PageStore(page_size)
    method = spec["factory"](store)
    for rid, item in enumerate(data):
        method.insert(item, rid)
    if spec["pack_every"]:
        method.pack()
    out = {"build": store.stats.as_dict(), "queries": {}}
    explain = ExplainRecorder(name)
    for kind, queries, operation in _query_files(spec["kind"], method):
        outcomes = run_query_file(method, kind, queries, operation, explain)
        out["queries"][kind] = {
            "cost": sum(cost for cost, _ in outcomes),
            "hits": sum(len(hits) for _, hits in outcomes),
        }
    text = snapshot_to_json(method.snapshot())
    out["snapshot_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    trace = json.dumps(explain.to_trace(), sort_keys=True, separators=(",", ":"))
    out["explain_sha256"] = hashlib.sha256(trace.encode()).hexdigest()
    return out


@pytest.fixture(scope="module")
def golden():
    recorded = json.loads(GOLDEN.read_text())
    assert set(recorded) == set(STRUCTURES)
    return recorded


@pytest.mark.parametrize("name", list(STRUCTURES))
def test_charged_counts_match_golden(name, golden):
    for page_size in PAGE_SIZES:
        assert measure(name, page_size) == golden[name][str(page_size)], (
            f"{name} @ {page_size} B drifted from {GOLDEN.name}"
        )


def _fields(tree, prefix=""):
    """``{dotted field: value}`` over the leaves of a nested dict."""
    if not isinstance(tree, dict):
        return {prefix: tree}
    flat = {}
    for key, value in tree.items():
        flat.update(_fields(value, f"{prefix}.{key}" if prefix else str(key)))
    return flat


if __name__ == "__main__":
    measured = {
        name: {str(ps): measure(name, ps) for ps in PAGE_SIZES}
        for name in STRUCTURES
    }
    if sys.argv[1:] == ["--diff"]:
        old, new = _fields(json.loads(GOLDEN.read_text())), _fields(measured)
        moved = [k for k in sorted(old.keys() | new.keys()) if old.get(k) != new.get(k)]
        for key in moved:
            name, page_size, field = key.split(".", 2)
            print(f"{name} @ {page_size} B  {field}: {old.get(key)} -> {new.get(key)}")
        print(f"{len(moved)} row(s) moved" if moved else "no rows moved")
    else:
        GOLDEN.write_text(json.dumps(measured, indent=1, sort_keys=True) + "\n")
