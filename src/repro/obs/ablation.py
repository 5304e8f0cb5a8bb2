"""Schema-validated ablation artefacts.

The ablation benches historically emitted fixed-width text tables only
(``results/ABL-*.txt``).  This module gives the redundancy sweep — the
bench closest to the source paper's subject — a machine-readable
counterpart: a versioned JSON document carrying, per redundancy budget,
the achieved duplication factor straight from the structure snapshot
(:mod:`repro.obs.structure`), the measured query costs and the build
shape.  The bench writes it to ``results/ABL-CLIP-REDUNDANCY.json``.
"""

from __future__ import annotations

from typing import Mapping

__all__ = [
    "CLIP_REDUNDANCY_SCHEMA",
    "build_clip_redundancy_document",
    "validate_clip_redundancy",
]

#: Schema identifier of the clipping redundancy-sweep document.
CLIP_REDUNDANCY_SCHEMA = "repro.obs/clip-redundancy/v1"

#: Numeric fields every sweep row must carry.
_ROW_KEYS = (
    "budget",
    "regions_per_object",
    "point_cost",
    "data_pages",
    "build_seconds",
    "query_seconds",
)


def build_clip_redundancy_document(
    *,
    file: str,
    scale: int,
    page_size: int,
    seed: int | None,
    rows: list[dict],
) -> dict:
    """Assemble a sweep document; raises ``ValueError`` when malformed."""
    doc = {
        "schema": CLIP_REDUNDANCY_SCHEMA,
        "file": file,
        "scale": scale,
        "page_size": page_size,
        "seed": seed,
        "rows": rows,
    }
    problems = validate_clip_redundancy(doc)
    if problems:
        raise ValueError(
            "invalid clip-redundancy document: " + "; ".join(problems)
        )
    return doc


def validate_clip_redundancy(data: object) -> list[str]:
    """Shape-check a sweep document; returns problems ([] when valid)."""
    problems: list[str] = []
    if not isinstance(data, Mapping):
        return ["document is not a JSON object"]
    if data.get("schema") != CLIP_REDUNDANCY_SCHEMA:
        problems.append(
            f"schema is {data.get('schema')!r}, "
            f"expected {CLIP_REDUNDANCY_SCHEMA!r}"
        )
    for key, types in (
        ("file", str),
        ("scale", int),
        ("page_size", int),
    ):
        if not isinstance(data.get(key), types):
            problems.append(f"missing or mistyped field {key!r}")
    rows = data.get("rows")
    if not isinstance(rows, list) or not rows:
        return problems + ["missing, mistyped or empty field 'rows'"]
    budgets = []
    for i, row in enumerate(rows):
        where = f"rows[{i}]"
        if not isinstance(row, Mapping):
            problems.append(f"{where} is not an object")
            continue
        for key in _ROW_KEYS:
            value = row.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(f"{where}.{key} missing or mistyped")
        if not isinstance(row.get("redundancy"), Mapping):
            problems.append(f"{where}.redundancy missing (snapshot block)")
        if isinstance(row.get("budget"), int):
            budgets.append(row["budget"])
    if budgets != sorted(budgets):
        problems.append("rows are not sorted by budget")
    return problems
