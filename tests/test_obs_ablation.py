"""Tests for the clip-redundancy sweep document."""

import pytest

from repro.obs.ablation import (
    CLIP_REDUNDANCY_SCHEMA,
    build_clip_redundancy_document,
    validate_clip_redundancy,
)

REDUNDANCY = {
    "stored_entries": 1000,
    "duplication_factor": 1.0,
    "overlap_volume": 0.0,
    "dead_space": 0.0,
    "coverage": 0.0,
    "utilisation": 0.75,
}


def make_row(budget: int, **overrides) -> dict:
    row = {
        "budget": budget,
        "regions_per_object": float(budget),
        "point_cost": 8.0 + budget,
        "data_pages": 70 * budget,
        "build_seconds": 0.02 * budget,
        "query_seconds": 0.3,
        "redundancy": {**REDUNDANCY, "duplication_factor": float(budget)},
    }
    row.update(overrides)
    return row


def make_doc(rows=None) -> dict:
    return build_clip_redundancy_document(
        file="gaussian_square",
        scale=1000,
        page_size=512,
        seed=107,
        rows=rows or [make_row(1), make_row(2), make_row(4)],
    )


class TestDocument:
    def test_build_validates(self):
        doc = make_doc()
        assert doc["schema"] == CLIP_REDUNDANCY_SCHEMA
        assert validate_clip_redundancy(doc) == []

    def test_not_an_object(self):
        assert validate_clip_redundancy([]) == ["document is not a JSON object"]

    def test_build_rejects_malformed(self):
        with pytest.raises(ValueError, match="rows"):
            build_clip_redundancy_document(
                file="f", scale=1, page_size=512, seed=None, rows=[]
            )

    def test_catches_row_problems(self):
        doc = make_doc()
        doc["rows"][1] = dict(doc["rows"][1])
        del doc["rows"][1]["point_cost"]
        doc["rows"][1]["redundancy"] = None
        problems = validate_clip_redundancy(doc)
        assert any("rows[1].point_cost" in p for p in problems)
        assert any("rows[1].redundancy" in p for p in problems)

    def test_catches_unsorted_budgets(self):
        doc = make_doc()
        doc["rows"].reverse()
        assert any(
            "sorted by budget" in p for p in validate_clip_redundancy(doc)
        )

