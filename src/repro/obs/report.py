"""Diffing two run reports: what ``python -m repro.obs report OLD NEW`` prints.

Per-(structure, query) mean-access deltas, new vs old; rows past a
threshold are flagged, and with ``--fail-threshold`` the CLI exits 2 on
any flagged row.
"""

from __future__ import annotations

import math

from repro.obs.export import RunReport

__all__ = ["delta_pct", "diff_reports", "format_diff"]


def delta_pct(old: float, new: float) -> float:
    """Percent change from ``old`` to ``new``.  From a zero baseline any
    change is infinite (``+inf`` for a new cost) and no change is 0, so a
    regression from nothing is always past the threshold."""
    if old:
        return 100.0 * (new - old) / old
    return math.copysign(math.inf, new) if new else 0.0


def diff_reports(old: RunReport, new: RunReport) -> list[dict]:
    """Per-(structure, query) mean-access changes between two reports.

    Each row carries ``structure``, ``label``, ``old``/``new`` mean
    accesses per query and ``delta_pct`` (positive = new is costlier).
    Structures or query types present in only one report are skipped.
    """
    rows: list[dict] = []
    for name in new.structures:
        if name not in old.structures:
            continue
        old_queries = old.structures[name].get("queries", {})
        new_queries = new.structures[name].get("queries", {})
        for label, entry in new_queries.items():
            if label not in old_queries:
                continue
            old_mean = old_queries[label]["accesses"]["mean"]
            new_mean = entry["accesses"]["mean"]
            rows.append(
                {
                    "structure": name,
                    "label": label,
                    "old": old_mean,
                    "new": new_mean,
                    "delta_pct": delta_pct(old_mean, new_mean),
                }
            )
    return rows


def format_diff(rows: list[dict], threshold: float | None = None) -> str:
    """Render a diff table; rows past ``threshold`` %% are flagged."""
    lines = [
        f"{'structure':12s}{'query':14s}{'old':>10s}{'new':>10s}{'delta':>9s}"
    ]
    for row in rows:
        flag = (
            "  REGRESSION"
            if threshold is not None and row["delta_pct"] > threshold
            else ""
        )
        lines.append(
            f"{row['structure']:12s}{row['label']:14s}"
            f"{row['old']:>10.2f}{row['new']:>10.2f}"
            f"{row['delta_pct']:>+8.1f}%{flag}"
        )
    return "\n".join(lines)
