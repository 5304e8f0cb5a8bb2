"""The observability command line: ``python -m repro.obs``.

Usage::

    python -m repro.obs report RUN.json                  # per-op cost table
    python -m repro.obs report OLD.json NEW.json --fail-threshold 5
    python -m repro.obs explain TRACE.json --format heatmap
    python -m repro.obs validate FILE...                 # any of the three schemas

Every verb reads its inputs through :func:`load`, so all of them fail
the same way.  Exit status: 0 ok; 1 an input is unreadable, is not the
schema the verb expects or does not validate (diagnostic on stderr);
2 command-line misuse, or ``report --fail-threshold`` exceeded.  A
reader that closes the pipe early (``| head``) is a clean exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

from repro.obs.explain import (
    EXPLAIN_SCHEMA,
    render_heatmap,
    render_trace,
    validate_explain,
)
from repro.obs.export import RUN_REPORT_SCHEMA, RunReport, validate_run_report
from repro.obs.report import diff_reports, format_diff
from repro.obs.structure import SNAPSHOT_SCHEMA, validate_snapshot

__all__ = ["load", "main"]

#: Schema -> validator of the document :func:`load` returns.
VALIDATORS: dict[str, Callable[[dict], list[str]]] = {
    RUN_REPORT_SCHEMA: validate_run_report,
    EXPLAIN_SCHEMA: validate_explain,
    SNAPSHOT_SCHEMA: validate_snapshot,
}


def load(path: str, schema: str | None = None) -> dict:
    """Read ``path`` once and return the validated JSON object in it.

    The object's ``schema`` key names the file's kind.  Raises
    ``OSError`` for an unreadable path and ``ValueError``, prefixed
    with the path, for anything that is not a valid document of
    ``schema`` (of any known schema when ``None``).
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        if not text.strip():
            raise ValueError("file is empty")
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("not a JSON object")
        found = doc.get("schema")
        if found not in VALIDATORS:
            raise ValueError(f"unknown schema {found!r}")
        if schema is not None and found != schema:
            raise ValueError(f"schema is {found!r}, expected {schema!r}")
        problems = VALIDATORS[found](doc)
        if problems:
            raise ValueError(
                f"invalid {found}" + "".join(f"\n  - {p}" for p in problems)
            )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return doc


def _report(args: argparse.Namespace) -> int:
    old = RunReport.from_dict(load(args.old, RUN_REPORT_SCHEMA))
    if args.new is None:
        print(old.render())
        return 0
    new = RunReport.from_dict(load(args.new, RUN_REPORT_SCHEMA))
    print(f"diff: {args.old} -> {args.new}")
    rows = diff_reports(old, new)
    print(format_diff(rows, args.fail_threshold))
    if args.fail_threshold is not None and any(
        row["delta_pct"] > args.fail_threshold for row in rows
    ):
        print(f"FAIL: regressions above {args.fail_threshold:.1f}%", file=sys.stderr)
        return 2
    return 0


def _explain(args: argparse.Namespace) -> int:
    trace = load(args.trace, EXPLAIN_SCHEMA)
    if args.format == "heatmap":
        print(render_heatmap(trace), end="")
    else:
        print(render_trace(trace), end="")
    return 0


def _validate(args: argparse.Namespace) -> int:
    status = 0
    for path in args.files:
        try:
            doc = load(path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
        else:
            print(f"{path}: OK ({doc['schema']})")
    return status


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render, diff and validate the observability artefacts: "
        "run reports, explain traces and structure snapshots.",
    )
    sub = parser.add_subparsers(metavar="VERB", required=True)

    p = sub.add_parser("report", help="print one run report, or diff two")
    p.add_argument("old", metavar="RUN.json", help="the report to print")
    p.add_argument(
        "new", nargs="?", metavar="NEW.json", help="diff RUN.json -> NEW.json instead"
    )
    p.add_argument(
        "--fail-threshold",
        type=float,
        default=None,
        metavar="PCT",
        help="with two reports: exit 2 if any query mean regressed more than PCT%%",
    )
    p.set_defaults(run=_report)

    p = sub.add_parser("explain", help="render an explain trace")
    p.add_argument("trace", metavar="TRACE.json")
    p.add_argument(
        "--format",
        choices=("tree", "heatmap"),
        default="tree",
        help="output rendering (default: tree)",
    )
    p.set_defaults(run=_explain)

    p = sub.add_parser(
        "validate", help="schema-check files of any of the three schemas"
    )
    p.add_argument("files", nargs="+", metavar="FILE")
    p.set_defaults(run=_validate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        status = args.run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away; point stdout at devnull so the
        # interpreter's exit-time flush has nothing left to fail on.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
