"""The observability command line: ``python -m repro.obs``.

Usage::

    python -m repro.obs report RUN.json                  # per-op cost table
    python -m repro.obs report OLD.json NEW.json --fail-threshold 5
    python -m repro.obs explain TRACE.json --format heatmap
    python -m repro.obs telemetry render TIMELINE.jsonl --metric 'storage.*'
    python -m repro.obs telemetry diff OLD.jsonl NEW.jsonl
    python -m repro.obs validate FILE...                 # any of the four schemas

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
from repro.obs.telemetry import (
    TIMELINE_SCHEMA,
    diff_timelines,
    render_timeline,
    timeline_parts,
    validate_timeline,
)

__all__ = ["load", "main"]

#: Schema -> validator over the documents :func:`load` returns.
VALIDATORS: dict[str, Callable[[list[dict]], list[str]]] = {
    RUN_REPORT_SCHEMA: lambda docs: validate_run_report(docs[0]),
    EXPLAIN_SCHEMA: lambda docs: validate_explain(docs[0]),
    SNAPSHOT_SCHEMA: lambda docs: validate_snapshot(docs[0]),
    TIMELINE_SCHEMA: lambda docs: validate_timeline(*timeline_parts(docs)),
}


def load(path: str, schema: str | None = None) -> list[dict]:
    """Read ``path`` once and return the validated JSON objects in it.

    A JSON file yields one object, a JSONL file one per line; the first
    carries the ``schema`` key that names the file's kind.  Raises
    ``OSError`` for an unreadable path and ``ValueError``, prefixed
    with the path, for anything that is not a valid document of
    ``schema`` (of any known schema when ``None``).
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        try:
            docs = [json.loads(text)]
        except json.JSONDecodeError:
            docs = [json.loads(raw) for raw in text.splitlines() if raw.strip()]
        if not docs:
            raise ValueError("file is empty")
        if not all(isinstance(doc, dict) for doc in docs):
            raise ValueError("not a JSON object (one per line for JSONL)")
        found = docs[0].get("schema")
        if found not in VALIDATORS:
            raise ValueError(f"unknown schema {found!r}")
        if schema is not None and found != schema:
            raise ValueError(f"schema is {found!r}, expected {schema!r}")
        problems = VALIDATORS[found](docs)
        if problems:
            raise ValueError(
                f"invalid {found}" + "".join(f"\n  - {p}" for p in problems)
            )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return docs


def _report(args: argparse.Namespace) -> int:
    old = RunReport.from_dict(load(args.old, RUN_REPORT_SCHEMA)[0])
    if args.new is None:
        print(old.render(args.format))
        return 0
    new = RunReport.from_dict(load(args.new, RUN_REPORT_SCHEMA)[0])
    print(f"diff: {args.old} -> {args.new}")
    rows = diff_reports(old, new)
    print(format_diff(rows, args.fail_threshold, args.format))
    if args.fail_threshold is not None and any(
        row["delta_pct"] > args.fail_threshold for row in rows
    ):
        print(f"FAIL: regressions above {args.fail_threshold:.1f}%", file=sys.stderr)
        return 2
    return 0


def _explain(args: argparse.Namespace) -> int:
    trace = load(args.trace, EXPLAIN_SCHEMA)[0]
    if args.format == "heatmap":
        print(render_heatmap(trace), end="")
    else:
        print(render_trace(trace, args.format), end="")
    return 0


def _telemetry_render(args: argparse.Namespace) -> int:
    header, samples = timeline_parts(load(args.timeline, TIMELINE_SCHEMA))
    print(render_timeline(header, samples, metric_glob=args.metric, width=args.width))
    return 0


def _telemetry_diff(args: argparse.Namespace) -> int:
    old, new = (
        timeline_parts(load(path, TIMELINE_SCHEMA))[1]
        for path in (args.old, args.new)
    )
    print(f"{'metric':44s}{'old':>12s}{'new':>12s}{'delta':>9s}")
    for row in diff_timelines(old, new):
        print(
            f"{row['metric']:44s}{row['old']:>12.6g}{row['new']:>12.6g}"
            f"{row['delta_pct']:>+8.1f}%"
        )
    return 0


def _validate(args: argparse.Namespace) -> int:
    status = 0
    for path in args.files:
        try:
            docs = load(path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
        else:
            print(f"{path}: OK ({docs[0]['schema']})")
    return status


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render, diff and validate the observability artefacts: "
        "run reports, explain traces, structure snapshots and telemetry "
        "timelines.",
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
    p.add_argument(
        "--format",
        choices=("text", "markdown"),
        default="text",
        help="table style for render and diff output",
    )
    p.set_defaults(run=_report)

    p = sub.add_parser("explain", help="render an explain trace")
    p.add_argument("trace", metavar="TRACE.json")
    p.add_argument(
        "--format",
        choices=("tree", "md", "json", "heatmap"),
        default="tree",
        help="output rendering (default: tree)",
    )
    p.set_defaults(run=_explain)

    p = sub.add_parser("telemetry", help="render or diff telemetry timelines")
    verbs = p.add_subparsers(metavar="VERB", required=True)
    p = verbs.add_parser("render", help="sparkline/summary table of a timeline")
    p.add_argument("timeline", metavar="TIMELINE.jsonl")
    p.add_argument("--metric", default="*", help="glob over metric names")
    p.add_argument("--width", type=int, default=48, help="sparkline width")
    p.set_defaults(run=_telemetry_render)
    p = verbs.add_parser("diff", help="final-sample metric deltas, new vs old")
    p.add_argument("old", metavar="OLD.jsonl")
    p.add_argument("new", metavar="NEW.jsonl")
    p.set_defaults(run=_telemetry_diff)

    p = sub.add_parser(
        "validate", help="schema-check files of any of the four schemas"
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
