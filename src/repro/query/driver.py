"""The batched query driver: run one query file in a single pass.

The driver registers a whole query file as a batched workload on the
method's columnar cache (:mod:`repro.query.columnar`), marks the current
query index before each call, and runs every query under the usual
per-operation disk-access measurement.  A page visited by many queries
of the file is then evaluated against *all* of them in one ``(Q, n)``
kernel call, and each later query reuses its cached mask row.

Registration is an evaluation hint only: the queries still execute one
at a time through the method's public API, so the pages touched and the
per-query disk-access statistics are those of the same queries run
unbatched.  The driver is duck-typed — any object with ``store``,
``register_query_workload`` and ``end_query_workload`` works — so it can
be used without importing the core experiment machinery.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

__all__ = ["run_query_file"]


def run_query_file(
    method,
    kind: str,
    queries: Sequence,
    operation: Callable[[Any], Any],
    explain=None,
) -> list[tuple[int, Any]]:
    """Execute every query of one file, returning ``[(cost, result), ...]``.

    ``kind`` is the query-type tag understood by the method's
    ``_workload_rects`` (``range``, ``pm``, ``point``, ``intersection``,
    ``containment``, ``enclosure``); ``operation(query)`` must run exactly
    one public query of ``method``.

    ``explain`` is an optional
    :class:`~repro.obs.explain.ExplainRecorder`; when given, every query
    of the file is traced (visited pages, candidates/hits, prunes).
    Tracing chains the store's observer, so measured costs and results
    are identical with or without it.
    """
    out: list[tuple[int, Any]] = []
    stats = method.store.stats
    started_file = False
    # Everything that registers state on the store sits inside the try:
    # a raising start_file must not leave the batch installed.
    try:
        method.register_query_workload(kind, queries)
        workload = method.store.columnar.workload
        if explain is not None:
            explain.start_file(method, kind)
            started_file = True
        for index, query in enumerate(queries):
            workload.set_query(index)
            # ``stats.total`` spelled out: the per-query accounting runs
            # tens of thousands of times per file.
            before = (
                stats.data_reads
                + stats.data_writes
                + stats.dir_reads
                + stats.dir_writes
            )
            result = operation(query)
            cost = (
                stats.data_reads
                + stats.data_writes
                + stats.dir_reads
                + stats.dir_writes
                - before
            )
            out.append((cost, result))
            if explain is not None:
                explain.finish_query(index, query, cost, result)
    finally:
        method.end_query_workload()
        if started_file:
            explain.end_file()
    return out
