"""Observability for the access-method testbed.

The paper's entire argument rests on *counting page accesses*, so this
package makes those counts observable at every granularity:

* :mod:`repro.obs.tracer` — a low-overhead :class:`Tracer` that attaches
  to a :class:`~repro.storage.pagestore.PageStore` as its observer and
  records one :class:`Span` per bracketed operation (insert / delete /
  query).
* :mod:`repro.obs.metrics` — :class:`Histogram`, with exact percentile
  summaries (p50/p90/p99/max) and page-access buckets counted at export.
* :mod:`repro.obs.export` — human-readable table rendering and the
  structured :class:`RunReport` JSON that every benchmark emits
  alongside its ``results/*.txt`` table; an experiment's outcome
  assembles it (:meth:`repro.core.comparison.ExperimentOutcome.to_report`)
  from the spans each cell's own tracer recorded.
* :mod:`repro.obs.report` — per-(structure, query) diffs of two run
  reports.
* :mod:`repro.obs.explain` — EXPLAIN-style per-query execution traces
  (:class:`ExplainRecorder`): the pages each query visits, in order,
  with candidates vs hits, prune decisions and duplicate elimination,
  and their renderers.
* :mod:`repro.obs.structure` — uncharged structure snapshots
  (:func:`compute_snapshot`): occupancy and depth profiles plus
  first-class redundancy metrics (duplication factor, overlap volume,
  dead space, coverage).
* :mod:`repro.obs.telemetry` — one durable store's physical-IO latency
  histograms, reported in its ``io_stats()``, and that document's schema.

``python -m repro.obs report|explain|validate`` is the one command line
over all of these artefacts (:mod:`repro.obs.__main__`).

Tracing is strictly additive: the observer hook never changes which
accesses are charged, so an instrumented run reports exactly the same
:class:`~repro.core.stats.AccessStats` as an uninstrumented one.
"""

from repro.obs.explain import (
    EXPLAIN_SCHEMA,
    ExplainRecorder,
    page_heatmap,
    render_heatmap,
    render_trace,
    validate_explain,
)
from repro.obs.export import (
    RUN_REPORT_SCHEMA,
    RunReport,
    build_run_report,
    summarise_spans,
    summarise_touches,
    validate_run_report,
)
from repro.obs.metrics import DEFAULT_ACCESS_BUCKETS, Histogram
from repro.obs.structure import (
    SNAPSHOT_SCHEMA,
    PageView,
    compute_snapshot,
    render_snapshot,
    snapshot_to_json,
    validate_snapshot,
)
from repro.obs.tracer import (
    BUILD_OPS,
    Span,
    StoreObserver,
    Tracer,
)

__all__ = [
    "BUILD_OPS",
    "DEFAULT_ACCESS_BUCKETS",
    "EXPLAIN_SCHEMA",
    "ExplainRecorder",
    "Histogram",
    "PageView",
    "RUN_REPORT_SCHEMA",
    "RunReport",
    "SNAPSHOT_SCHEMA",
    "Span",
    "StoreObserver",
    "Tracer",
    "build_run_report",
    "compute_snapshot",
    "page_heatmap",
    "render_heatmap",
    "render_snapshot",
    "render_trace",
    "snapshot_to_json",
    "summarise_spans",
    "summarise_touches",
    "validate_explain",
    "validate_run_report",
    "validate_snapshot",
]
