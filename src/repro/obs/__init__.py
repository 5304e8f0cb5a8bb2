"""Observability for the access-method testbed.

The paper's entire argument rests on *counting page accesses*, so this
package makes those counts observable at every granularity:

* :mod:`repro.obs.tracer` — a low-overhead :class:`Tracer` that attaches
  to a :class:`~repro.storage.pagestore.PageStore` as its observer and
  records one :class:`Span` per bracketed operation (insert / delete /
  query), optionally down to individual page-access events.
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  fixed-bucket histograms with exact percentile summaries
  (p50/p90/p99/max) and wall-clock timers.
* :mod:`repro.obs.export` — exporters: a JSONL trace sink, human-readable
  table rendering and the structured :class:`RunReport` JSON that every
  benchmark emits alongside its ``results/*.txt`` table.
* :mod:`repro.obs.runner` — :func:`traced_pam_run` /
  :func:`traced_sam_run`, which wrap the §3/§7 experiment driver with a
  tracer and produce a :class:`RunReport`.
* :mod:`repro.obs.report` — the ``python -m repro.obs.report`` CLI that
  prints, validates and diffs run reports.
* :mod:`repro.obs.profile` — deterministic cost attribution
  (:class:`CostAttribution`): per-structure/phase/operation wall-time
  and disk-access rollups whose totals match the tracer bit-exactly,
  a counted-vs-uncounted page-touch heatmap, and flamegraph export.
* :mod:`repro.obs.explain` — EXPLAIN-style per-query execution traces
  (:class:`ExplainRecorder`): the pages each query visits, in order,
  with candidates vs hits, prune decisions and duplicate elimination,
  plus the ``python -m repro.obs.explain`` trace renderer.
* :mod:`repro.obs.structure` — uncharged structure snapshots
  (:func:`compute_snapshot`): occupancy and depth profiles plus
  first-class redundancy metrics (duplication factor, overlap volume,
  dead space, coverage).

Tracing is strictly additive: the observer hook never changes which
accesses are charged, so an instrumented run reports exactly the same
:class:`~repro.core.stats.AccessStats` as an uninstrumented one.
"""

from repro.obs.export import (
    RUN_REPORT_SCHEMA,
    JsonlTraceSink,
    RunReport,
    build_run_report,
    profile_to_collapsed,
    profile_to_speedscope,
    summarise_spans,
    summarise_touches,
    validate_run_report,
)
from repro.obs.metrics import (
    DEFAULT_ACCESS_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    Timer,
)
from repro.obs.runner import traced_pam_run, traced_sam_run
from repro.obs.tracer import (
    BUILD_OPS,
    AccessEvent,
    Span,
    StoreObserver,
    Tracer,
    phase_of,
)

__all__ = [
    "AccessEvent",
    "BUILD_OPS",
    "CostAttribution",
    "Counter",
    "DEFAULT_ACCESS_BUCKETS",
    "EXPLAIN_SCHEMA",
    "ExplainRecorder",
    "Histogram",
    "JsonlTraceSink",
    "MetricsRegistry",
    "OpCost",
    "PageView",
    "RUN_REPORT_SCHEMA",
    "RunReport",
    "SNAPSHOT_SCHEMA",
    "Span",
    "StoreObserver",
    "Timer",
    "Tracer",
    "apportion",
    "build_run_report",
    "compute_snapshot",
    "page_heatmap",
    "phase_of",
    "profile_to_collapsed",
    "profile_to_speedscope",
    "render_heatmap",
    "render_snapshot",
    "render_trace",
    "snapshot_to_json",
    "summarise_spans",
    "summarise_touches",
    "traced_pam_run",
    "traced_sam_run",
    "validate_explain",
    "validate_run_report",
    "validate_snapshot",
]

# Profile and explain names resolve lazily (PEP 562): those
# modules have ``python -m`` entry points, and an eager import here
# would trigger runpy's found-in-sys.modules double-import warning on
# every CLI call.  Structure names ride along for symmetry.
_PROFILE_NAMES = frozenset({"CostAttribution", "OpCost", "apportion"})
_EXPLAIN_NAMES = frozenset(
    {
        "EXPLAIN_SCHEMA",
        "ExplainRecorder",
        "page_heatmap",
        "render_heatmap",
        "render_trace",
        "validate_explain",
    }
)
_STRUCTURE_NAMES = frozenset(
    {
        "SNAPSHOT_SCHEMA",
        "PageView",
        "compute_snapshot",
        "render_snapshot",
        "snapshot_to_json",
        "validate_snapshot",
    }
)


def __getattr__(name: str):
    if name in _PROFILE_NAMES:
        from repro.obs import profile

        return getattr(profile, name)
    if name in _EXPLAIN_NAMES:
        from repro.obs import explain

        return getattr(explain, name)
    if name in _STRUCTURE_NAMES:
        from repro.obs import structure

        return getattr(structure, name)
    raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
