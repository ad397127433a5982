"""Unified observability layer: metrics registry, spans, profiling.

One substrate every execution layer reports into (the AutoDNNchip /
CHIA lesson: co-design research needs uniform, fine-grained
instrumentation across the stack):

* a process-wide **metrics registry** — counters, gauges, and
  histograms whose exact counts survive bounded memory
  (:mod:`repro.obs.registry`);
* **run-scoped spans** — ``with span("ga.generation", gen=i): ...`` —
  nestable, timed, exception-tagging, with each run scope folded into
  its enclosing scope on exit (:mod:`repro.obs.spans`,
  :mod:`repro.obs.state`);
* **profiling hooks** — opt-in per-phase timing for controller
  stepping, cost-model queries (cache hit/miss latency split), the
  mapper inner search, and campaign runs;
* **exporters** — JSON snapshots, CSV, and the ``repro obs report``
  renderer (:mod:`repro.obs.export`).

Disabled by default: the off path is a single branch on a slotted
singleton plus a shared no-op span, so uninstrumented behaviour and
hot-loop allocation profiles are untouched.  Turn it on with::

    import repro.obs as obs

    obs.enable()                  # or enable(profile=False) for spans only
    ... run something ...
    print(obs.render_report(obs.snapshot()))

Span and metric naming conventions live in ``docs/OBSERVABILITY.md``.
"""

from repro.obs.export import (
    aggregate_spans,
    hottest_phases,
    merge_snapshots,
    render_report,
    to_csv,
    to_json,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    histogram_quantile,
    validate_metric_name,
)
from repro.obs.spans import NOOP_SPAN, LiveSpan, SpanNode, SpanRecorder
from repro.obs.state import (
    OBS,
    Observability,
    RunScope,
    disable,
    enable,
    is_enabled,
    merge_snapshot,
    reset,
    run_scope,
    snapshot,
    span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LiveSpan",
    "MetricsRegistry",
    "NOOP_SPAN",
    "OBS",
    "Observability",
    "RunScope",
    "SpanNode",
    "SpanRecorder",
    "aggregate_spans",
    "disable",
    "enable",
    "histogram_quantile",
    "hottest_phases",
    "is_enabled",
    "merge_snapshot",
    "merge_snapshots",
    "render_report",
    "reset",
    "run_scope",
    "snapshot",
    "span",
    "to_csv",
    "to_json",
    "validate_metric_name",
]
