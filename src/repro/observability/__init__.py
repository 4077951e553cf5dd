"""Telemetry for the whole pipeline: histograms, traces, structured logs.

The package is stdlib-only and sits *below* the runtime in the import
graph: :mod:`repro.runtime.metrics`, the shard executors, the gateway and
the persistence layer all import from here, never the other way around.
Its building blocks:

* :class:`Family` / :class:`MetricSet` / :func:`exposition` — a metric is
  declared once as a family row; a set holds the live values of one tuple
  of rows behind one lock; one writer renders every Prometheus body (see
  :mod:`repro.observability.registry`);
* :class:`LatencyHistogram` — mergeable log-linear latency histograms
  with fixed bucket boundaries, so per-thread and per-process shard
  histograms combine losslessly (see :mod:`repro.observability.histogram`);
* :class:`Tracer` / :class:`TraceContext` — span-based tracing with a
  serialisable context that crosses the process-shard pickle boundary,
  head sampling (default off), a bounded ring buffer, and Chrome
  trace-event export (see :mod:`repro.observability.tracing`);
* :class:`JsonFormatter` — a stdlib ``logging`` formatter emitting one
  JSON object per line with trace-id correlation (see
  :mod:`repro.observability.jsonlog`);
* :class:`TimeSeries` / :class:`MetricsSampler` — ring-buffered metric
  history with windowed rate/delta queries, fed by the one background
  sampler polling the metric registries (see :mod:`repro.observability.timeseries`);
* :class:`SLO` / :class:`SLOEvaluator` — declarative objectives checked
  by multi-window burn-rate rules, producing typed :class:`Alert` events
  (see :mod:`repro.observability.slo`);
* :class:`HealthWatchdog` — health rules on the sampler's tick turning
  shard liveness and durability progress into a machine-readable health
  report (see :mod:`repro.observability.health`).

``python -m repro.observability summarize trace.json`` renders a
per-stage latency table and critical-path breakdown for an exported
trace file; ``python -m repro.observability top`` is a live per-query
matcher-time dashboard over a gateway's ``/debug/vars``.
``docs/observability.md`` documents the semantics.
"""

from repro.observability.clock import monotonic_time, perf_clock, wall_clock
from repro.observability.health import (
    HealthReason,
    HealthReport,
    HealthWatchdog,
    WatchdogConfig,
)
from repro.observability.histogram import LatencyHistogram
from repro.observability.jsonlog import JsonFormatter, configure_json_logging
from repro.observability.registry import Family, MetricSet, exposition
from repro.observability.slo import (
    DEFAULT_RULES,
    Alert,
    BurnRateRule,
    SLO,
    SLOEvaluator,
)
from repro.observability.telemetry import Telemetry, TelemetryConfig
from repro.observability.timeseries import (
    MetricsSampler,
    TimeSeries,
    flatten_registry,
)
from repro.observability.tracing import (
    SpanHandle,
    TraceContext,
    Tracer,
    current_context,
    use_context,
)

__all__ = [
    "Alert",
    "BurnRateRule",
    "DEFAULT_RULES",
    "Family",
    "HealthReason",
    "HealthReport",
    "HealthWatchdog",
    "JsonFormatter",
    "LatencyHistogram",
    "MetricSet",
    "MetricsSampler",
    "SLO",
    "SLOEvaluator",
    "SpanHandle",
    "Telemetry",
    "TelemetryConfig",
    "TimeSeries",
    "TraceContext",
    "Tracer",
    "WatchdogConfig",
    "configure_json_logging",
    "current_context",
    "exposition",
    "flatten_registry",
    "monotonic_time",
    "perf_clock",
    "use_context",
    "wall_clock",
]
