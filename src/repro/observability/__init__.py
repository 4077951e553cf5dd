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
* :class:`HealthWatchdog` — health rules evaluated on read, turning
  shard liveness and durability progress into a machine-readable health
  report (see :mod:`repro.observability.health`).

``python -m repro.observability summarize trace.json`` renders a
per-stage latency table and critical-path breakdown for an exported
trace file; ``python -m repro.observability top`` is a live per-query
matcher-time dashboard over a gateway's ``/debug/vars``.
``docs/observability.md`` documents the semantics.
"""

from repro.observability.clock import monotonic_time, perf_clock, wall_clock
from repro.observability.health import HealthReason, HealthReport, HealthWatchdog
from repro.observability.histogram import LatencyHistogram
from repro.observability.jsonlog import JsonFormatter, configure_json_logging
from repro.observability.registry import Family, MetricSet, exposition
from repro.observability.tracing import (
    SpanHandle,
    TraceContext,
    Tracer,
    current_context,
    use_context,
)

__all__ = [
    "Family",
    "HealthReason",
    "HealthReport",
    "HealthWatchdog",
    "JsonFormatter",
    "LatencyHistogram",
    "MetricSet",
    "SpanHandle",
    "TraceContext",
    "Tracer",
    "configure_json_logging",
    "current_context",
    "exposition",
    "monotonic_time",
    "perf_clock",
    "use_context",
    "wall_clock",
]
