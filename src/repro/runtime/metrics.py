"""Shard metrics: what the runtime measures about itself.

Every shard writes one :class:`~repro.observability.registry.MetricSet` of
:data:`SHARD_FAMILIES` and a :class:`MetricsRegistry` aggregates them, with
the durability counters, for callers (the ``GestureSession`` exposes it as
``session.metrics``).  Producers add from the feeding thread, workers from
their shard thread (or the result-listener thread of a process shard), and
readers may snapshot at any time.

Snapshots are plain dictionaries of plain numbers so they serialise
directly to JSON (the gateway's ``/metrics?format=json``, the
``benchmarks/e2e`` result documents).
"""

from __future__ import annotations

import json
import logging
import threading
from typing import Callable, Dict, Iterator, List, Mapping, Optional

from repro.observability.clock import perf_clock as _perf_clock
from repro.observability.histogram import LatencyHistogram
from repro.observability.registry import (
    Family,
    MetricSet,
    Sample,
    build_info_sample,
    exposition,
    rounded,
    scalar_samples,
)

__all__ = [
    "INGEST_TO_DETECTION",
    "MetricsRegistry",
    "QUERY_FAMILIES",
    "SCRAPE_DURATION",
    "SHARD_FAMILIES",
]

_logger = logging.getLogger(__name__)

#: What one shard counts, one :class:`MetricSet` per shard (label
#: ``shard``).  The two histograms have a single writer — whichever thread
#: delivers the shard's ``done`` messages: the worker thread itself, or a
#: process transport's listener — and render merged across shards.
SHARD_FAMILIES = (
    Family("tuples_enqueued", "repro_shard_tuples_enqueued_total", "counter", "Tuples accepted into the shard queue."),
    Family("tuples_processed", "repro_shard_tuples_processed_total", "counter", "Tuples fully processed by the shard worker."),
    Family("batches_processed", "repro_shard_batches_processed_total", "counter", "Work items the shard worker completed."),
    Family("detections", "repro_shard_detections_total", "counter", "Detections emitted by the shard."),
    Family("errors", "repro_shard_errors_total", "counter", "Errors recorded against the shard."),
    Family("queue_depth_hwm", "repro_shard_queue_depth_hwm", "gauge", "High-water mark of the shard queue depth, in tuples."),
    Family("busy_seconds", "repro_shard_busy_seconds_total", "counter", "Seconds the shard worker spent processing.", 0.0),
    Family("queue_wait", "repro_queue_wait_seconds", "histogram", "Seconds tuples waited in shard queues before a worker dequeued them."),
    Family("batch_processing", "repro_batch_processing_seconds", "histogram", "Seconds a shard worker spent processing one batch."),
)

#: Registry-level histogram: the sharded runtime's dispatch thread (or an
#: inline session's feeding thread) is its single writer.
INGEST_TO_DETECTION = Family("ingest_to_detection", "repro_ingest_to_detection_seconds", "histogram", "End-to-end seconds from runtime ingest to detection emit.")

#: Per-query matcher counters, rendered with a ``query`` label from the
#: registry's query-stats provider (the engine / sharded runtime installs
#: one); the keys are those of ``query_stats()``.
QUERY_FAMILIES = (
    Family("tuples_processed", "repro_query_tuples_processed_total", "counter", "Tuples examined by the query's matcher."),
    Family("predicate_evaluations", "repro_query_predicate_evaluations_total", "counter", "Atoms the query's steps asked about, counted as their closures would count them: index verdicts and tuples settled in bulk included."),
    Family("gate_rejections", "repro_query_gate_rejections_total", "counter", "Tuples rejected by first-step gating without touching run state."),
    Family("runs_started", "repro_query_runs_started_total", "counter", "NFA runs created."),
    Family("runs_advanced", "repro_query_runs_advanced_total", "counter", "NFA run step advancements."),
    Family("runs_completed", "repro_query_runs_completed_total", "counter", "NFA runs that reached their final step."),
    Family("runs_pruned", "repro_query_runs_pruned_total", "counter", "NFA runs discarded for any expiry: TTL / within-window pruning, a within failed on advance, and idle-sweep evictions."),
    Family("runs_evicted", "repro_query_runs_evicted_total", "counter", "NFA runs reclaimed by idle-partition sweeps."),
    Family("runs_suppressed", "repro_query_runs_suppressed_total", "counter", "Run starts suppressed because the partition held max_active_runs runs."),
    Family("detections", "repro_query_detections_total", "counter", "Detections the query emitted."),
)

SCRAPE_DURATION = Family("scrape_duration", "repro_scrape_duration_seconds", "gauge", "Seconds this registry spent collecting and rendering the exposition.")


class MetricsRegistry:
    """Shard id → the shard's :class:`MetricSet`, plus aggregate views.

    Shard entries are created on first access, so sinks and callers can
    read the registry before the runtime has started.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._shards: Dict[int, MetricSet] = {}
        # Imported here: at module level it would load the persistence
        # package (storage, the learning core) into every shard worker.
        from repro.persistence.log import DURABILITY_FAMILIES

        #: Event-log / snapshot counters; zeroes when durability is off.
        self.durability = MetricSet(DURABILITY_FAMILIES)
        #: Registry-level latency histograms (``ingest_to_detection``).
        self._histograms: Dict[str, LatencyHistogram] = {}
        #: Called before exposition so lazily-collected sources (process
        #: shards, matcher stats) can push fresh numbers in.
        self._refresh_hooks: List[Callable[[], None]] = []
        #: ``() -> {query_name: {stats_key: int}}`` for per-query series.
        self._query_stats_provider: Optional[Callable[[], Mapping[str, Mapping[str, int]]]] = None

    def shard(self, shard_id: int) -> MetricSet:
        with self._lock:
            metrics = self._shards.get(shard_id)
            if metrics is None:
                metrics = self._shards[shard_id] = MetricSet(SHARD_FAMILIES, {"shard": shard_id})
            return metrics

    def shards(self) -> List[MetricSet]:
        """Every shard's set, by ascending shard id."""
        with self._lock:
            return [self._shards[shard_id] for shard_id in sorted(self._shards)]

    def histogram(self, key: str) -> LatencyHistogram:
        """The registry-level histogram for ``key`` (created on first use)."""
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = LatencyHistogram()
            return histogram

    def add_refresh_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` before every exposition / collection pass."""
        self._refresh_hooks.append(hook)

    def set_query_stats_provider(
        self, provider: Optional[Callable[[], Mapping[str, Mapping[str, int]]]]
    ) -> None:
        """Install the source of per-query matcher counters for ``/metrics``."""
        self._query_stats_provider = provider

    def collect(self) -> None:
        """Pull from every lazily-collected source (shard spans and counters).

        A hook that fails — a shard mid-shutdown, a closed queue — is
        logged and skipped rather than failing the scrape: exposition
        must keep working while the pipeline winds down.
        """
        for hook in self._refresh_hooks:
            try:
                hook()
            except Exception:
                _logger.warning("metrics refresh hook %r failed", hook, exc_info=True)

    def totals(self) -> Dict[str, float]:
        """Counters summed over every shard (gauges take the max, not the sum)."""
        snapshots = [metrics.snapshot() for metrics in self.shards()]
        totals: Dict[str, float] = {}
        for family in SHARD_FAMILIES:
            if family.kind == "histogram":
                continue
            column = [snap[family.key] for snap in snapshots]
            if family.kind == "gauge":
                totals[family.key] = max(column, default=family.zero)
            else:
                totals[family.key] = sum(column, family.zero)
        return rounded(totals)

    def merged_histograms(self) -> Dict[str, LatencyHistogram]:
        """Every histogram family, merged across its per-shard parts."""
        per_shard = [metrics.histograms() for metrics in self.shards()]
        merged = {
            family.key: LatencyHistogram.merged(part[family.key] for part in per_shard)
            for family in SHARD_FAMILIES
            if family.kind == "histogram"
        }
        merged.update(self.durability.histograms())
        with self._lock:
            extra = dict(self._histograms)
        for key, histogram in extra.items():
            merged[key] = LatencyHistogram.merged([histogram])
        return merged

    def snapshot(self) -> Dict[str, object]:
        """Full JSON-serialisable view: per-shard, totals and durability."""
        return {
            "shards": [_shard_entry(metrics) for metrics in self.shards()],
            "totals": self.totals(),
            "durability": self.durability.snapshot(),
            "histograms": {
                key: histogram.summary()
                for key, histogram in sorted(self.merged_histograms().items())
            },
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """The full :meth:`snapshot` rendered as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent)

    def samples(self, labels: Optional[Mapping[str, object]] = None) -> Iterator[Sample]:
        """Every sample of one scrape of this registry, for :func:`exposition`.

        ``labels`` (e.g. ``{"tenant": name}``) are merged into **every**
        sample, which is how a multi-tenant exporter renders many registries
        into one scrape body without name collisions.
        """
        scrape_started = _perf_clock()
        self.collect()
        base = dict(labels or {})
        yield build_info_sample(base)
        for metrics in (*self.shards(), self.durability):
            yield from scalar_samples(metrics.families, metrics.snapshot(), {**base, **metrics.labels})
        # Histograms render once per registry, the per-shard ones merged.
        merged = self.merged_histograms()
        for family in (*SHARD_FAMILIES, INGEST_TO_DETECTION, *self.durability.families):
            if family.kind == "histogram":
                yield family, base, merged.get(family.key, LatencyHistogram())
        provider = self._query_stats_provider
        if provider is not None:
            per_query = provider()
            for query_name in sorted(per_query):
                yield from scalar_samples(
                    QUERY_FAMILIES, per_query[query_name], {**base, "query": query_name}
                )
        # Self-timed: how long this scrape's collect + render took.  The
        # collect() above dominates (it may broadcast to the shards),
        # which is exactly what an operator watching scrape cost cares about.
        yield SCRAPE_DURATION, base, _perf_clock() - scrape_started

    def to_prometheus(self, labels: Optional[Mapping[str, object]] = None) -> str:
        """The registry in the Prometheus text exposition format (0.0.4)."""
        return exposition(self.samples(labels))

    def __repr__(self) -> str:
        return f"MetricsRegistry(shards={len(self.shards())}, totals={self.totals()})"


def _shard_entry(metrics: MetricSet) -> Dict[str, float]:
    """One ``snapshot()["shards"]`` row: the shard's id and counters, plus
    its worker-side throughput over busy time only."""
    raw = metrics.values()
    busy = raw["busy_seconds"]
    entry = {"shard_id": metrics.labels["shard"], **rounded(raw)}
    entry["tuples_per_second"] = round(raw["tuples_processed"] / busy, 1) if busy > 0 else 0.0
    entry["errors"] = entry.pop("errors")  # JSON contract: ``errors`` closes the row
    return entry
