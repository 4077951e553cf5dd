"""Shard metrics: what the runtime measures about itself.

Every shard maintains one :class:`ShardMetrics` bundle — tuples enqueued /
processed / dropped, queue-depth high-water mark, detections, busy time —
and a :class:`MetricsRegistry` aggregates them for callers (the
``GestureSession`` exposes it as ``session.metrics``).  All counters are
lock-protected: producers increment from the feeding thread, workers from
their shard thread (or the result-listener thread of a process shard), and
readers may snapshot at any time.

Snapshots are plain dictionaries of plain numbers so they serialise
directly to JSON (the gateway's ``/metrics?format=json``, the
``benchmarks/e2e`` result documents).
"""

from __future__ import annotations

import json
import logging
import math
import threading
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.observability.clock import perf_clock as _perf_clock
from repro.observability.histogram import LatencyHistogram

__all__ = [
    "ShardMetrics",
    "DurabilityMetrics",
    "MetricsRegistry",
    "build_info_exposition",
    "escape_label_value",
    "histogram_exposition",
    "prometheus_sample",
]

_logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Prometheus text exposition (version 0.0.4)
# ---------------------------------------------------------------------------

def escape_label_value(value: object) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double quote and line feed are the only characters the
    format escapes — in that order, so a pre-existing ``\\`` never doubles
    an escape introduced here.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value: Union[int, float]) -> str:
    """Render a sample value (integers without a trailing ``.0``).

    Non-finite floats use the exposition format's spellings — ``+Inf``,
    ``-Inf``, ``NaN`` — which differ from Python's ``str()`` output
    (``inf`` / ``nan`` would not parse on the scraper side).
    """
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return "1" if value else "0"
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value.is_integer():
            return str(int(value))
    return str(value)


def prometheus_sample(
    name: str,
    value: Union[int, float],
    labels: Optional[Mapping[str, object]] = None,
) -> str:
    """One exposition line: ``name{label="value",...} value``.

    Label *names* must already be legal (``[a-zA-Z_][a-zA-Z0-9_]*``);
    label values are escaped here.  Labels render sorted by name so the
    output is stable across runs.
    """
    if labels:
        rendered = ",".join(
            f'{key}="{escape_label_value(labels[key])}"' for key in sorted(labels)
        )
        return f"{name}{{{rendered}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


def build_info_exposition(labels: Optional[Mapping[str, object]] = None) -> List[str]:
    """The ``repro_build_info`` family: a constant ``1`` whose labels
    carry the package version and Python runtime — the standard way to
    join any scraped series with "what build produced this".
    """
    import platform

    from repro import __version__

    return [
        "# HELP repro_build_info Build and runtime identity (constant 1).",
        "# TYPE repro_build_info gauge",
        prometheus_sample(
            "repro_build_info",
            1,
            {
                **(labels or {}),
                "version": __version__,
                "python": platform.python_version(),
            },
        ),
    ]


#: Shard counter families: snapshot key -> (metric suffix, type, help).
_SHARD_FAMILIES: Tuple[Tuple[str, str, str, str], ...] = (
    ("tuples_enqueued", "repro_shard_tuples_enqueued_total", "counter", "Tuples accepted into the shard queue."),
    ("tuples_processed", "repro_shard_tuples_processed_total", "counter", "Tuples fully processed by the shard worker."),
    ("tuples_dropped", "repro_shard_tuples_dropped_total", "counter", "Tuples dropped by the queue's backpressure policy."),
    ("batches_processed", "repro_shard_batches_processed_total", "counter", "Work items the shard worker completed."),
    ("detections", "repro_shard_detections_total", "counter", "Detections emitted by the shard."),
    ("errors", "repro_shard_errors_total", "counter", "Errors recorded against the shard."),
    ("queue_depth_hwm", "repro_shard_queue_depth_hwm", "gauge", "High-water mark of the shard queue depth, in tuples."),
    ("busy_seconds", "repro_shard_busy_seconds_total", "counter", "Seconds the shard worker spent processing."),
)

#: Latency-histogram families: histogram key -> (metric name, help).
#: ``queue_wait`` and ``batch_processing`` are recorded per shard and
#: merged at render time; the rest are registry- or subsystem-level.
_HISTOGRAM_FAMILIES: Tuple[Tuple[str, str, str], ...] = (
    ("queue_wait", "repro_queue_wait_seconds", "Seconds tuples waited in shard queues before a worker dequeued them."),
    ("batch_processing", "repro_batch_processing_seconds", "Seconds a shard worker spent processing one batch."),
    ("ingest_to_detection", "repro_ingest_to_detection_seconds", "End-to-end seconds from runtime ingest to detection emit."),
    ("fsync", "repro_fsync_seconds", "Seconds spent in event-log fsync calls."),
)

#: Per-query matcher counter families: stats key -> (metric name, help).
#: Rendered with a ``query`` label from the registry's query-stats
#: provider (the engine / sharded runtime installs one).
_QUERY_FAMILIES: Tuple[Tuple[str, str, str], ...] = (
    ("tuples_processed", "repro_query_tuples_processed_total", "Tuples examined by the query's matcher."),
    ("predicate_evaluations", "repro_query_predicate_evaluations_total", "Predicate evaluations the matcher performed."),
    ("gate_rejections", "repro_query_gate_rejections_total", "Tuples rejected by first-step gating without touching run state."),
    ("runs_started", "repro_query_runs_started_total", "NFA runs created."),
    ("runs_advanced", "repro_query_runs_advanced_total", "NFA run step advancements."),
    ("runs_completed", "repro_query_runs_completed_total", "NFA runs that reached their final step."),
    ("runs_pruned", "repro_query_runs_pruned_total", "NFA runs discarded by TTL / within-window pruning."),
    ("runs_evicted", "repro_query_runs_evicted_total", "NFA runs reclaimed by idle-partition sweeps."),
    ("runs_suppressed", "repro_query_runs_suppressed_total", "Run creations suppressed by the dedup policy."),
    ("detections", "repro_query_detections_total", "Detections the query emitted."),
)


def histogram_exposition(
    metric: str,
    help_text: str,
    histogram: LatencyHistogram,
    labels: Optional[Mapping[str, object]] = None,
) -> List[str]:
    """One histogram family as exposition lines.

    Renders cumulative ``_bucket`` samples ending at ``le="+Inf"``, then
    ``_sum`` and ``_count`` — the three series a Prometheus histogram
    consists of.
    """
    base = dict(labels or {})
    lines = [
        f"# HELP {metric} {help_text}",
        f"# TYPE {metric} histogram",
    ]
    for le, cumulative in histogram.bucket_pairs():
        lines.append(
            prometheus_sample(f"{metric}_bucket", cumulative, {**base, "le": le})
        )
    lines.append(prometheus_sample(f"{metric}_sum", histogram.sum, base))
    lines.append(prometheus_sample(f"{metric}_count", histogram.count, base))
    return lines


#: Durability counter families: snapshot key -> (metric name, type, help).
_DURABILITY_FAMILIES: Tuple[Tuple[str, str, str, str], ...] = (
    ("entries_appended", "repro_durability_entries_appended_total", "counter", "Entries appended to the event log."),
    ("bytes_appended", "repro_durability_bytes_appended_total", "counter", "Bytes appended to the event log."),
    ("fsyncs", "repro_durability_fsyncs_total", "counter", "fsync calls issued by the event log."),
    ("segments_rotated", "repro_durability_segments_rotated_total", "counter", "Event-log segment rotations."),
    ("snapshots_taken", "repro_durability_snapshots_total", "counter", "State snapshots persisted."),
    ("snapshot_seconds", "repro_durability_snapshot_seconds_total", "counter", "Seconds spent capturing snapshots."),
    ("entries_replayed", "repro_durability_entries_replayed_total", "counter", "Log entries replayed during recovery."),
    ("recoveries", "repro_durability_recoveries_total", "counter", "Completed recoveries."),
)


class ShardMetrics:
    """Counters of one worker shard.  All methods are thread-safe."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self._lock = threading.Lock()
        self._tuples_enqueued = 0
        self._tuples_processed = 0
        self._tuples_dropped = 0
        self._batches_processed = 0
        self._detections = 0
        self._queue_depth_hwm = 0
        self._busy_seconds = 0.0
        self._errors = 0
        # Latency histograms.  Single-writer by construction (whichever
        # thread delivers the shard's ``done`` messages: the worker thread
        # itself, or a process transport's listener), so not lock-protected.
        self.queue_wait = LatencyHistogram()
        self.batch_processing = LatencyHistogram()

    # -- producer side ---------------------------------------------------------------

    def add_enqueued(self, count: int) -> None:
        with self._lock:
            self._tuples_enqueued += count

    def add_dropped(self, count: int) -> None:
        with self._lock:
            self._tuples_dropped += count

    def record_queue_depth(self, depth: int) -> None:
        with self._lock:
            if depth > self._queue_depth_hwm:
                self._queue_depth_hwm = depth

    # -- worker side -----------------------------------------------------------------

    def add_processed(self, count: int, busy_seconds: float = 0.0) -> None:
        with self._lock:
            self._tuples_processed += count
            self._batches_processed += 1
            self._busy_seconds += busy_seconds

    def add_detections(self, count: int = 1) -> None:
        with self._lock:
            self._detections += count

    def add_error(self) -> None:
        with self._lock:
            self._errors += 1

    def record_queue_wait(self, seconds: float) -> None:
        """One enqueue→dequeue latency sample (delivery thread only)."""
        self.queue_wait.record(seconds)

    def record_batch_seconds(self, seconds: float) -> None:
        """One batch-processing duration sample (delivery thread only)."""
        self.batch_processing.record(seconds)

    # -- readers ---------------------------------------------------------------------

    @property
    def tuples_enqueued(self) -> int:
        with self._lock:
            return self._tuples_enqueued

    @property
    def tuples_processed(self) -> int:
        with self._lock:
            return self._tuples_processed

    @property
    def tuples_dropped(self) -> int:
        with self._lock:
            return self._tuples_dropped

    @property
    def detections(self) -> int:
        with self._lock:
            return self._detections

    @property
    def queue_depth_hwm(self) -> int:
        with self._lock:
            return self._queue_depth_hwm

    @property
    def backlog(self) -> int:
        """Tuples enqueued but not yet processed (or dropped)."""
        with self._lock:
            return self._tuples_enqueued - self._tuples_processed - self._tuples_dropped

    @property
    def tuples_per_second(self) -> float:
        """Worker-side throughput over the shard's busy time only."""
        with self._lock:
            if self._busy_seconds <= 0:
                return 0.0
            return self._tuples_processed / self._busy_seconds

    def snapshot(self) -> Dict[str, float]:
        """A JSON-serialisable copy of every counter."""
        with self._lock:
            return {
                "shard_id": self.shard_id,
                "tuples_enqueued": self._tuples_enqueued,
                "tuples_processed": self._tuples_processed,
                "tuples_dropped": self._tuples_dropped,
                "batches_processed": self._batches_processed,
                "detections": self._detections,
                "queue_depth_hwm": self._queue_depth_hwm,
                "busy_seconds": round(self._busy_seconds, 6),
                "tuples_per_second": round(
                    self._tuples_processed / self._busy_seconds, 1
                )
                if self._busy_seconds > 0
                else 0.0,
                "errors": self._errors,
            }

    def __repr__(self) -> str:
        snap = self.snapshot()
        return (
            f"ShardMetrics(shard={snap['shard_id']}, "
            f"processed={snap['tuples_processed']}, "
            f"dropped={snap['tuples_dropped']}, "
            f"detections={snap['detections']}, "
            f"queue_hwm={snap['queue_depth_hwm']})"
        )


class DurabilityMetrics:
    """Counters of the durability subsystem (event log + snapshots).

    Maintained by :class:`repro.persistence.DurabilityManager` and exposed
    through ``session.metrics`` like the shard counters, so one registry
    snapshot covers the whole stack.  All methods are thread-safe.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries_appended = 0
        self._bytes_appended = 0
        self._fsyncs = 0
        self._segments_rotated = 0
        self._snapshots_taken = 0
        self._snapshot_seconds = 0.0
        self._entries_replayed = 0
        self._recoveries = 0
        #: fsync duration distribution; the event log is single-writer.
        self.fsync_latency = LatencyHistogram()

    def add_append(self, byte_count: int, entries: int = 1) -> None:
        with self._lock:
            self._entries_appended += entries
            self._bytes_appended += byte_count

    def add_fsync(self, count: int = 1, duration_seconds: Optional[float] = None) -> None:
        with self._lock:
            self._fsyncs += count
        if duration_seconds is not None:
            self.fsync_latency.record(duration_seconds)

    def add_rotation(self) -> None:
        with self._lock:
            self._segments_rotated += 1

    def add_snapshot(self, duration_seconds: float) -> None:
        with self._lock:
            self._snapshots_taken += 1
            self._snapshot_seconds += duration_seconds

    def add_replayed(self, entries: int) -> None:
        with self._lock:
            self._entries_replayed += entries

    def add_recovery(self) -> None:
        with self._lock:
            self._recoveries += 1

    @property
    def entries_appended(self) -> int:
        with self._lock:
            return self._entries_appended

    @property
    def bytes_appended(self) -> int:
        with self._lock:
            return self._bytes_appended

    @property
    def fsyncs(self) -> int:
        with self._lock:
            return self._fsyncs

    @property
    def segments_rotated(self) -> int:
        with self._lock:
            return self._segments_rotated

    @property
    def snapshots_taken(self) -> int:
        with self._lock:
            return self._snapshots_taken

    def snapshot(self) -> Dict[str, float]:
        """A JSON-serialisable copy of every counter."""
        with self._lock:
            return {
                "entries_appended": self._entries_appended,
                "bytes_appended": self._bytes_appended,
                "fsyncs": self._fsyncs,
                "segments_rotated": self._segments_rotated,
                "snapshots_taken": self._snapshots_taken,
                "snapshot_seconds": round(self._snapshot_seconds, 6),
                "entries_replayed": self._entries_replayed,
                "recoveries": self._recoveries,
            }

    def __repr__(self) -> str:
        snap = self.snapshot()
        return (
            f"DurabilityMetrics(entries={snap['entries_appended']}, "
            f"bytes={snap['bytes_appended']}, fsyncs={snap['fsyncs']}, "
            f"snapshots={snap['snapshots_taken']})"
        )


class MetricsRegistry:
    """Shard id → :class:`ShardMetrics`, plus aggregate views.

    Shard entries are created on first access, so sinks and callers can
    read the registry before the runtime has started.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._shards: Dict[int, ShardMetrics] = {}
        #: Event-log / snapshot counters; populated by the durability
        #: subsystem, zeroes when durability is off.
        self.durability = DurabilityMetrics()
        #: Registry-level latency histograms (``ingest_to_detection``).
        self._histograms: Dict[str, LatencyHistogram] = {}
        #: Called before exposition so lazily-collected sources (process
        #: shards, matcher stats) can push fresh numbers in.
        self._refresh_hooks: List[Callable[[], None]] = []
        #: ``() -> {query_name: {stats_key: int}}`` for per-query series.
        self._query_stats_provider: Optional[
            Callable[[], Mapping[str, Mapping[str, int]]]
        ] = None

    def shard(self, shard_id: int) -> ShardMetrics:
        with self._lock:
            metrics = self._shards.get(shard_id)
            if metrics is None:
                metrics = self._shards[shard_id] = ShardMetrics(shard_id)
            return metrics

    def shard_ids(self) -> List[int]:
        with self._lock:
            return sorted(self._shards)

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
        """Pull from every lazily-collected source (process shards etc.).

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
        """Counters summed over every shard (gauges take the max, not the sum).

        The key set is derived from ``_SHARD_FAMILIES`` so a counter family
        added there can never silently drop out of totals or the JSON
        snapshots.
        """
        snapshots = [self.shard(shard_id).snapshot() for shard_id in self.shard_ids()]
        totals: Dict[str, float] = {
            key: 0.0 if key == "busy_seconds" else 0
            for key, _metric, _kind, _help in _SHARD_FAMILIES
        }
        for snap in snapshots:
            for key, _metric, kind, _help in _SHARD_FAMILIES:
                if kind == "gauge":
                    totals[key] = max(totals[key], snap[key])
                else:
                    totals[key] += snap[key]
        totals["busy_seconds"] = round(totals["busy_seconds"], 6)
        return totals

    def merged_histograms(self) -> Dict[str, LatencyHistogram]:
        """Every histogram family, merged across its per-shard parts."""
        shards = [self.shard(shard_id) for shard_id in self.shard_ids()]
        merged = {
            "queue_wait": LatencyHistogram.merged(s.queue_wait for s in shards),
            "batch_processing": LatencyHistogram.merged(
                s.batch_processing for s in shards
            ),
            "fsync": LatencyHistogram.merged([self.durability.fsync_latency]),
        }
        with self._lock:
            extra = dict(self._histograms)
        for key, histogram in extra.items():
            merged[key] = LatencyHistogram.merged([histogram])
        return merged

    def snapshot(self) -> Dict[str, object]:
        """Full JSON-serialisable view: per-shard, totals and durability."""
        return {
            "shards": [
                self.shard(shard_id).snapshot() for shard_id in self.shard_ids()
            ],
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

    def to_prometheus(self, labels: Optional[Mapping[str, object]] = None) -> str:
        """The registry in the Prometheus text exposition format (0.0.4).

        Per-shard counters carry a ``shard`` label; durability counters are
        registry-wide.  ``labels`` (e.g. ``{"tenant": name}``) are merged
        into **every** sample, which is how a multi-tenant exporter renders
        many registries into one scrape body without name collisions.  Ends
        with a newline, so bodies concatenate cleanly.
        """
        scrape_started = _perf_clock()
        self.collect()
        base = dict(labels or {})
        lines: List[str] = list(build_info_exposition(base))
        shard_snapshots = [
            self.shard(shard_id).snapshot() for shard_id in self.shard_ids()
        ]
        for key, metric, kind, help_text in _SHARD_FAMILIES:
            if not shard_snapshots:
                break
            lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} {kind}")
            for snap in shard_snapshots:
                lines.append(
                    prometheus_sample(
                        metric, snap[key], {**base, "shard": snap["shard_id"]}
                    )
                )
        durability = self.durability.snapshot()
        for key, metric, kind, help_text in _DURABILITY_FAMILIES:
            lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} {kind}")
            lines.append(prometheus_sample(metric, durability[key], base))
        merged = self.merged_histograms()
        for key, metric, help_text in _HISTOGRAM_FAMILIES:
            histogram = merged.get(key)
            if histogram is None:
                histogram = LatencyHistogram()
            lines.extend(histogram_exposition(metric, help_text, histogram, base))
        provider = self._query_stats_provider
        if provider is not None:
            per_query = provider()
            for key, metric, help_text in _QUERY_FAMILIES:
                lines.append(f"# HELP {metric} {help_text}")
                lines.append(f"# TYPE {metric} counter")
                for query_name in sorted(per_query):
                    lines.append(
                        prometheus_sample(
                            metric,
                            per_query[query_name].get(key, 0),
                            {**base, "query": query_name},
                        )
                    )
        # Self-timed: how long this scrape's collect + render took.  The
        # collect() above dominates (it may broadcast to process shards),
        # which is exactly what an operator watching scrape cost cares about.
        lines.append(
            "# HELP repro_scrape_duration_seconds Seconds this registry "
            "spent collecting and rendering the exposition."
        )
        lines.append("# TYPE repro_scrape_duration_seconds gauge")
        lines.append(
            prometheus_sample(
                "repro_scrape_duration_seconds", _perf_clock() - scrape_started, base
            )
        )
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        totals = self.totals()
        return (
            f"MetricsRegistry(shards={len(self.shard_ids())}, "
            f"processed={totals['tuples_processed']}, "
            f"detections={totals['detections']})"
        )
