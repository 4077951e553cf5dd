"""Per-layer metrics of a traced run (``--trace 1``).

Times come from the spans :mod:`tracing` recorded around each layer's public
callables, folded slice by slice at the slice's machine speed; counts come
from the program's own counters (``session.query_stats()``,
``session.metrics.snapshot()``, the gateway's edge metrics) read before and
after the traced throughput phase.  Shard worker *processes* do not inherit
the wrappers: their side is read from the shard metrics, and the transport
between them and the parent is timed by hand.

A metric that does not exist on a workload (no router inline, no journal on
the gateway) reads 0.
"""

from __future__ import annotations

import pickle
import statistics
from typing import Any, Dict, Mapping

from . import metrics, refclock
from .harness import Bench
from .measure import raw_percentile
from .tracing import Tracer

#: Matcher counters summed over the deployed queries.
_STAT_KEYS = (
    "tuples_processed",
    "predicate_evaluations",
    "gate_rejections",
    "runs_started",
    "runs_advanced",
    "runs_completed",
    "runs_pruned",
    "detections",
)


def stat_totals(stats: Mapping[str, Mapping[str, int]]) -> Dict[str, int]:
    return {key: sum(query.get(key, 0) for query in stats.values()) for key in _STAT_KEYS}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def time_pickle(workload: Any) -> None:
    """Transport cost, by hand: pickle round trips of the batches a shard is sent."""
    bench = workload.bench
    phase = bench.phase("pickle")
    router = workload.session.runtime.router
    total_bytes = 0
    for _ in range(3):
        bench.segment(phase)
        with bench.slice(phase) as piece:
            for bucket in router.split(workload.inputs.tile):
                for start in range(0, len(bucket), 64):
                    blob = pickle.dumps(bucket[start : start + 64], pickle.HIGHEST_PROTOCOL)
                    pickle.loads(blob)
                    total_bytes += len(blob)
            piece.units = len(workload.inputs.tile)
    workload.probe["pickle_bytes_per_tuple"] = total_bytes / phase.units


def per_layer(bench: Bench, workload: Any, tracer: Tracer) -> Dict[str, float]:
    phases = bench.phases
    probe: Dict[str, Any] = workload.probe
    throughput = phases["throughput"]
    latency = phases["latency"]
    fed = max(1, probe.get("tuples", 0))
    stats = probe.get("stats", {key: 0 for key in _STAT_KEYS})
    before: Mapping[str, Any] = probe.get("metrics_before") or {}
    after: Mapping[str, Any] = probe.get("metrics_after") or {}

    def micro(phase: str, name: str, attribute: str = "total_s") -> float:
        return tracer.per_unit(phase, name, attribute) * 1e6

    def per_call_ms(phase: str, name: str) -> float:
        totals = tracer.get(phase, name)
        return _ratio(totals.total_s, totals.calls) * 1e3

    def delta(section: str, key: str) -> float:
        return after.get(section, {}).get(key, 0) - before.get(section, {}).get(key, 0)

    speeds = [refclock.REF_NOMINAL_S / reading for reading in bench.ref.readings]
    speed_p50 = statistics.median(speeds)
    all_slices = [piece for phase in phases.values() for piece in phase.slices]

    # Time under the slices' root spans that no wrapped callable accounts for:
    # the root minus the self time of every span on its own thread.  (Spans on
    # other threads overlap the root — or wait for the interpreter lock — and
    # coroutine spans are waiting, not work; neither belongs in the sum.)
    root = tracer.get("throughput", "root")
    accounted = sum(
        totals.home_self_s
        for (phase, name), totals in tracer.folded.items()
        if phase == "throughput" and name != "root" and name not in tracer.waiting
    )
    unattributed = _ratio(root.total_s - accounted, tracer.units.get("throughput", 0)) * 1e6

    # Worker processes: busy time from the shard metrics (raw seconds, brought
    # to nominal with the run's median speed).
    batch_us = micro("throughput", "cep.matcher.process_batch")
    if workload.session is not None and workload.session.runtime is not None:
        batch_us = _ratio(delta("totals", "busy_seconds") * speed_p50, fed) * 1e6

    recoveries = max(1, tracer.get("recover", "persistence.recover").calls)
    restore = tracer.get("recover", "persistence.recover.restore")
    replay_s = tracer.get("recover", "persistence.recover").total_s - restore.total_s
    events = latency.sample_count("detect")
    paced = phases.get("paced")
    lags = [
        sample
        for piece in (paced.slices if paced is not None else ())
        for sample in piece.samples.get("lag", ())
    ]
    histograms = after.get("histograms", {})
    tuples_per_segment = _ratio(throughput.units, len(throughput.segments))
    gateway = "gateway.loop_lag_max_ms" in workload.extra

    values = {
        "api.feed_self_us_per_tuple": micro("throughput", "api.feed", "self_s"),
        "cep.engine.fanout_self_us_per_tuple": micro("throughput", "cep.engine.push_many", "self_s"),
        "transform.us_per_tuple": micro("throughput", "transform"),
        "transform.calls_per_tuple": tracer.per_unit("throughput", "transform", "calls"),
        "cep.matcher.batch_us_per_tuple": batch_us,
        "cep.matcher.single_us_per_tuple": micro("latency", "cep.matcher.process"),
        "cep.matcher.predicate_evals_per_tuple": _ratio(stats["predicate_evaluations"], fed),
        "cep.matcher.gate_rejection_ratio": _ratio(stats["gate_rejections"], stats["tuples_processed"]),
        "cep.matcher.runs_started_per_tuple": _ratio(stats["runs_started"], fed),
        "cep.matcher.runs_advanced_per_tuple": _ratio(stats["runs_advanced"], fed),
        "cep.matcher.runs_pruned_per_tuple": _ratio(stats["runs_pruned"], fed),
        "cep.matcher.completion_ratio": _ratio(stats["runs_completed"], stats["runs_started"]),
        "cep.matcher.active_runs_peak": probe.get("active_runs_peak", 0),
        "detection.dispatch_us_per_event": per_call_ms("latency", "detection.dispatch") * 1e3,
        "detection.events_per_tuple": _ratio(stats["detections"], fed),
        "runtime.router.split_us_per_tuple": micro("throughput", "runtime.router.split"),
        "runtime.router.skew": probe.get("router_skew", 0.0),
        "runtime.transport.pickle_us_per_tuple": (
            phases["pickle"].seconds_per_unit() * 1e6 if "pickle" in phases else 0.0
        ),
        "runtime.transport.bytes_per_tuple": probe.get("pickle_bytes_per_tuple", 0.0),
        "runtime.push_self_us_per_tuple": micro("throughput", "runtime.push_many", "self_s"),
        "runtime.drain_wait_ms_per_segment": (
            tracer.per_unit("throughput", "runtime.drain") * tuples_per_segment * 1e3
        ),
        "runtime.shard.busy_share": _ratio(
            delta("totals", "busy_seconds"), probe.get("shards", 0) * probe.get("wall_s", 0.0)
        ),
        "runtime.queue.wait_p50_ms": histograms.get("queue_wait", {}).get("p50_seconds", 0.0) * 1e3,
        "runtime.queue.depth_peak": after.get("totals", {}).get("queue_depth_hwm", 0),
        "runtime.drops": after.get("totals", {}).get("tuples_dropped", 0),
        "runtime.results.merge_us_per_detection": (
            phases["merge"].seconds_per_unit() * 1e6 if "merge" in phases else 0.0
        ),
        "runtime.thread2_vs_inline_ratio": probe.get("thread2_vs_inline_ratio", 0.0),
        "gateway.protocol.decode_us_per_tuple": micro("throughput", "gateway.protocol.decode", "self_s"),
        "gateway.protocol.encode_us_per_tuple": micro("throughput", "gateway.protocol.encode", "self_s"),
        "gateway.websocket.frame_us_per_tuple": micro("throughput", "gateway.websocket.frame", "self_s"),
        "gateway.websocket.wire_bytes_per_tuple": tracer.per_unit(
            "throughput", "gateway.websocket.frame", "amount"
        ),
        "gateway.ingest_wait_us_per_tuple": micro("latency", "gateway.ingest"),
        "gateway.event_push_us_per_event": _ratio(
            tracer.get("latency", "gateway.event_push").total_s, events
        )
        * 1e6,
        "gateway.unattributed_us_per_tuple": unattributed if gateway else 0.0,
        "gateway.loop_lag_max_ms": workload.extra.get("gateway.loop_lag_max_ms", 0.0),
        "gateway.dropped_ratio": workload.extra.get("gateway.dropped_ratio", 0.0),
        "persistence.log.append_us_per_tuple": micro("throughput", "persistence.log.append"),
        "persistence.log.bytes_per_tuple": _ratio(delta("durability", "bytes_appended"), fed),
        "persistence.log.fsyncs": after.get("durability", {}).get("fsyncs", 0),
        "persistence.log.rotations": after.get("durability", {}).get("segments_rotated", 0),
        "persistence.snapshot.capture_ms": (
            phases["snapshot"].nominal() * 1e3 if "snapshot" in phases else 0.0
        ),
        "persistence.snapshot.bytes": probe.get("snapshot_bytes", 0),
        "persistence.recover.restore_ms": _ratio(restore.total_s, recoveries) * 1e3,
        "persistence.recover.replay_us_per_tuple": _ratio(
            replay_s, recoveries * probe.get("replayed_tuples", 0)
        )
        * 1e6,
        "persistence.recover.entries_replayed": probe.get("replayed_entries", 0),
        "storage.serialization.dump_us_per_entry": per_call_ms(
            "throughput", "storage.serialization.dump"
        )
        * 1e3,
        "core.learner.add_sample_ms": per_call_ms("learn", "core.learner.add_sample"),
        "core.learner.description_ms": per_call_ms("learn", "core.learner.description"),
        "core.querygen.generate_ms": per_call_ms("learn", "core.querygen.generate"),
        "storage.database.save_ms": per_call_ms("learn", "storage.database.save"),
        "observability.telemetry_us_per_tuple": probe.get("telemetry_us_per_tuple", 0.0),
        "paced.detect_latency_p50_ms": (
            paced.percentile("detect", 0.50) * 1e3 if paced is not None else 0.0
        ),
        "paced.ack_latency_p50_ms": paced.percentile("ack", 0.50) * 1e3 if paced is not None else 0.0,
        "loadgen.lag_p50_ms": raw_percentile(lags, 0.50) * 1e3,
        "loadgen.lag_max_ms": max(lags, default=0.0) * 1e3,
        "tail.detect_latency_p99_ms": latency.percentile("detect", 0.99) * 1e3,
        "tail.ack_latency_p99_ms": latency.percentile("ack", 0.99) * 1e3,
        "harness.input_gen_s": phases["inputs"].nominal(),
        "ref.speed_p50": speed_p50,
        "ref.speed_min": min(speeds),
        "ref.torn_segment_share": _ratio(sum(piece.torn for piece in all_slices), len(all_slices)),
        "raw.tuples_per_s": throughput.raw_rate(),
        "trace.overhead_ratio": _ratio(phases["untraced"].rate(), throughput.rate()),
        "trace.unattributed_us_per_tuple": unattributed,
    }
    assert set(values) == set(metrics.PER_LAYER), set(values) ^ set(metrics.PER_LAYER)
    return {name: float(values[name]) for name in metrics.PER_LAYER}
