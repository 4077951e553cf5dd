"""The names, units and bounds of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root repeats this table for the driver;
the smoke test asserts the two agree, and that every run prints exactly
these names with these units.
"""

from __future__ import annotations

#: name -> (unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
#: The bounds are what this box allows (README, "Noise floor"): about three
#: times the worst seed-to-seed spread any workload showed in any set of ten
#: runs, never under 10 % and — the driver's limit — never over 25 %.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "tuples_per_s": ("1/s", "higher", 0.25),
    "cpu_us_per_tuple": ("us", "lower", 0.25),
    "detect_latency_p50_ms": ("ms", "lower", 0.20),
    "detect_latency_p90_ms": ("ms", "lower", 0.20),
    "ack_latency_p50_ms": ("ms", "lower", 0.25),
    "learn_ms_per_gesture": ("ms", "lower", 0.20),
    "recover_s": ("s", "lower", 0.25),
    "macro_f1": ("ratio", "higher", 0.10),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

#: name -> (unit, better).  Diagnostics of single layers: no bound.
PER_LAYER = {
    "api.feed_self_us_per_tuple": ("us", "lower"),
    "cep.engine.fanout_self_us_per_tuple": ("us", "lower"),
    "transform.us_per_tuple": ("us", "lower"),
    "transform.calls_per_tuple": ("count", "lower"),
    "cep.matcher.batch_us_per_tuple": ("us", "lower"),
    "cep.matcher.single_us_per_tuple": ("us", "lower"),
    "cep.matcher.predicate_evals_per_tuple": ("count", "lower"),
    "cep.matcher.gate_rejection_ratio": ("ratio", "higher"),
    "cep.matcher.runs_started_per_tuple": ("count", "lower"),
    "cep.matcher.runs_advanced_per_tuple": ("count", "lower"),
    "cep.matcher.runs_pruned_per_tuple": ("count", "lower"),
    "cep.matcher.completion_ratio": ("ratio", "higher"),
    "cep.matcher.active_runs_peak": ("count", "lower"),
    "detection.dispatch_us_per_event": ("us", "lower"),
    "detection.events_per_tuple": ("count", "lower"),
    "runtime.router.split_us_per_tuple": ("us", "lower"),
    "runtime.router.skew": ("ratio", "lower"),
    "runtime.transport.pickle_us_per_tuple": ("us", "lower"),
    "runtime.transport.bytes_per_tuple": ("B", "lower"),
    "runtime.push_self_us_per_tuple": ("us", "lower"),
    "runtime.drain_wait_ms_per_segment": ("ms", "lower"),
    "runtime.shard.busy_share": ("ratio", "higher"),
    "runtime.queue.wait_p50_ms": ("ms", "lower"),
    "runtime.queue.depth_peak": ("count", "lower"),
    "runtime.drops": ("count", "lower"),
    "runtime.results.merge_us_per_detection": ("us", "lower"),
    "runtime.thread2_vs_inline_ratio": ("ratio", "higher"),
    "gateway.protocol.decode_us_per_tuple": ("us", "lower"),
    "gateway.protocol.encode_us_per_tuple": ("us", "lower"),
    "gateway.websocket.frame_us_per_tuple": ("us", "lower"),
    "gateway.websocket.wire_bytes_per_tuple": ("B", "lower"),
    "gateway.ingest_wait_us_per_tuple": ("us", "lower"),
    "gateway.event_push_us_per_event": ("us", "lower"),
    "gateway.unattributed_us_per_tuple": ("us", "lower"),
    "gateway.loop_lag_max_ms": ("ms", "lower"),
    "gateway.dropped_ratio": ("ratio", "lower"),
    "persistence.log.append_us_per_tuple": ("us", "lower"),
    "persistence.log.bytes_per_tuple": ("B", "lower"),
    "persistence.log.fsyncs": ("count", "lower"),
    "persistence.log.rotations": ("count", "lower"),
    "persistence.snapshot.capture_ms": ("ms", "lower"),
    "persistence.snapshot.bytes": ("B", "lower"),
    "persistence.recover.restore_ms": ("ms", "lower"),
    "persistence.recover.replay_us_per_tuple": ("us", "lower"),
    "persistence.recover.entries_replayed": ("count", "lower"),
    "storage.serialization.dump_us_per_entry": ("us", "lower"),
    "core.learner.add_sample_ms": ("ms", "lower"),
    "core.learner.description_ms": ("ms", "lower"),
    "core.querygen.generate_ms": ("ms", "lower"),
    "storage.database.save_ms": ("ms", "lower"),
    "observability.telemetry_us_per_tuple": ("us", "lower"),
    "paced.detect_latency_p50_ms": ("ms", "lower"),
    "paced.ack_latency_p50_ms": ("ms", "lower"),
    "loadgen.lag_p50_ms": ("ms", "lower"),
    "loadgen.lag_max_ms": ("ms", "lower"),
    "tail.detect_latency_p99_ms": ("ms", "lower"),
    "tail.ack_latency_p99_ms": ("ms", "lower"),
    "harness.input_gen_s": ("s", "lower"),
    "ref.speed_p50": ("ratio", "higher"),
    "ref.speed_min": ("ratio", "higher"),
    "ref.torn_segment_share": ("ratio", "lower"),
    "raw.tuples_per_s": ("1/s", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.unattributed_us_per_tuple": ("us", "lower"),
}
