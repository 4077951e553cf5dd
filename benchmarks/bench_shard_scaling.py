"""B4 — the sharded runtime: correctness and shard-count scaling.

The sharded runtime (:mod:`repro.runtime`) executes the detection path
across N worker shards, routing every frame to its player's shard by a
stable partition hash.  Two measurements:

* **Equivalence** — replay a 16-user interleaved recording (8 deployed
  gesture queries, raw frames through each shard's ``kinect_t`` view) on a
  4-shard runtime over **both executors** in the interpreted, compiled
  and batched matcher configurations, and assert the per-player detection
  sequences are *identical* to a single inline engine's.  Sharding must
  never trade correctness for scale, whichever transport carries it.
* **Scaling** — end-to-end throughput (feed + drain) of
  ``GestureSession(shards=1/2/4/8)`` on the 16-user workload, recorded to
  ``BENCH_shard_scaling.json``.  ``shards=1`` is the inline engine path.

Interpreting the scaling numbers: worker *threads* on a GIL-bound CPython
build time-slice one core, so thread-sharding buys isolation and
backpressure, not speed.  Real parallelism needs the process executor and
multiple cores — the benchmark uses ``shard_executor="process"`` whenever
the machine has more than one CPU, and asserts the ≥2× speedup of
``shards=4`` over ``shards=1`` only where it is physically achievable
(≥ 4 CPUs) and timing is enabled (skipped in the untimed smoke pass, like
B1's timing assertion).  The measured ratio is always recorded in the
JSON either way.
"""

import os
import time

from benchmarks.conftest import THROUGHPUT_GESTURES, print_table, record_benchmark
from repro.api import GestureSession, SessionConfig
from repro.cep.matcher import MatcherConfig
from repro.evaluation import measure_throughput
from repro.kinect import generate_multiuser_recording
from repro.runtime import ShardedRuntime
from repro.runtime.shard import ShardEngineSpec

BATCH_SIZE = 64
USER_COUNT = 16
SHARD_COUNTS = (1, 2, 4, 8)
EQUIVALENCE_SHARDS = 4
SPEEDUP_SHARDS = 4
SPEEDUP_FACTOR = 2.0
#: CPUs needed before a 2x speedup of 4 process shards is physically
#: plausible (the routing/pickling parent thread occupies part of one).
SPEEDUP_MIN_CPUS = 4


def _make_recording(seed: int = 77):
    return generate_multiuser_recording(
        dict(THROUGHPUT_GESTURES[:4]),
        user_count=USER_COUNT,
        gestures_per_user=2,
        seed=seed,
    )


def _per_player_detections(detections):
    """Detection sequences keyed by (player, query) for exact equality."""
    grouped = {}
    for detection in detections:
        grouped.setdefault((detection.partition, detection.query_name), []).append(
            (
                detection.output,
                detection.timestamp,
                detection.start_timestamp,
                detection.step_timestamps,
            )
        )
    return grouped


def _run_sharded(
    queries,
    frames,
    compile_predicates=True,
    batch_size=None,
    shards=EQUIVALENCE_SHARDS,
    executor="thread",
):
    """Replay ``frames`` on a sharded runtime; returns its detections."""
    spec = ShardEngineSpec(matcher=MatcherConfig(compile_predicates=compile_predicates))
    with ShardedRuntime(shard_count=shards, spec=spec, executor=executor) as runtime:
        for query in queries:
            runtime.register_query(query)
        runtime.feed(frames, batch_size=batch_size)
        return runtime.detections()


def test_b4_sharded_detections_equal_inline_per_player(gesture_queries):
    recording = _make_recording()

    # Ground truth: the inline single-engine path (per-tuple, compiled).
    inline = measure_throughput(gesture_queries, recording.frames)
    baseline = _per_player_detections(inline.detections)
    assert baseline, "workload produced no detections; the comparison is vacuous"
    assert len({player for player, _ in baseline}) == USER_COUNT

    # A 4-shard runtime must reproduce it exactly, player by player, on
    # every matcher configuration and over both transports.
    for executor in ("thread", "process"):
        for label, kwargs in (
            ("interpreted", dict(compile_predicates=False)),
            ("compiled", dict()),
            ("batched", dict(batch_size=BATCH_SIZE)),
        ):
            sharded = _run_sharded(
                gesture_queries, recording.frames, executor=executor, **kwargs
            )
            assert _per_player_detections(sharded) == baseline, (executor, label)


def test_b4_shard_counts_are_equivalent(gesture_queries):
    """1, 2, 4 and 8 shards all detect identically (routing is lossless)."""
    recording = _make_recording(seed=78)
    reference = None
    for shards in SHARD_COUNTS:
        detections = _per_player_detections(
            _run_sharded(gesture_queries, recording.frames, shards=shards)
        )
        if reference is None:
            reference = detections
            assert reference
        else:
            assert detections == reference, f"shards={shards}"


def _session_throughput(frames, queries, shards, executor, repeats=3):
    """Best-of-N end-to-end session throughput (deploy once, feed+drain)."""
    config = SessionConfig(shards=shards, shard_executor=executor)
    best = 0.0
    detections = 0
    with GestureSession(config) as session:
        for query in queries:
            session.deploy(query)
        for _ in range(repeats):
            session.clear()
            started = time.perf_counter()
            session.feed(frames)
            session.drain()
            elapsed = time.perf_counter() - started
            best = max(best, len(frames) / elapsed)
        detections = len(session.detections())
    return best, detections


def test_b4_shard_scaling_throughput(benchmark, request, gesture_queries):
    recording = _make_recording()
    frames = recording.frames
    cpu_count = os.cpu_count() or 1
    executor = "process" if cpu_count > 1 else "thread"
    timing_enabled = not request.config.getoption("benchmark_disable", False)
    repeats = 3 if timing_enabled else 1

    rows = []
    throughput = {}
    detections = {}
    for shards in SHARD_COUNTS:
        tps, found = _session_throughput(
            frames, gesture_queries, shards, executor, repeats=repeats
        )
        throughput[shards] = tps
        detections[shards] = found
        rows.append(
            {
                "shards": shards,
                "executor": "inline" if shards == 1 else executor,
                "tuples_per_s": round(tps, 1),
                "realtime_x": round(tps / (30.0 * USER_COUNT), 1),
                "speedup_vs_1": round(tps / throughput[1], 2),
                "detections": found,
            }
        )
    print_table(f"B4: shard scaling ({USER_COUNT} users, 8 queries)", rows)

    # Sharding must never lose or invent detections, whatever the count.
    assert len(set(detections.values())) == 1, detections

    ratio = throughput[SPEEDUP_SHARDS] / throughput[1]
    record_benchmark(
        "shard_scaling",
        {
            "config": {
                "users": USER_COUNT,
                "queries": len(gesture_queries),
                "frames": len(frames),
                "shard_counts": list(SHARD_COUNTS),
                "executor": executor,
                "repeats": repeats,
                "timing_enabled": timing_enabled,
            },
            "rows": rows,
            "speedup_4_shards_vs_inline": round(ratio, 2),
            "speedup_asserted": timing_enabled and cpu_count >= SPEEDUP_MIN_CPUS,
        },
    )

    # The ≥2x claim is asserted where it is achievable: timing enabled and
    # enough cores for 4 process shards to actually run in parallel.  On a
    # single-core/GIL box the ratio is recorded but cannot exceed ~1.
    if timing_enabled and cpu_count >= SPEEDUP_MIN_CPUS:
        assert ratio >= SPEEDUP_FACTOR, (
            f"shards={SPEEDUP_SHARDS} reached only {ratio:.2f}x the inline "
            f"throughput on {cpu_count} CPUs; expected >= {SPEEDUP_FACTOR}x"
        )

    benchmark(
        _run_sharded, gesture_queries, frames, batch_size=BATCH_SIZE, shards=2
    )
