"""Tests for the sharded concurrent runtime (``repro.runtime``).

Covers the routing/queue/shard building blocks, the ``ShardedRuntime``
engine surface (equivalence with the inline engine per partition, failure
surfacing, metrics), the ``GestureSession(shards=N)`` integration, and the
concurrency guarantees of the sinks and stream fan-out the runtime relies
on.
"""

from __future__ import annotations

import json
import threading
import time
import zlib

import pytest

from reference_matcher import reference_detections
from repro.api import F, GestureSession, Q, SessionConfig
from repro.cep import CallbackSink, CEPEngine, FanOutSink, Sink
from repro.cep.sinks import DetectionLog
from repro.errors import (
    QueryRegistrationError,
    SerializationError,
    SessionStateError,
    ShardFailedError,
)
from repro.observability.health import HealthWatchdog
from repro.runtime import (
    HashPartitionRouter,
    RemoteShardError,
    ShardedRuntime,
    stable_partition_hash,
)
from repro.runtime.shard import ShardEngineSpec
from repro.streams import Stream

# ---------------------------------------------------------------------------
# Workload helpers: direct kinect_t tuples, no transform, fully deterministic
# ---------------------------------------------------------------------------

UPDOWN = (
    'SELECT "updown" MATCHING ( kinect_t(rhand_y > 400) -> '
    "kinect_t(rhand_y < 100) within 5 seconds );"
)
HIGH = 'SELECT "high" MATCHING kinect_t(rhand_y > 450);'


def make_frames(players=8, rounds=60):
    """An interleaved multi-player stream with staggered highs and lows."""
    frames = []
    ts = 0.0
    for round_index in range(rounds):
        for player in range(1, players + 1):
            phase = (round_index + player) % 4
            value = {0: 500.0, 1: 480.0, 2: 50.0, 3: 250.0}[phase]
            frames.append({"ts": ts, "player": player, "rhand_y": value})
            ts += 0.01
    return frames


def inline_detections(frames, queries=(UPDOWN, HIGH)):
    engine = CEPEngine()
    engine.create_stream("kinect_t")
    for query in queries:
        engine.register_query(query)
    engine.push_many("kinect_t", frames)
    return engine.detections()


def per_partition(detections):
    grouped = {}
    for d in detections:
        grouped.setdefault((d.partition, d.query_name), []).append(
            (d.output, d.timestamp, d.start_timestamp, d.step_timestamps)
        )
    return grouped


# ---------------------------------------------------------------------------
# Router
# ---------------------------------------------------------------------------


class TestRouter:
    def test_hash_is_stable_and_process_independent(self):
        # The canonical encoding pins the hash: CRC-32, not the salted
        # builtin hash, so routing agrees across runs and processes.
        assert stable_partition_hash(1) == zlib.crc32(b"\x02int:1")
        assert stable_partition_hash("p1") == zlib.crc32(b"\x04str:p1")
        assert stable_partition_hash(None) == zlib.crc32(b"\x00none")

    def test_equal_keys_route_identically(self):
        router = HashPartitionRouter(shard_count=7)
        assert router.shard_for_key(2) == router.shard_for_key(2.0)
        # True == 1 == 1.0 share one matcher partition, so one shard.
        assert (
            router.shard_for_key(True)
            == router.shard_for_key(1)
            == router.shard_for_key(1.0)
        )
        assert router.shard_for({"player": 3}) == router.shard_for_key(3)
        # Missing field falls into the shared None partition.
        assert router.shard_for({}) == router.shard_for_key(None)

    def test_same_key_same_shard_across_router_instances(self):
        a = HashPartitionRouter(shard_count=5)
        b = HashPartitionRouter(shard_count=5)
        for key in (1, 2, "x", None, 17.5):
            assert a.shard_for_key(key) == b.shard_for_key(key)

    def test_split_preserves_per_partition_order_and_loses_nothing(self):
        router = HashPartitionRouter(shard_count=3)
        frames = make_frames(players=6, rounds=10)
        buckets = router.split(frames)
        assert sum(len(b) for b in buckets) == len(frames)
        for player in range(1, 7):
            original = [f for f in frames if f["player"] == player]
            bucket = buckets[router.shard_for_key(player)]
            routed = [f for f in bucket if f["player"] == player]
            assert routed == original

    def test_validation(self):
        with pytest.raises(ValueError):
            HashPartitionRouter(shard_count=0)
        with pytest.raises(ValueError):
            HashPartitionRouter(shard_count=2, partition_field="")


# ---------------------------------------------------------------------------
# ShardedRuntime: one contract, run over both transports
# ---------------------------------------------------------------------------
#
# Each class below states the contract on the default thread executor and
# is subclassed once with ``EXECUTOR = "process"``, so every case runs over
# both transports (and keeps its historical test id on the thread one).


@pytest.fixture
def spec():
    return ShardEngineSpec(install_view=False)


class TestShardedRuntime:
    EXECUTOR = "thread"

    def runtime(self, spec, shards=2):
        return ShardedRuntime(shard_count=shards, spec=spec, executor=self.EXECUTOR)

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_per_partition_equivalence_with_inline_engine(self, spec, shards):
        frames = make_frames()
        baseline = per_partition(inline_detections(frames))
        assert baseline, "vacuous workload"
        with self.runtime(spec, shards) as runtime:
            runtime.register_query(UPDOWN)
            runtime.register_query(HIGH)
            runtime.push_many("kinect_t", frames)
            assert per_partition(runtime.detections()) == baseline

    def test_interpreted_and_batched_paths_are_equivalent_too(self, spec):
        # The interpreted path is the test oracle, ``ReferenceMatcher``.
        frames = make_frames()
        baseline = per_partition(reference_detections([UPDOWN, HIGH], "kinect_t", frames))
        assert baseline == per_partition(inline_detections(frames))
        with self.runtime(spec) as runtime:
            runtime.register_query(UPDOWN)
            runtime.register_query(HIGH)
            runtime.push_many("kinect_t", frames)
            assert per_partition(runtime.detections()) == baseline
        with self.runtime(spec) as runtime:
            runtime.register_query(UPDOWN)
            runtime.register_query(HIGH)
            runtime.push_many("kinect_t", frames, batch_size=16)
            assert per_partition(runtime.detections()) == baseline

    def test_detections_merge_is_globally_timestamp_ordered(self, spec):
        frames = make_frames()
        with self.runtime(spec, 3) as runtime:
            runtime.register_query(HIGH)
            runtime.push_many("kinect_t", frames)
            detections = runtime.detections()
        timestamps = [d.timestamp for d in detections]
        assert timestamps == sorted(timestamps)

    def test_per_partition_filter(self, spec):
        frames = make_frames(players=4)
        with self.runtime(spec) as runtime:
            runtime.register_query(HIGH)
            runtime.push_many("kinect_t", frames)
            for player in (1, 2, 3, 4):
                only = runtime.detections(partition=player)
                assert only
                assert all(d.partition == player for d in only)

    def test_deploy_after_feed_observes_prior_tuples(self, spec):
        # The queue is FIFO: a deploy control lands after already-queued
        # tuples, so the new query sees only later tuples — like inline.
        with self.runtime(spec) as runtime:
            runtime.register_query(HIGH)
            runtime.push_many(
                "kinect_t",
                [{"ts": 0.0, "player": p, "rhand_y": 500.0} for p in (1, 2)],
            )
            runtime.register_query(HIGH, name="late")
            runtime.push_many(
                "kinect_t",
                [{"ts": 1.0, "player": p, "rhand_y": 500.0} for p in (1, 2)],
            )
            assert len(runtime.detections("high")) == 4
            assert len(runtime.detections("late")) == 2

    def test_duplicate_registration(self, spec):
        with self.runtime(spec) as runtime:
            runtime.register_query(HIGH)
            with pytest.raises(QueryRegistrationError, match="already registered"):
                runtime.register_query(HIGH)

    def test_builder_chains_deploy_like_inline(self, spec):
        frames = make_frames(players=3)
        chain = Q.stream("kinect_t").where(F("rhand_y") > 450).named("high")
        baseline = per_partition(inline_detections(frames, queries=(HIGH,)))
        with self.runtime(spec) as runtime:
            runtime.register_query(chain)
            runtime.push_many("kinect_t", frames)
            assert per_partition(runtime.detections()) == baseline

    def test_unregister_and_enable(self, spec):
        with self.runtime(spec) as runtime:
            runtime.register_query(HIGH)
            runtime.enable_query("high", False)
            runtime.push_many(
                "kinect_t", [{"ts": 0.0, "player": 1, "rhand_y": 500.0}]
            )
            assert runtime.detections("high") == []
            runtime.enable_query("high", True)
            runtime.push_many(
                "kinect_t", [{"ts": 1.0, "player": 1, "rhand_y": 500.0}]
            )
            assert len(runtime.detections("high")) == 1
            runtime.unregister_query("high")
            assert runtime.query_names() == []

    def test_clear_detections(self, spec):
        with self.runtime(spec) as runtime:
            runtime.register_query(HIGH)
            runtime.push_many(
                "kinect_t", [{"ts": 0.0, "player": 1, "rhand_y": 500.0}]
            )
            assert runtime.detections()
            runtime.clear_detections()
            assert runtime.detections() == []

    def test_the_parents_log_is_each_detections_one_copy(self, spec):
        frames = make_frames(players=4, rounds=20)
        with self.runtime(spec) as runtime:
            runtime.register_query(HIGH)
            runtime.push_many("kinect_t", frames, batch_size=8)
            detections = runtime.detections()
            assert detections
            # A shard engine drops what left with its replies ...
            shard_states = runtime._broadcast("capture_state", None)
            assert [state["detections"] for state in shard_states] == [[], []]
            # ... and a snapshot still files each detection under its shard.
            state = runtime.capture_state()
            for shard_id in range(2):
                stored = state["shards"][str(shard_id)]["detections"]
                assert sorted(json.dumps(d, sort_keys=True) for d in stored) == sorted(
                    json.dumps(d.to_state(), sort_keys=True)
                    for d in detections
                    if runtime.router.shard_for_key(d.partition) == shard_id
                )

    def test_metrics_account_for_everything(self, spec):
        frames = make_frames(players=4, rounds=20)
        with self.runtime(spec) as runtime:
            runtime.register_query(HIGH)
            runtime.push_many("kinect_t", frames)
            expected = len(runtime.detections())
            totals = runtime.metrics.totals()
        assert totals["tuples_enqueued"] == len(frames)
        assert totals["tuples_processed"] == len(frames)
        assert totals["detections"] == expected > 0
        assert totals["queue_depth_hwm"] >= 1
        snapshot = runtime.metrics.snapshot()
        assert len(snapshot["shards"]) == 2

    def test_raising_sink_is_isolated_and_recorded(self, spec):
        frames = make_frames(players=2, rounds=5)
        with self.runtime(spec) as runtime:
            handle = runtime.register_query(HIGH)
            handle.sink.add(CallbackSink(lambda detection: 1 / 0))
            runtime.push_many("kinect_t", frames)
            detections = runtime.detections()
            assert detections  # the raising sink never killed a shard
            assert len(handle.sink.failures) == len(detections)
            assert all(
                isinstance(failure.error, ZeroDivisionError)
                for failure in handle.sink.failures
            )
        assert not runtime.failed

    def test_sinks_receive_detections_from_all_shards(self, spec):
        seen = []
        frames = make_frames(players=4)
        with self.runtime(spec) as runtime:
            handle = runtime.register_query(HIGH)
            handle.sink.add(CallbackSink(seen.append))
            runtime.push_many("kinect_t", frames)
            runtime.drain()
            assert len(seen) == len(handle.detections())
            assert {d.partition for d in seen} == {1, 2, 3, 4}

    def test_lifecycle_guards(self, spec):
        runtime = self.runtime(spec)
        runtime.start()
        with pytest.raises(Exception, match="already started"):
            runtime.start()
        runtime.stop()
        runtime.stop()  # idempotent
        with pytest.raises(Exception, match="stopped"):
            runtime.push_many("kinect_t", [{"ts": 0.0, "player": 1}])


class TestShardedRuntimeOnProcesses(TestShardedRuntime):
    EXECUTOR = "process"


# Module-level so they pickle by reference into a worker process.
def boom(value):
    return 1 / 0


def explode_on(value, target):
    return 1 / 0 if value == target else 1.0


class TestShardFailure:
    EXECUTOR = "thread"

    def runtime(self, spec):
        return ShardedRuntime(shard_count=2, spec=spec, executor=self.EXECUTOR)

    def assert_cause_is_zero_division(self, error):
        # A local worker hands over the original exception object.
        assert isinstance(error.cause, ZeroDivisionError)
        assert isinstance(error.__cause__, ZeroDivisionError)

    def _failing_runtime(self, spec):
        runtime = self.runtime(spec)
        runtime.start()
        runtime.register_function("boom", boom, 1)
        runtime.register_query(
            'SELECT "b" MATCHING kinect_t(boom(rhand_y) > 0);'
        )
        return runtime

    def test_failing_shard_surfaces_original_exception(self, spec):
        runtime = self._failing_runtime(spec)
        runtime.push_many(
            "kinect_t", [{"ts": 0.0, "player": 1, "rhand_y": 1.0}]
        )
        with pytest.raises(ShardFailedError) as excinfo:
            runtime.drain()
        self.assert_cause_is_zero_division(excinfo.value)

    def test_failure_stops_the_runtime_and_later_feeds_raise(self, spec):
        runtime = self._failing_runtime(spec)
        runtime.push_many(
            "kinect_t", [{"ts": 0.0, "player": 1, "rhand_y": 1.0}]
        )
        with pytest.raises(ShardFailedError):
            runtime.drain()
        assert runtime.failed
        assert runtime.stopped  # healthy shards were shut down gracefully
        with pytest.raises(ShardFailedError):
            runtime.push_many(
                "kinect_t", [{"ts": 1.0, "player": 2, "rhand_y": 1.0}]
            )
        # Collected results stay readable after the failure was surfaced.
        assert runtime.detections() == []

    def test_only_the_failing_partition_is_lost(self, spec):
        # Player 1 and player 2 hash to different shards of a 2-shard
        # runtime; a poisoned tuple for one must not fail the other.
        router = HashPartitionRouter(2)
        p_bad, p_good = 1, 2
        if router.shard_for_key(p_bad) == router.shard_for_key(p_good):
            p_good = next(
                p
                for p in range(2, 20)
                if router.shard_for_key(p) != router.shard_for_key(p_bad)
            )
        runtime = self.runtime(spec)
        runtime.start()
        runtime.register_function("explode_on", explode_on, 2)
        runtime.register_query(
            'SELECT "b" MATCHING kinect_t(explode_on(player, 1) > 0);'
        )
        runtime.push_many(
            "kinect_t",
            [
                {"ts": 0.0, "player": p_good, "rhand_y": 1.0},
                {"ts": 0.1, "player": p_bad, "rhand_y": 1.0},
            ],
        )
        with pytest.raises(ShardFailedError) as excinfo:
            runtime.drain()
        assert excinfo.value.shard_id == router.shard_for_key(p_bad)
        # The healthy shard's detection survived.
        assert [d.partition for d in runtime.detections()] == [p_good]


class TestShardFailureOnProcesses(TestShardFailure):
    EXECUTOR = "process"

    def assert_cause_is_zero_division(self, error):
        # The object stays in the child; its repr and traceback cross.
        assert isinstance(error.cause, RemoteShardError)
        assert "ZeroDivisionError" in str(error.cause)
        assert "boom" in error.cause.remote_traceback


# ---------------------------------------------------------------------------
# Admission: each shard bounds its tuples in flight, on both executors
# ---------------------------------------------------------------------------


# Module-level so it pickles by reference into a worker process.
def linger(seconds):
    time.sleep(seconds)
    return seconds


@pytest.mark.parametrize("executor", ["thread", "process"])
class TestAdmission:
    LINGER = 0.3

    def busy_runtime(self, spec, executor):
        """One shard of 3 credits, 2 of them held for ``2 * LINGER`` seconds."""
        runtime = ShardedRuntime(
            shard_count=1,
            spec=spec,
            executor=executor,
            queue_capacity=3,
        )
        runtime.start()
        runtime.register_function("linger", linger, 1)
        runtime.register_query('SELECT "slow" MATCHING kinect_t(linger(rhand_y) > 0);')
        runtime.push_many(
            "kinect_t",
            [{"ts": float(i), "player": 1, "rhand_y": self.LINGER} for i in range(2)],
        )
        assert runtime.shard_liveness()[0]["queue_depth"] == 2
        return runtime

    #: Two more tuples: one credit is free, so the chunk does not fit.
    LATE = [{"ts": 9.0 + i, "player": 1, "rhand_y": 0.0} for i in range(2)]

    def test_block_waits_for_done(self, spec, executor):
        runtime = self.busy_runtime(spec, executor)
        try:
            fed = threading.Event()

            def feed():
                runtime.push_many("kinect_t", self.LATE)
                fed.set()

            threading.Thread(target=feed, name="late-feed", daemon=True).start()
            assert not fed.wait(timeout=self.LINGER / 2)
            # The credits are exhausted and a producer waits on them; a
            # control takes none, so the deploy is admitted all the same.
            assert runtime.shard_liveness()[0]["queue_depth"] == 2
            runtime.register_query(HIGH)
            assert fed.wait(timeout=10.0)
            runtime.drain()
            totals = runtime.metrics.totals()
            assert totals["tuples_processed"] == 4
            assert totals["tuples_enqueued"] == 4
            assert totals["queue_depth_hwm"] == 2
            assert runtime.shard_liveness()[0]["queue_depth"] == 0
            assert runtime.query_names() == ["high", "slow"]
            assert len(runtime.detections("slow")) == 2
        finally:
            runtime.stop()


class TestProcessExecutor:
    def test_process_shards_detect_like_inline(self, spec):
        frames = make_frames(players=4, rounds=20)
        baseline = per_partition(inline_detections(frames))
        with ShardedRuntime(shard_count=2, spec=spec, executor="process") as runtime:
            runtime.register_query(UPDOWN)
            runtime.register_query(HIGH)
            runtime.push_many("kinect_t", frames)
            assert per_partition(runtime.detections()) == baseline
        assert runtime.stopped

    def test_unpicklable_control_raises_instead_of_hanging(self, spec):
        # multiprocessing pickles on a feeder thread, where a failure is
        # printed and the message lost: the caller used to wait forever on
        # an ack that could not come.
        outcome = []

        def register():
            try:
                runtime.register_function("f", lambda value: value, 1)
            except Exception as error:  # noqa: BLE001 — inspected below
                outcome.append(error)

        with ShardedRuntime(shard_count=2, spec=spec, executor="process") as runtime:
            caller = threading.Thread(target=register, daemon=True)
            caller.start()
            caller.join(timeout=10.0)
            assert not caller.is_alive(), "register_function() hung"
            (error,) = outcome
            assert isinstance(error, SerializationError)
            assert "register_function" in str(error)
            # The refusal cost nothing: the shards still serve.
            runtime.register_query(HIGH)
            runtime.push_many("kinect_t", [{"ts": 0.0, "player": 1, "rhand_y": 500.0}])
            assert len(runtime.detections()) == 1
        assert not runtime.failed

    def test_unpicklable_tuple_batch_fails_its_shard_loudly(self, spec):
        # Tuple batches are pickled on multiprocessing's feeder thread,
        # which used to print the error and drop the batch: drain()
        # returned normally and the lost chunk's credits never came back.
        router = HashPartitionRouter(2)
        bad, good = 1, next(p for p in range(2, 20) if router.shard_for_key(p) != router.shard_for_key(1))
        frames = [
            {"ts": 0.0, "player": good, "rhand_y": 500.0},
            {"ts": 0.0, "player": bad, "rhand_y": 500.0, "lock": threading.Lock()},
        ]
        with ShardedRuntime(shard_count=2, spec=spec, executor="process") as runtime:
            runtime.register_query(HIGH)
            runtime.push_many("kinect_t", frames)
            with pytest.raises(ShardFailedError) as excinfo:
                runtime.drain(timeout=30.0)
            assert excinfo.value.shard_id == router.shard_for_key(bad)
            assert isinstance(excinfo.value.cause, SerializationError)
            assert "'tuples' message" in str(excinfo.value.cause)
            with pytest.raises(ShardFailedError):
                runtime.push_many("kinect_t", frames[:1])
            assert [d.partition for d in runtime.detections()] == [good]
            # The health rules see the failure on the first read, not after
            # a stall window: session.health() evaluates exactly these rows.
            report = HealthWatchdog().evaluate({"shards": runtime.shard_liveness()}, now=0.0)
            assert report.status == "unhealthy"
            failed = f"shard-{router.shard_for_key(bad)}"
            assert ("shard-failed", failed) in {(r.code, r.subject) for r in report.reasons}
        runtime.join(timeout=30.0)
        # The failed shard's worker was healthy; stopping the runtime ends it too.
        assert not any(shard.transport.alive for shard in runtime._shards)

    def test_a_failed_shard_makes_session_health_unhealthy_at_once(self):
        records = [
            {"ts": 0.0, "player": player, "rhand_y": 500.0, "lock": threading.Lock()}
            for player in range(1, 5)
        ]
        with GestureSession(session_config(2, shard_executor="process")) as session:
            session.deploy(HIGH)
            with pytest.raises(ShardFailedError):
                session.feed(records, stream="kinect_t")
                session.drain()
            assert session.runtime.failed
            report = session.health(now=0.0)
            assert report.status == "unhealthy"
            assert {r.code for r in report.reasons} == {"shard-failed"}


# ---------------------------------------------------------------------------
# GestureSession integration
# ---------------------------------------------------------------------------


def session_config(shards, **kwargs):
    return SessionConfig(shards=shards, **kwargs)


class TestShardedSession:
    def _run_session(self, shards, frames, batch_size=None):
        events = []
        with GestureSession(session_config(shards, batch_size=batch_size)) as session:
            session.deploy(UPDOWN)
            session.deploy(HIGH)
            session.on_any(events.append)
            session.feed(frames, stream="kinect_t")
            detections = per_partition(session.detections())
        return detections, events

    def test_sharded_session_equals_inline_session(self):
        frames = make_frames()
        inline, inline_events = self._run_session(1, frames)
        sharded, sharded_events = self._run_session(4, frames)
        assert sharded == inline
        assert len(sharded_events) == len(inline_events) > 0
        batched, batched_events = self._run_session(4, frames, batch_size=32)
        assert batched == inline
        assert len(batched_events) == len(inline_events)

    def test_feedback_is_the_same_on_every_executor(self):
        # The feed stops mid-gesture, so partial matches stay open.
        frames = make_frames(rounds=41)
        readings = []
        for shards, executor in ((1, "thread"), (2, "thread"), (2, "process")):
            config = session_config(shards, shard_executor=executor, batch_size=64)
            with GestureSession(config) as session:
                session.deploy(UPDOWN)
                session.deploy(HIGH)
                session.feed(frames, stream="kinect_t")
                feedback = session.feedback()
            readings.append((feedback.progress, feedback.active_runs))
        inline = readings[0]
        assert inline[0]["updown"] > 0 and inline[1]["updown"] > 0
        assert readings[1] == inline
        assert readings[2] == inline

    def test_events_and_handlers_carry_partitions(self):
        frames = make_frames(players=3)
        with GestureSession(session_config(2)) as session:
            seen = []
            session.deploy(HIGH)
            session.on("high", seen.append)
            session.feed(frames, stream="kinect_t")
            assert {event.player for event in session.events} == {1, 2, 3}
            assert len(seen) == len(session.events)
            assert session.detections("high", partition=2)

    def test_on_any_under_concurrent_feed(self):
        # Two producer threads feed disjoint player populations at once;
        # every detection must be dispatched exactly once.
        frames_a = [
            {"ts": t * 0.01, "player": 1 + (t % 3), "rhand_y": 500.0}
            for t in range(150)
        ]
        frames_b = [
            {"ts": t * 0.01, "player": 11 + (t % 3), "rhand_y": 500.0}
            for t in range(150)
        ]
        with GestureSession(session_config(3, queue_capacity=64)) as session:
            session.deploy(HIGH)
            counter = {"events": 0}
            lock = threading.Lock()

            def handler(event):
                with lock:
                    counter["events"] += 1

            session.on_any(handler)
            threads = [
                threading.Thread(target=session.feed, args=(chunk,), kwargs={"stream": "kinect_t"})
                for chunk in (frames_a, frames_b)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            session.drain()
            assert counter["events"] == 300
            assert len(session.events) == 300
            assert len(session.detections()) == 300

    def test_handler_errors_stay_isolated_on_sharded_sessions(self):
        frames = make_frames(players=2, rounds=8)
        with GestureSession(session_config(2)) as session:
            session.deploy(HIGH)
            session.on("high", lambda event: 1 / 0)
            session.feed(frames, stream="kinect_t")
            assert session.detections("high")
            assert session.handler_errors
            assert all(
                isinstance(failure.error, ZeroDivisionError)
                for failure in session.handler_errors
            )

    def test_shard_failure_surfaces_through_the_session(self):
        with GestureSession(session_config(2)) as session:
            session.runtime.register_function("boom", lambda value: 1 / 0, 1)
            session.deploy('SELECT "b" MATCHING kinect_t(boom(rhand_y) > 0);')
            session.feed(
                [{"ts": 0.0, "player": 1, "rhand_y": 1.0}], stream="kinect_t"
            )
            with pytest.raises(ShardFailedError):
                session.drain()

    def test_metrics_and_guards(self):
        frames = make_frames(players=2, rounds=5)
        with GestureSession(session_config(2)) as session:
            session.deploy(HIGH)
            session.feed(frames, stream="kinect_t")
            session.drain()
            assert session.metrics.totals()["tuples_processed"] == len(frames)
            assert session.runtime is not None
            with pytest.raises(SessionStateError, match="sharded"):
                _ = session.engine
            with pytest.raises(SessionStateError):
                _ = session.view
            assert session.transformer is None
            with pytest.raises(SessionStateError, match="inline"):
                _ = session.workflow
        # Results — including metrics — stay readable after close.
        assert session.metrics.totals()["tuples_processed"] == len(frames)
        assert session.runtime.stopped

    def test_inline_session_has_no_runtime(self):
        with GestureSession() as session:
            assert session.runtime is None
            # Telemetry (on by default) gives the inline session its own
            # registry; with telemetry off there is nothing to report.
            assert session.metrics is not None
        from repro.api.session import SessionConfig

        with GestureSession(SessionConfig(telemetry=False)) as session:
            assert session.runtime is None
            assert session.metrics is None

    def test_handler_can_feed_a_frame_that_detects_again(self):
        # Dispatch is reentrant: a handler reacting to one detection may
        # feed another frame whose detection dispatches recursively.
        with GestureSession() as session:
            session.deploy(HIGH)
            fed = []

            def chain(event):
                if not fed:
                    fed.append(event)
                    session.feed_frame(
                        {"ts": 1.0, "player": 1, "rhand_y": 500.0},
                        stream="kinect_t",
                    )

            session.on("high", chain)
            session.feed_frame(
                {"ts": 0.0, "player": 1, "rhand_y": 500.0}, stream="kinect_t"
            )
            assert len(session.events) == 2

    def test_clear_resets_sharded_state(self):
        frames = make_frames(players=2, rounds=5)
        with GestureSession(session_config(2)) as session:
            session.deploy(HIGH)
            session.feed(frames, stream="kinect_t")
            assert session.detections()
            session.clear()
            assert session.detections() == []
            assert session.events == []
            session.feed(frames, stream="kinect_t")
            assert session.detections()


# ---------------------------------------------------------------------------
# Sink and stream concurrency (the guarantees the runtime builds on)
# ---------------------------------------------------------------------------


def _detection(ts=0.0, partition=None, output="x"):
    from repro.cep.matcher import Detection

    return Detection(
        output=output,
        query_name=output,
        timestamp=ts,
        start_timestamp=ts,
        step_timestamps=(ts,),
        partition=partition,
    )


class TestSinkConcurrency:
    def test_detection_log_snapshot_under_concurrent_extend(self):
        log = DetectionLog()
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                log.extend([_detection(ts=float(i))])
                i += 1

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            deadline = time.monotonic() + 0.3
            while time.monotonic() < deadline:
                snapshot = log.snapshot()
                # Snapshot is a copy: mutating it cannot corrupt the log.
                snapshot.clear()
                assert log.entries() is not None
        finally:
            stop.set()
            thread.join(timeout=2.0)
        assert len(log) > 0

    def test_detection_log_reads_are_copies(self):
        log = DetectionLog()
        log.extend([_detection()])
        log.snapshot().append(_detection(ts=1.0))
        log.entries().append(_detection(ts=1.0))
        assert len(log) == 1

    def test_fan_out_isolates_a_raising_sink(self):
        class ExplodingSink(Sink):
            def emit(self, detection):
                raise RuntimeError("sink is broken")

        healthy = []
        fan = FanOutSink([ExplodingSink(), CallbackSink(healthy.append)])
        for ts in (0.0, 1.0):
            # The first failure is re-raised after the full fan-out, so an
            # inline caller still observes it ...
            with pytest.raises(RuntimeError, match="sink is broken"):
                fan.emit(_detection(ts=ts))
        # ... but the healthy sink got everything and failures are recorded.
        assert len(healthy) == 2
        assert len(fan.failures) == 2
        assert all(
            isinstance(failure.error, RuntimeError) for failure in fan.failures
        )

    def test_detector_handler_errors_still_propagate_inline(self):
        # The pre-sharding contract of the raw detector API: a raising
        # on_gesture handler surfaces to the feeding caller (the session's
        # on() guard is the opt-in isolation layer).
        from repro.detection.detector import GestureDetector

        engine = CEPEngine()
        engine.create_stream("kinect_t")
        detector = GestureDetector(engine=engine)
        detector.deploy(HIGH)
        detector.on_gesture("high", lambda event: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            engine.push("kinect_t", {"ts": 0.0, "player": 1, "rhand_y": 500.0})


class TestStreamDeliveryIsolation:
    def test_push_batch_raising_subscriber_does_not_starve_the_rest(self):
        stream = Stream("s")
        seen_tuple, seen_batch = [], []

        def broken(item):
            raise RuntimeError("subscriber is broken")

        stream.subscribe(broken, name="broken")
        stream.subscribe(seen_tuple.append, name="per-tuple")
        stream.subscribe(
            lambda item: None, name="batched", batch_callback=seen_batch.extend
        )
        with pytest.raises(RuntimeError, match="subscriber is broken"):
            stream.push_batch([{"a": 1}, {"a": 2}])
        # Both later subscribers received the full chunk.
        assert seen_tuple == [{"a": 1}, {"a": 2}]
        assert seen_batch == [{"a": 1}, {"a": 2}]
        assert len(stream.delivery_errors) == 1
        assert stream.delivery_errors[0].subscriber == "broken"

    def test_push_raising_subscriber_does_not_starve_the_rest(self):
        stream = Stream("s")
        seen = []

        def broken(item):
            raise RuntimeError("boom")

        stream.subscribe(broken, name="broken")
        stream.subscribe(seen.append, name="ok")
        with pytest.raises(RuntimeError, match="boom"):
            stream.push({"a": 1})
        assert seen == [{"a": 1}]
        assert len(stream.delivery_errors) == 1

    def test_first_error_is_reraised_after_full_fanout(self):
        stream = Stream("s")

        def first(item):
            raise ValueError("first")

        def second(item):
            raise KeyError("second")

        stream.subscribe(first, name="first")
        stream.subscribe(second, name="second")
        with pytest.raises(ValueError, match="first"):
            stream.push({"a": 1})
        assert [f.subscriber for f in stream.delivery_errors] == ["first", "second"]
