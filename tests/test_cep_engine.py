"""Unit tests for the CEP engine, views and sinks."""

import contextlib
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from reference_matcher import merge_detections, reference_detections
from repro.cep.engine import CEPEngine
from repro.cep.matcher import Detection, MatcherConfig, NFAMatcher
from repro.cep import sinks
from repro.cep.sinks import CallbackSink, DetectionLog, FanOutSink
from repro.cep.views import RAW_STREAM_NAME, TRANSFORMED_STREAM_NAME, install_kinect_view
from repro.errors import (
    ExpressionError,
    QueryRegistrationError,
    QuerySyntaxError,
    UnknownStreamError,
)
from repro.kinect.skeleton import JOINTS
from repro.runtime import ShardedRuntime
from repro.runtime.shard import ShardEngineSpec
from repro.streams import SimulatedClock

SIMPLE_QUERY = 'SELECT "up" MATCHING s(x > 100);'
SEQ_QUERY = 'SELECT "seq" MATCHING s(x > 100) -> s(x > 200) within 1 seconds;'


def _detection(output="g", ts=0.0):
    return Detection(
        output=output, query_name=output, timestamp=ts, start_timestamp=ts,
        step_timestamps=(ts,),
    )


class TestSinks:
    def test_detection_log_appends_in_arrival_order_and_reads_merged(self):
        log = DetectionLog()
        late, p2, p1 = (
            Detection(output=o, query_name=o, timestamp=ts, start_timestamp=ts,
                      step_timestamps=(ts,), partition=p)
            for o, ts, p in (("a", 2.0, 1), ("a", 1.0, 2), ("b", 1.0, 1))
        )
        log.extend([late, p2, p1])
        assert len(log) == 3
        assert log.entries() == [late, p2, p1]
        assert log.snapshot() == [p1, p2, late]
        assert log.snapshot(query_name="a", partition=1) == [late]
        log.clear_query("a")
        assert log.entries() == [p1]
        log.clear()
        assert log.snapshot() == []

    def test_a_read_keys_only_what_arrived_since_the_last(self, monkeypatch):
        log = DetectionLog()
        log.extend([_detection("a", ts=2.0), _detection("b", ts=1.0)])
        assert [d.output for d in log.snapshot()] == ["b", "a"]
        built = []
        original = sinks.partition_sort_key

        def spy(partition):
            built.append(partition)
            return original(partition)

        monkeypatch.setattr(sinks, "partition_sort_key", spy)
        assert [d.output for d in log.snapshot()] == ["b", "a"]
        assert [d.output for d in log.snapshot(query_name="a")] == ["a"]
        assert built == []
        log.extend([_detection("c", ts=1.5)])
        assert [d.output for d in log.snapshot()] == ["b", "c", "a"]
        assert len(built) == 1

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(
                    st.tuples(
                        st.sampled_from([0.0, 1.0, 2.0]),
                        st.sampled_from([1, 2, "1", None, 1.0, True]),
                        st.sampled_from(["a", "b"]),
                    ),
                    max_size=6,
                ),
                st.sampled_from(["read", "clear_query", "none"]),
            ),
            max_size=8,
        )
    )
    def test_incremental_reads_are_the_full_merge(self, steps):
        # Whatever the appends and reads interleave, a read is the stable
        # (timestamp, partition key) sort of the arrival-ordered entries.
        log = DetectionLog()
        for batch, then in steps:
            log.extend(
                Detection(output=o, query_name=o, timestamp=ts, start_timestamp=ts,
                          step_timestamps=(ts,), partition=p)
                for ts, p, o in batch
            )
            if then == "read":
                assert log.snapshot() == merge_detections(log.entries())
            elif then == "clear_query":
                log.clear_query("a")
            assert log.snapshot(query_name="b") == merge_detections(
                d for d in log.entries() if d.query_name == "b"
            )
        assert log.snapshot() == merge_detections(log.entries())

    def test_callback_and_fanout(self):
        seen, also = [], []
        callback = CallbackSink(seen.append)
        fan_out = FanOutSink([callback, CallbackSink(also.append)])
        fan_out.emit(_detection())
        assert len(seen) == 1
        assert callback.emitted == 1
        assert also == seen

    def test_callback_sink_counts_only_delivered_detections(self):
        def explode(detection):
            raise RuntimeError("handler failed")

        sink = CallbackSink(explode)
        with pytest.raises(RuntimeError):
            sink.emit(_detection())
        assert sink.emitted == 0

    def test_a_sink_added_to_a_fanout_receives_later_detections(self):
        early, late = [], []
        fan_out = FanOutSink([CallbackSink(early.append)])
        fan_out.emit(_detection(ts=1.0))
        fan_out.add(CallbackSink(late.append))
        fan_out.emit(_detection(ts=2.0))
        assert [d.timestamp for d in early] == [1.0, 2.0]
        assert [d.timestamp for d in late] == [2.0]


class TestDetectionState:
    def test_state_round_trips_through_json(self):
        detection = Detection(
            output="swipe", query_name="swipe_v2", timestamp=2.5, start_timestamp=1.0,
            step_timestamps=(1.0, 1.75, 2.5), matched=({"x": 1.0}, {"x": 2.0}, {"x": 3.0}),
            partition=2,
        )
        state = json.loads(json.dumps(detection.to_state()))
        assert Detection.from_state(state) == detection

    def test_state_without_matched_tuples(self):
        detection = _detection(ts=4.0)
        state = detection.to_state()
        assert state["matched"] is None and state["partition"] is None
        assert Detection.from_state(state) == detection

    def test_duration_spans_first_to_last_event(self):
        detection = Detection(
            output="g", query_name="g", timestamp=3.0, start_timestamp=1.25,
            step_timestamps=(1.25, 3.0),
        )
        assert detection.duration == pytest.approx(1.75)


class TestEngineBasics:
    def test_register_and_query_text(self):
        engine = CEPEngine()
        engine.create_stream("s")
        deployed = engine.register_query(SIMPLE_QUERY)
        engine.push("s", {"ts": 0.0, "x": 150.0})
        assert [d.output for d in deployed.detections()] == ["up"]

    def test_deploy_creates_the_streams_it_names_and_feeding_others_is_refused(self):
        engine = CEPEngine()
        deployed = engine.register_query(SIMPLE_QUERY)
        assert "s" in engine.streams
        engine.push("s", {"ts": 0.0, "x": 150.0})
        assert len(deployed.detections()) == 1
        with pytest.raises(UnknownStreamError, match="nope"):
            engine.push("nope", {"ts": 0.1, "x": 150.0})
        with pytest.raises(UnknownStreamError, match="nope"):
            engine.push_many("nope", [{"ts": 0.1, "x": 150.0}])

    def test_duplicate_query_name_rejected(self):
        engine = CEPEngine()
        engine.create_stream("s")
        engine.register_query(SIMPLE_QUERY)
        with pytest.raises(QueryRegistrationError):
            engine.register_query(SIMPLE_QUERY)

    def test_invalid_query_text_raises_syntax_error(self):
        engine = CEPEngine()
        with pytest.raises(QuerySyntaxError):
            engine.register_query("SELECT nonsense nonsense")

    def test_unregister_query_detaches_from_stream(self):
        engine = CEPEngine()
        engine.create_stream("s")
        deployed = engine.register_query(SIMPLE_QUERY)
        engine.unregister_query("up")
        engine.push("s", {"ts": 0.0, "x": 150.0})
        assert deployed.detections() == []
        with pytest.raises(QueryRegistrationError):
            engine.unregister_query("up")

    def test_enable_disable_query(self):
        engine = CEPEngine()
        engine.create_stream("s")
        deployed = engine.register_query(SIMPLE_QUERY)
        engine.enable_query("up", False)
        engine.push("s", {"ts": 0.0, "x": 150.0})
        assert deployed.detections() == []
        engine.enable_query("up", True)
        engine.push("s", {"ts": 0.1, "x": 150.0})
        assert len(deployed.detections()) == 1

    def test_a_true_predicate_detects_every_tuple(self):
        engine = CEPEngine(clock=SimulatedClock())
        engine.register_query('SELECT "any" MATCHING s(true);')
        engine.push_many("s", [{"ts": 0.1 * i} for i in range(5)])
        assert [d.timestamp for d in engine.detections()] == pytest.approx(
            [0.0, 0.1, 0.2, 0.3, 0.4]
        )

    def test_sequence_query_with_timestamps(self):
        engine = CEPEngine()
        engine.create_stream("s")
        deployed = engine.register_query(SEQ_QUERY)
        engine.push("s", {"ts": 0.0, "x": 150.0})
        engine.push("s", {"ts": 0.5, "x": 250.0})
        assert len(deployed.detections()) == 1

    def test_sequence_query_respects_within(self):
        engine = CEPEngine()
        engine.create_stream("s")
        deployed = engine.register_query(SEQ_QUERY)
        engine.push("s", {"ts": 0.0, "x": 150.0})
        engine.push("s", {"ts": 5.0, "x": 250.0})
        assert deployed.detections() == []

    def test_detections_merge_and_sort_across_queries(self):
        engine = CEPEngine()
        engine.create_stream("s")
        engine.register_query('SELECT "a" MATCHING s(x > 0);')
        engine.register_query('SELECT "b" MATCHING s(x > 100);')
        engine.push("s", {"ts": 0.0, "x": 150.0})
        outputs = [d.output for d in engine.detections()]
        assert sorted(outputs) == ["a", "b"]
        engine.clear_detections()
        assert engine.detections() == []

    def test_additional_sink_receives_detections(self):
        engine = CEPEngine()
        engine.create_stream("s")
        seen = []
        engine.register_query(SIMPLE_QUERY).sink.add(CallbackSink(seen.append))
        engine.push("s", {"ts": 0.0, "x": 200.0})
        assert len(seen) == 1

    def test_register_custom_function_usable_in_queries(self):
        engine = CEPEngine()
        engine.create_stream("s")
        engine.register_function("double", lambda value: value * 2, arity=1)
        deployed = engine.register_query('SELECT "d" MATCHING s(double(x) > 10);')
        engine.push("s", {"ts": 0.0, "x": 6.0})
        assert len(deployed.detections()) == 1

    def test_query_names_and_get_query(self):
        engine = CEPEngine()
        engine.create_stream("s")
        engine.register_query(SIMPLE_QUERY)
        assert engine.query_names() == ["up"]
        assert engine.get_query("up").name == "up"
        with pytest.raises(QueryRegistrationError):
            engine.get_query("missing")

    def test_deployed_name_is_the_registration_name(self):
        engine = CEPEngine()
        engine.create_stream("s")
        deployed = engine.register_query(SIMPLE_QUERY, name="up_v2")
        assert deployed.name == "up_v2"
        assert engine.get_query(deployed.name) is deployed
        assert "up_v2" in repr(deployed)
        engine.unregister_query(deployed.name)
        assert engine.query_names() == []

    def test_tuples_without_timestamp_use_engine_clock(self):
        clock = SimulatedClock(start=3.0)
        engine = CEPEngine(clock=clock)
        engine.create_stream("s")
        deployed = engine.register_query(SIMPLE_QUERY)
        engine.push("s", {"x": 150.0})
        assert deployed.detections()[0].timestamp == pytest.approx(3.0)

    def test_engine_matcher_config_applies_to_every_query(self):
        engine = CEPEngine(matcher_config=MatcherConfig(store_matched_tuples=False))
        engine.create_stream("s")
        deployed = engine.register_query(SIMPLE_QUERY)
        engine.push("s", {"ts": 0.0, "x": 150.0})
        assert deployed.detections()[0].matched is None

    def test_configured_timestamp_field_is_honored(self):
        # The handler must read the engine's timestamp_field, not "ts".
        engine = CEPEngine(matcher_config=MatcherConfig(timestamp_field="t"))
        engine.create_stream("s")
        deployed = engine.register_query(SEQ_QUERY)
        engine.push("s", {"t": 0.0, "x": 150.0})
        engine.push("s", {"t": 5.0, "x": 250.0})
        assert deployed.detections() == []  # 5 s apart: within 1 s violated
        engine.push("s", {"t": 10.0, "x": 150.0})
        engine.push("s", {"t": 10.5, "x": 250.0})
        detections = deployed.detections()
        assert len(detections) == 1
        assert detections[0].timestamp == pytest.approx(10.5)

    def test_configured_timestamp_field_is_honored_on_batches(self):
        engine = CEPEngine(matcher_config=MatcherConfig(timestamp_field="t"))
        engine.create_stream("s")
        deployed = engine.register_query(SEQ_QUERY)
        engine.push_many(
            "s",
            [{"t": 0.0, "x": 150.0}, {"t": 5.0, "x": 250.0},
             {"t": 10.0, "x": 150.0}, {"t": 10.5, "x": 250.0}],
            batch_size=2,
        )
        assert [d.timestamp for d in deployed.detections()] == [pytest.approx(10.5)]


class TestBatchDispatch:
    RECORDS = [
        {"ts": index * 0.1, "x": 150.0 if index % 3 else 250.0}
        for index in range(24)
    ]

    def _deploy(self):
        engine = CEPEngine()
        engine.create_stream("s")
        return engine, engine.register_query(SEQ_QUERY)

    def test_push_many_batched_matches_per_tuple_detections(self):
        per_tuple_engine, per_tuple = self._deploy()
        per_tuple_engine.push_many("s", self.RECORDS)
        for batch_size in (1, 4, 100):
            batched_engine, batched = self._deploy()
            batched_engine.push_many("s", self.RECORDS, batch_size=batch_size)
            assert batched.detections() == per_tuple.detections(), f"batch_size={batch_size}"
        assert per_tuple.detections()  # the workload must actually detect

    def test_push_many_counts_tuples_on_both_paths(self):
        engine, _ = self._deploy()
        assert engine.push_many("s", self.RECORDS) == len(self.RECORDS)
        assert engine.push_many("s", self.RECORDS, batch_size=5) == len(self.RECORDS)
        assert engine.tuples_processed == 2 * len(self.RECORDS)

    def test_push_many_rejects_bad_batch_size(self):
        engine, _ = self._deploy()
        with pytest.raises(ValueError):
            engine.push_many("s", self.RECORDS, batch_size=0)

    def test_batched_push_flows_through_views(self):
        engine = CEPEngine()
        engine.create_stream("raw")
        engine.register_view(
            "doubled", "raw", lambda r: {"ts": r["ts"], "x": r["x"] * 2}
        )
        deployed = engine.register_query('SELECT "d" MATCHING doubled(x > 10);')
        engine.push_many(
            "raw", [{"ts": 0.0, "x": 6.0}, {"ts": 0.1, "x": 2.0}], batch_size=8
        )
        assert len(deployed.detections()) == 1

    def test_disabled_query_ignores_batches(self):
        engine, deployed = self._deploy()
        engine.enable_query(deployed.name, False)
        engine.push_many("s", self.RECORDS, batch_size=4)
        assert deployed.detections() == []


class TestCompileCache:
    def test_identical_predicates_share_compiled_closures(self):
        engine = CEPEngine()
        engine.create_stream("s")
        engine.register_query('SELECT "a" MATCHING s(x > 100);')
        misses = engine.compile_cache.misses
        engine.register_query('SELECT "b" MATCHING s(x > 100);', name="b")
        assert engine.compile_cache.misses == misses
        assert engine.compile_cache.hits >= 1

    def test_register_function_clears_the_cache(self):
        engine = CEPEngine()
        engine.create_stream("s")
        engine.register_query('SELECT "a" MATCHING s(x > 100);')
        assert len(engine.compile_cache) > 0
        engine.register_function("triple", lambda value: value * 3, arity=1)
        assert len(engine.compile_cache) == 0

    def test_engine_matches_the_interpreted_reference(self):
        records = [
            {"ts": index * 0.1, "x": 150.0 if index % 2 else 250.0}
            for index in range(12)
        ]
        engine = CEPEngine()
        engine.create_stream("s")
        deployed = engine.register_query(SEQ_QUERY)
        engine.push_many("s", records)
        assert deployed.detections() == reference_detections([SEQ_QUERY], "s", records)
        assert deployed.detections()


class TestViews:
    def test_kinect_view_transforms_frames(self, noiseless_simulator):
        engine = CEPEngine()
        view = install_kinect_view(engine)
        received = []
        engine.get_stream(TRANSFORMED_STREAM_NAME).subscribe(received.append)
        engine.push(RAW_STREAM_NAME, noiseless_simulator.measure_rest())
        assert len(received) == 1
        assert received[0]["torso_x"] == pytest.approx(0.0)
        assert view.tuples_processed == 1

    def test_view_stop_detaches(self, noiseless_simulator):
        engine = CEPEngine()
        view = install_kinect_view(engine)
        view.stop()
        received = []
        engine.get_stream(TRANSFORMED_STREAM_NAME).subscribe(received.append)
        engine.push(RAW_STREAM_NAME, noiseless_simulator.measure_rest())
        assert received == []
        assert not view.active

    def test_get_view_by_name(self):
        engine = CEPEngine()
        install_kinect_view(engine)
        assert engine.get_view(TRANSFORMED_STREAM_NAME).name == TRANSFORMED_STREAM_NAME
        with pytest.raises(UnknownStreamError):
            engine.get_view("missing")

    def test_custom_view_function(self):
        engine = CEPEngine()
        engine.create_stream("raw")
        engine.register_view("doubled", "raw", lambda r: {"x": r["x"] * 2})
        received = []
        engine.get_stream("doubled").subscribe(received.append)
        engine.push("raw", {"x": 4})
        assert received == [{"x": 8}]

    def test_rejected_record_does_not_drop_the_rest_of_its_batch(self):
        # A record the view function raises on costs only itself, as on the
        # per-tuple path; the first error still reaches the producer.
        engine = CEPEngine()
        engine.create_stream("raw")
        view = engine.register_view("doubled", "raw", lambda r: {"x": r["x"] * 2})
        received = []
        engine.get_stream("doubled").subscribe(received.append)
        records = [{"x": 1}, {"y": 0}, {"x": 2}, {}, {"x": 3}]
        with pytest.raises(KeyError, match="x"):
            engine.push_many("raw", records, batch_size=8)
        assert received == [{"x": 2}, {"x": 4}, {"x": 6}]
        assert view.tuples_processed == len(records)
        assert [failure.subscriber for failure in engine.get_stream("raw").delivery_errors] == [
            "doubled"
        ]


class TestQueriesSharingAStreamStayIsolated:
    """A tuple one query cannot read costs only the queries that read the bad
    field: the rest of the stream's queries still match it, the producer sees
    the first error, and the next push reaches every query again."""

    QUERIES = (
        'SELECT "a" MATCHING s(abs(y - 5) < 3 and abs(x - 5) < 3);',
        'SELECT "c" MATCHING s(abs(z - 5) < 3);',
        'SELECT "b" MATCHING s(abs(x - 5) < 3);',
    )

    def _engine(self):
        engine = CEPEngine(clock=SimulatedClock())
        engine.create_stream("s")
        for text in self.QUERIES:
            engine.register_query(text)
        return engine

    @staticmethod
    def _counts(engine):
        return {name: len(engine.detections(name)) for name in engine.query_names()}

    @staticmethod
    def _good(ts):
        return {"ts": ts, "player": 1, "x": 5.0, "y": 5.0, "z": 5.0}

    BAD = [
        pytest.param({}, ExpressionError, "no field 'y'", id="missing-field"),
        pytest.param({"y": "five", "z": "five"}, TypeError, "unsupported operand", id="string-value"),
    ]

    @pytest.mark.parametrize("extra, error, message", BAD)
    def test_per_tuple(self, extra, error, message):
        engine = self._engine()
        with pytest.raises(error, match=message):
            engine.push("s", {"ts": 0.0, "player": 1, "x": 5.0, **extra})
        assert self._counts(engine) == {"a": 0, "b": 1, "c": 0}
        failures = engine.get_stream("s").delivery_errors
        assert [failure.subscriber for failure in failures] == ["query:a", "query:c"]
        engine.push("s", self._good(1.0))
        assert self._counts(engine) == {"a": 1, "b": 2, "c": 1}

    @pytest.mark.parametrize("extra, error, message", BAD)
    def test_batched(self, extra, error, message):
        engine = self._engine()
        chunk = [{"ts": 0.0, "player": 1, "x": 5.0, **extra}, self._good(1.0), self._good(2.0)]
        with pytest.raises(error, match=message):
            engine.push_many("s", chunk, batch_size=8)
        # A query that raised gets none of the rest of its chunk; the others all of it.
        assert self._counts(engine) == {"a": 0, "b": 3, "c": 0}
        engine.push_many("s", [self._good(3.0)], batch_size=8)
        assert self._counts(engine) == {"a": 1, "b": 4, "c": 1}

    @pytest.mark.parametrize("extra, error, message", BAD)
    def test_a_chunk_that_raises_still_counts_what_it_passed_over(self, extra, error, message):
        # Players 2 and 3 stand away from every pose, so a chunk passes over
        # their tuples; player 1's tuple between them raises in "a" and "c".
        # Each passed-over tuple is still counted as a tuple fed alone is.
        away = {"x": 100.0, "y": 100.0, "z": 100.0}
        chunk = [
            {"ts": 0.0, "player": 2, **away},
            {"ts": 0.0, "player": 1, "x": 5.0, **extra},
            {"ts": 0.0, "player": 3, **away},
        ]
        batched, single = self._engine(), self._engine()
        with pytest.raises(error, match=message):
            batched.push_many("s", chunk, batch_size=8)
        for record in chunk:
            with contextlib.suppress(error):
                single.push("s", record)
        assert batched.query_stats() == single.query_stats()
        assert batched.query_stats()["a"]["gate_rejections"] == 2

    @pytest.mark.parametrize("batch_size", [None, 8], ids=["per-tuple", "batched"])
    def test_a_time_that_does_not_convert_fails_each_query_on_its_own(self, batch_size):
        engine = self._engine()
        with pytest.raises(ValueError, match="could not convert") as raised:
            engine.push_many("s", [{**self._good(0.0), "ts": "abc"}], batch_size=batch_size)
        failures = list(engine.get_stream("s").delivery_errors)
        assert [failure.subscriber for failure in failures] == ["query:a", "query:c", "query:b"]
        assert len({id(failure.error) for failure in failures}) == 3
        assert raised.value is failures[0].error
        assert {row["tuples_processed"] for row in engine.query_stats().values()} == {0}
        engine.push("s", self._good(1.0))
        assert self._counts(engine) == {"a": 1, "b": 1, "c": 1}

    @pytest.mark.parametrize("batch_size", [None, 4])
    def test_non_finite_coordinates_match_nothing_and_raise_nothing(self, batch_size):
        engine = self._engine()
        nan, inf = float("nan"), float("inf")
        frames = [
            {"ts": float(index), "player": 1, "x": x, "y": y, "z": z}
            for index, (x, y, z) in enumerate(
                [(nan, nan, nan), (inf, inf, inf), (-inf, -inf, -inf), (nan, 5.0, -inf)]
            )
        ]
        engine.push_many("s", frames, batch_size=batch_size)
        assert self._counts(engine) == {"a": 0, "b": 0, "c": 0}
        assert engine.query_stats()["b"]["tuples_processed"] == len(frames)


class TestAnUnhashablePartitionValue:
    """A partition value the wake state cannot look up: every query's matcher
    raises on it, each records its own failure, and the runs it passed over
    complete on the next tuple as if it had never come."""

    @staticmethod
    def _engine():
        engine = CEPEngine(clock=SimulatedClock())
        engine.create_stream("s")
        for number in range(3):
            centre = 10 * number
            engine.register_query(
                f'SELECT "g{number}" MATCHING s(abs(x - {centre}) < 2) -> '
                f"s(abs(y - {centre}) < 2) within 1 seconds;"
            )
        return engine

    OPEN = {"ts": 0.0, "player": 1, "x": 0.0, "y": -100.0}
    BAD = {"ts": 0.1, "player": [1], "x": 0.0, "y": 0.0}
    CLOSE = {"ts": 0.2, "player": 1, "x": -100.0, "y": 0.0}

    @pytest.mark.parametrize("batch_size", [None, 8], ids=["per-tuple", "batched"])
    def test_each_query_fails_alone_and_the_gesture_still_completes(self, batch_size):
        engine = self._engine()
        engine.push_many("s", [self.OPEN], batch_size=batch_size)
        if batch_size is None:
            assert engine._fanouts["s"].tracking  # woken by bit
        with pytest.raises(TypeError, match="unhashable") as raised:
            engine.push_many("s", [self.BAD], batch_size=batch_size)
        failures = list(engine.get_stream("s").delivery_errors)
        assert [failure.subscriber for failure in failures] == ["query:g0", "query:g1", "query:g2"]
        assert all(isinstance(failure.error, TypeError) for failure in failures)
        assert raised.value is failures[0].error
        engine.push_many("s", [self.CLOSE], batch_size=batch_size)
        stats = engine.query_stats()
        assert {name: row["tuples_processed"] for name, row in stats.items()} == {
            "g0": 3, "g1": 3, "g2": 3
        }
        clean = self._engine()
        clean.push_many("s", [self.OPEN, self.CLOSE], batch_size=batch_size)
        assert [(d.query_name, d.timestamp, d.partition) for d in engine.detections()] == [
            (d.query_name, d.timestamp, d.partition) for d in clean.detections()
        ] == [("g0", 0.2, 1)]


class TestStepIndexWiring:
    def test_the_index_is_built_lazily_and_only_where_it_answers_a_gate(self):
        engine = CEPEngine(clock=SimulatedClock())
        engine.create_stream("s")
        # Only the second step is indexable: a lookup per tuple would buy no gate.
        engine.register_query('SELECT "ud" MATCHING s(x > 400) -> s(x < 100) within 5 seconds;')
        fanout = engine._fanouts["s"]
        assert fanout.members is None
        engine.push("s", {"ts": 0.0, "x": 500.0})
        assert fanout.index.fields == ()
        engine.register_query('SELECT "w" MATCHING s(abs(x - 5) < 3);')
        assert fanout.members is None
        engine.push("s", {"ts": 1.0, "x": 50.0})
        assert [name for name, _, _ in fanout.index.fields] == ["x"]
        assert [len(engine.detections(name)) for name in ("ud", "w")] == [1, 0]
        engine.unregister_query("ud")
        engine.unregister_query("w")
        assert "s" not in engine._fanouts
        assert engine.get_stream("s").subscriber_count == 0


#: Reads only the right hand, and never fires.
HANDS_ONLY = 'SELECT "hands" MATCHING kinect_t(rhand_y > 100000);'
#: Reads the left elbow, and fires on every frame.
ELBOW = 'SELECT "elbow" MATCHING kinect_t(lelbow_y > -100000);'
HANDS = {"rhand", "lhand"}


class TestWakeOnBit:
    """Per tuple, a query's matcher is entered only when the tuple can change
    its runs; every other tuple is counted in bulk."""

    @staticmethod
    def _feed():
        # Four players, 20 rounds a quarter second apart.  Player 1 opens and
        # completes g0; player 2 opens g1 and lets it expire; the other
        # tuples fall outside every gate.
        frames = []
        for round_ in range(20):
            for player in range(1, 5):
                x, y = -100.0, -100.0
                if (round_, player) == (0, 1):
                    x = 0.0
                elif (round_, player) == (1, 1):
                    y = 0.0
                elif (round_, player) == (0, 2):
                    x = 10.0
                frames.append({"ts": round_ * 0.25, "player": player, "x": x, "y": y})
        return frames

    @staticmethod
    def _entries(monkeypatch, gestures, frames):
        """Matcher entries (``process`` and ``settle`` calls) over ``frames``
        pushed one by one into ``gestures`` disjoint two-pose queries."""
        calls = []
        for name in ("process", "settle"):
            original = getattr(NFAMatcher, name)

            def spy(self, *args, _original=original, _name=name):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(NFAMatcher, name, spy)
        engine = CEPEngine(clock=SimulatedClock())
        engine.create_stream("s")
        for number in range(gestures):
            centre = 10 * number
            engine.register_query(
                f'SELECT "g{number}" MATCHING s(abs(x - {centre}) < 2) -> '
                f"s(abs(y - {centre}) < 2) within 1 seconds;"
            )
        for frame in frames:
            engine.push("s", frame)
        return engine, calls

    @pytest.mark.parametrize("gestures", [8, 32])
    def test_matcher_entries_do_not_grow_with_the_vocabulary(self, monkeypatch, gestures):
        frames = self._feed()
        engine, calls = self._entries(monkeypatch, gestures, frames)
        # Player 1: open, complete.  Player 2: open, and the prune of its
        # run once it is older than its 1 s window (at 1.25 s).
        assert calls == ["process"] * 4
        assert [d.partition for d in engine.detections()] == [1]
        stats = engine.query_stats()
        assert {row["tuples_processed"] for row in stats.values()} == {len(frames)}
        # One atom per gate test, and one for the step player 1 completed.
        assert stats["g0"]["predicate_evaluations"] == len(frames) + 1
        assert stats["g1"]["runs_pruned"] == 1

    @pytest.mark.parametrize("gestures", [8, 32])
    def test_a_chunk_enters_only_the_queries_and_tuples_it_can_change(
        self, monkeypatch, gestures
    ):
        # The same feed in 64-tuple chunks.  Chunk 1: g0 takes player 1's
        # tuples (open, complete) and passes over the rest, g1 takes player
        # 2's (open, then 15 tuples missing its second pose); chunk 2: g1
        # prunes player 2's run and passes over the partition.  Every other
        # query is counted in bulk.  (Each query used to take every chunk,
        # and g1 every tuple of player 2 while its run lived: 19 entries.)
        frames = self._feed()
        calls = []
        for name in ("process_batch", "_process_tuple"):
            original = getattr(NFAMatcher, name)

            def spy(self, *args, _original=original, _name=name):
                calls.append((_name, self.query_name))
                return _original(self, *args)

            monkeypatch.setattr(NFAMatcher, name, spy)
        engine = CEPEngine(clock=SimulatedClock())
        engine.create_stream("s")
        for number in range(gestures):
            engine.register_query(
                f'SELECT "g{number}" MATCHING s(abs(x - {10 * number}) < 2) -> '
                f"s(abs(y - {10 * number}) < 2) within 1 seconds;"
            )
        chunks = [frames[:64], frames[64:]]
        for chunk in chunks:
            engine.push_many("s", chunk, batch_size=64)
        assert calls == [
            ("process_batch", "g0"),
            ("_process_tuple", "g0"),
            ("_process_tuple", "g0"),
            ("process_batch", "g1"),
            ("_process_tuple", "g1"),
            ("process_batch", "g1"),
        ]
        assert [d.partition for d in engine.detections()] == [1]
        # Every counter is what a matcher taking every tuple of the chunks holds.
        for name, row in engine.query_stats().items():
            standalone = NFAMatcher(engine.get_query(name).matcher.pattern, name)
            for chunk in chunks:
                standalone.process_batch(chunk, "s")
            assert row == standalone.stats.as_dict()
        assert engine.query_stats()["g1"]["runs_pruned"] == 1

    def test_a_chunk_passes_over_a_partition_only_while_no_prune_is_due(self):
        # No within: the run's 10 s TTL governs, so a chunk prunes per tuple.
        # Player 1 opens a run, then stands away: the second chunk's tuples
        # miss every step, but the one at 11 s is past the TTL and prunes it.
        engine = CEPEngine(clock=SimulatedClock())
        engine.create_stream("s")
        engine.register_query('SELECT "t" MATCHING s(abs(x - 0) < 2) -> s(abs(y - 0) < 2);')
        away = {"player": 1, "x": -100.0, "y": -100.0}
        chunks = [
            [{"ts": 0.0, "player": 1, "x": 0.0, "y": -100.0}],
            [{"ts": ts, **away} for ts in (5.0, 11.0, 12.0)],
        ]
        standalone = NFAMatcher(engine.get_query("t").matcher.pattern, "t")
        for chunk in chunks:
            engine.push_many("s", chunk, batch_size=len(chunk))
            standalone.process_batch(chunk, "s")
        matcher = engine.get_query("t").matcher
        assert matcher.active_runs == 0
        assert matcher.capture_state() == standalone.capture_state()
        assert engine.query_stats()["t"]["runs_pruned"] == 1

    @staticmethod
    def _opener_and_closer():
        # "opener" (deployed first) opens a run on the tuple and cannot
        # complete one on it; "closer" completes on it.  Completion goes
        # first, so closer's sinks run before opener has taken the tuple.
        engine = CEPEngine(clock=SimulatedClock())
        engine.create_stream("s")
        engine.register_query(
            'SELECT "opener" MATCHING s(abs(x - 0) < 2) -> s(abs(y - 5) < 2) within 1 seconds;'
        )
        closer = engine.register_query('SELECT "closer" MATCHING s(abs(y - 0) < 2);')
        return engine, closer

    def test_a_sink_sees_every_earlier_query_take_the_tuple(self):
        engine, closer = self._opener_and_closer()
        seen = []

        def look(detection):
            seen.append((engine.query_progress()["opener"], engine.query_stats()["opener"]))

        closer.sink.add(CallbackSink(look))
        engine.push("s", {"ts": 0.0, "player": 1, "x": 0.0, "y": 0.0})
        [(progress, stats)] = seen
        assert progress == (0.5, 1)
        assert (stats["tuples_processed"], stats["runs_started"]) == (1, 1)
        assert engine.query_stats()["opener"]["tuples_processed"] == 1

    def test_a_tuple_fed_from_a_sink_reaches_earlier_queries_after_this_one(self):
        engine, closer = self._opener_and_closer()

        def feed(detection):
            if detection.timestamp == 0.0:
                engine.push("s", {"ts": 0.1, "player": 1, "x": -100.0, "y": 5.0})

        closer.sink.add(CallbackSink(feed))
        engine.push("s", {"ts": 0.0, "player": 1, "x": 0.0, "y": 0.0})
        # In deploy order opener took the first tuple before the sink fed the
        # second, so its run completes on the second.
        assert [(d.query_name, d.timestamp) for d in engine.detections()] == [
            ("closer", 0.0),
            ("opener", 0.1),
        ]
        assert engine.query_stats()["opener"]["tuples_processed"] == 2

    def test_a_state_rebuilt_mid_delivery_claims_none_of_the_tuple(self):
        # "a" completes on the tuple first and its sink feeds another, which
        # rebuilds the wake state; "u" (not woken by bit) then emits, and its
        # sink reads the counters before "d" has taken the first tuple.  The
        # rebuilt state never counted that tuple, so it owes "d" the fed one.
        engine = CEPEngine(clock=SimulatedClock())
        engine.create_stream("s")
        feeder = engine.register_query('SELECT "a" MATCHING s(abs(y - 0) < 2);')
        reader = engine.register_query('SELECT "u" MATCHING s(y * 1 < 2 and y * 1 > -2);')
        engine.register_query(
            'SELECT "d" MATCHING s(abs(x - 0) < 2) -> s(abs(y - 5) < 2) within 1 seconds;'
        )
        fed = []

        def feed(detection):
            if not fed:
                fed.append(detection)
                engine.push("s", {"ts": 0.1, "player": 2, "x": -100.0, "y": -100.0})

        feeder.sink.add(CallbackSink(feed))
        reader.sink.add(CallbackSink(lambda detection: engine.query_stats()))
        frames = [(0.0, 1, -100.0, -100.0), (0.05, 1, 0.0, 0.0), (0.2, 3, -100.0, -100.0)]
        for ts, player, x, y in frames:
            engine.push("s", {"ts": ts, "player": player, "x": x, "y": y})
        assert [m.deployed.name for m in engine._fanouts["s"].members if m.tracked] == ["a", "d"]
        stats = engine.query_stats()
        assert {name: row["tuples_processed"] for name, row in stats.items()} == {
            "a": 4, "u": 4, "d": 4
        }
        assert stats["d"]["runs_started"] == 1

    def test_a_prune_that_moves_the_oldest_run_is_read_back(self, monkeypatch):
        # The third start pose prunes the run opened at 0 s: the step stays
        # occupied, but the partition's oldest run is now 0.5 s old, so the
        # tuples before 1.5 s owe the query no prune and wake nothing.
        frames = [{"ts": ts, "player": 1, "x": 0.0, "y": -100.0} for ts in (0.0, 0.5, 1.1)]
        frames += [{"ts": ts, "player": 1, "x": -100.0, "y": -100.0} for ts in (1.2, 1.3, 1.4)]
        engine, calls = self._entries(monkeypatch, 1, frames)
        assert calls == ["process"] * 3
        assert engine.query_stats()["g0"]["runs_pruned"] == 1

    def test_gated_out_tuples_enter_no_matcher(self, monkeypatch):
        frames = [frame for frame in self._feed() if frame["player"] > 2]
        _, calls = self._entries(monkeypatch, 32, frames)
        assert calls == []

    @pytest.mark.parametrize("gestures", [8, 32])
    def test_the_idle_sweep_tuple_enters_no_matcher(self, monkeypatch, gestures):
        # Past the stream's 512th tuple: the engine sweeps every query on it
        # (reclaiming nothing here), and wakes none of them for it.
        frames = self._feed()
        frames += [
            {"ts": 5.0 + index * 0.01, "player": 3 + index % 2, "x": -100.0, "y": -100.0}
            for index in range(600 - len(frames))
        ]
        engine, calls = self._entries(monkeypatch, gestures, frames)
        assert calls == ["process"] * 4
        stats = engine.query_stats()
        assert {row["tuples_processed"] for row in stats.values()} == {len(frames)}
        assert stats["g1"]["runs_pruned"] == 1


class TestIdleSweep:
    """Each stream's fan-out sweeps the stream's enabled queries after every
    ``_IDLE_SWEEP_TUPLES``-th tuple of the stream, at its event time: the
    phase is the stream's ``pushed`` counter, on every path."""

    QUERY = (
        'SELECT "g" MATCHING kinect_t(abs(x - 0) < 5) -> kinect_t(abs(x - 100) < 5) '
        "within 60 seconds;"
    )
    CONFIG = MatcherConfig(partition_idle_seconds=1.0)

    @staticmethod
    def _records(leave_at=0.0, count=600):
        """Player 1 opens a run and leaves; player 2 streams on, matching nothing."""
        left = {"ts": leave_at, "player": 1, "x": 0.0}
        return [left] + [{"ts": index * 0.01, "player": 2, "x": -50.0} for index in range(1, count)]

    def _open(self, mode="inline"):
        if mode == "thread2":
            spec = ShardEngineSpec(matcher=self.CONFIG, install_view=False)
            engine = ShardedRuntime(shard_count=2, spec=spec).start()
            # One shard sees every tuple, so its stream counts as inline's does.
            assert engine.router.shard_for_key(1) == engine.router.shard_for_key(2)
        else:
            engine = CEPEngine(clock=SimulatedClock(), matcher_config=self.CONFIG)
        engine.register_query(self.QUERY)
        return engine

    @staticmethod
    def _left(engine):
        """The query's live runs, and the runs its idle sweeps reclaimed."""
        return engine.query_progress()["g"][1], engine.query_stats()["g"]["runs_evicted"]

    @pytest.mark.parametrize("mode", ["push", "batched", "thread2", "recovered"])
    def test_a_player_who_left_is_reclaimed_on_the_sweep_tuple(self, mode):
        records = self._records()
        batch_size = 8 if mode == "batched" else None  # a chunk ends on tuple 512
        engine = self._open(mode)
        try:
            fed = 0
            if mode == "recovered":
                fed = 300  # mid-period: the phase rides in the stream's counter
                engine.push_many(TRANSFORMED_STREAM_NAME, records[:fed])
                state = json.loads(json.dumps(engine.capture_state()))
                engine = CEPEngine(clock=SimulatedClock(), matcher_config=self.CONFIG)
                engine.restore_state(state)
            # Per tuple the run outlives tuple 511; batched, the chunk 505-512.
            last = 511 if batch_size is None else 504
            engine.push_many(TRANSFORMED_STREAM_NAME, records[fed:last], batch_size=batch_size)
            assert self._left(engine) == (1, 0)
            engine.push_many(TRANSFORMED_STREAM_NAME, records[last:512], batch_size=batch_size)
            assert self._left(engine) == (0, 1)
        finally:
            if mode == "thread2":
                engine.stop()

    def test_a_chunk_sweeps_only_when_it_reaches_a_multiple(self):
        engine = self._open()
        records = self._records(count=1024)
        for index, record in enumerate(records[1:512], start=1):
            record["ts"] = index * 0.001  # player 1 is not idle yet at tuple 512
        engine.push_many(TRANSFORMED_STREAM_NAME, records[:512], batch_size=512)
        # Tuples 513-520 end 8 past a multiple: no sweep, however late.
        engine.push_many(TRANSFORMED_STREAM_NAME, records[512:520], batch_size=8)
        assert self._left(engine) == (1, 0)
        engine.push_many(TRANSFORMED_STREAM_NAME, records[520:], batch_size=504)
        assert self._left(engine) == (0, 1)

    def test_a_sweep_that_reclaims_settles_the_wake_state_first(self):
        # Player 1 comes back after the sweep took their run: the tuples the
        # engine then skips cost what a standalone matcher counts, the gate
        # alone, not the step the run waited for.
        engine = self._open()
        standalone = NFAMatcher(engine.get_query("g").matcher.pattern, "g", config=self.CONFIG)
        records = self._records()
        back = [{"ts": 5.2 + index * 0.01, "player": 1, "x": -50.0} for index in range(5)]
        records[512:512] = back
        for number, record in enumerate(records, start=1):
            engine.push(TRANSFORMED_STREAM_NAME, record)
            standalone.process(record, TRANSFORMED_STREAM_NAME)
            if number == 512:
                standalone.sweep(record["ts"])
        assert engine._fanouts[TRANSFORMED_STREAM_NAME].index.fields  # woken by bit
        assert self._left(engine) == (0, 1)
        assert engine.query_stats()["g"] == standalone.stats.as_dict()

    def test_the_phase_is_the_streams_not_the_querys(self):
        # Deployed after 100 tuples of the stream, the query is swept on the
        # stream's 512th tuple, its own 412th.
        engine = CEPEngine(clock=SimulatedClock(), matcher_config=self.CONFIG)
        engine.create_stream(TRANSFORMED_STREAM_NAME)
        engine.push_many(TRANSFORMED_STREAM_NAME, [{"ts": -1.0, "player": 3, "x": -50.0}] * 100)
        engine.register_query(self.QUERY)
        records = self._records()
        engine.push_many(TRANSFORMED_STREAM_NAME, records[:411])
        assert self._left(engine) == (1, 0)
        engine.push(TRANSFORMED_STREAM_NAME, records[411])
        assert self._left(engine) == (0, 1)
        assert engine.query_stats()["g"]["tuples_processed"] == 412

    @pytest.mark.parametrize("batch_size", [None, 64])
    def test_a_nan_stamped_run_is_reclaimed(self, batch_size):
        # A NaN is never recent: the run it opened goes on the first sweep
        # after the stream's time has moved on.
        engine = self._open()
        records = self._records(leave_at=math.nan, count=3000)
        for record in records[1:]:
            record["ts"] *= 100 / 30  # 3 000 tuples over 100 s
        engine.push_many(TRANSFORMED_STREAM_NAME, records, batch_size=batch_size)
        assert self._left(engine) == (0, 1)


def _joints(record):
    """The joints a ``kinect_t`` record carries."""
    return {key[:-2] for key in record if key[:-2] in JOINTS and key[-2:] in ("_x", "_y", "_z")}


def _probe(engine):
    """A ``kinect_t`` subscriber that declares it reads nothing: it sees what
    the view computes for the others, and widens nothing."""
    seen = []
    engine.get_stream(TRANSFORMED_STREAM_NAME).subscribe(seen.append, reads=())
    return seen


class TestProjection:
    """The view computes the joints its readers read, and is current on the
    first tuple after the readers changed."""

    @pytest.mark.parametrize("batch_size", [None, 4])
    def test_a_deploy_widens_the_view_before_the_next_frame(
        self, noiseless_simulator, batch_size
    ):
        engine = CEPEngine()
        install_kinect_view(engine)
        seen = _probe(engine)
        engine.register_query(HANDS_ONLY)

        def push():
            frame = noiseless_simulator.measure_rest()
            engine.push_many(RAW_STREAM_NAME, [frame], batch_size=batch_size)
            return _joints(seen[-1])

        assert push() == HANDS
        elbow = engine.register_query(ELBOW)
        assert push() == HANDS | {"lelbow"}
        [detection] = elbow.detections()
        assert {"lelbow_x", "lelbow_y", "lelbow_z"} <= set(detection.matched[0])
        assert "head_x" not in detection.matched[0]
        engine.unregister_query("elbow")
        assert push() == HANDS

    def test_a_subscriber_declaring_nothing_sees_every_joint(self, noiseless_simulator):
        engine = CEPEngine()
        install_kinect_view(engine)
        seen = _probe(engine)
        engine.register_query(HANDS_ONLY)
        everything = []
        subscription = engine.get_stream(TRANSFORMED_STREAM_NAME).subscribe(everything.append)
        engine.push(RAW_STREAM_NAME, noiseless_simulator.measure_rest())
        assert _joints(everything[-1]) == _joints(seen[-1]) == set(JOINTS)
        subscription.cancel()
        engine.push(RAW_STREAM_NAME, noiseless_simulator.measure_rest())
        assert _joints(seen[-1]) == HANDS
        # The full frame is always one call away.
        view = engine.get_view(TRANSFORMED_STREAM_NAME)
        assert _joints(view.function.transform(noiseless_simulator.measure_rest())) == set(JOINTS)

    def test_a_restored_engine_projects_like_the_live_one(self, noiseless_simulator):
        live = CEPEngine()
        install_kinect_view(live)
        live.register_query(HANDS_ONLY)
        live.register_query(ELBOW)
        live.push(RAW_STREAM_NAME, noiseless_simulator.measure_rest())
        fresh = CEPEngine()
        install_kinect_view(fresh)
        fresh.restore_state(json.loads(json.dumps(live.capture_state())))
        frame = noiseless_simulator.measure_rest()
        outputs = []
        for engine in (live, fresh):
            seen = _probe(engine)
            engine.push(RAW_STREAM_NAME, frame)
            outputs.append(seen[-1])
        assert outputs[0] == outputs[1]
        assert _joints(outputs[0]) == HANDS | {"lelbow"}
        assert [d.to_state() for d in live.detections()] == [
            d.to_state() for d in fresh.detections()
        ]
