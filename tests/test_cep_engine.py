"""Unit tests for the CEP engine, views and sinks."""

import json

import pytest

from reference_matcher import reference_detections
from repro.cep.engine import CEPEngine
from repro.cep.matcher import Detection, MatcherConfig
from repro.cep.sinks import CallbackSink, CollectingSink, FanOutSink
from repro.cep.views import RAW_STREAM_NAME, TRANSFORMED_STREAM_NAME, install_kinect_view
from repro.errors import (
    ExpressionError,
    QueryRegistrationError,
    QuerySyntaxError,
    UnknownStreamError,
)
from repro.streams import SimulatedClock

SIMPLE_QUERY = 'SELECT "up" MATCHING s(x > 100);'
SEQ_QUERY = 'SELECT "seq" MATCHING s(x > 100) -> s(x > 200) within 1 seconds;'


def _detection(output="g", ts=0.0):
    return Detection(
        output=output, query_name=output, timestamp=ts, start_timestamp=ts,
        step_timestamps=(ts,),
    )


class TestSinks:
    def test_collecting_sink_stores_detections(self):
        sink = CollectingSink()
        sink.emit(_detection())
        assert len(sink) == 1
        assert sink.outputs() == ["g"]
        assert sink.last().output == "g"

    def test_collecting_sink_capacity_drops_oldest(self):
        sink = CollectingSink(capacity=2)
        for index in range(5):
            sink.emit(_detection(ts=float(index)))
        assert len(sink) == 2
        assert sink.detections[0].timestamp == 3.0

    def test_collecting_sink_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            CollectingSink(capacity=0)

    def test_callback_and_fanout(self):
        seen = []
        callback = CallbackSink(seen.append)
        collecting = CollectingSink()
        fan_out = FanOutSink([callback, collecting])
        fan_out.emit(_detection())
        assert len(seen) == 1
        assert callback.emitted == 1
        assert collecting.detections == seen

    def test_collecting_sink_clear_and_empty_last(self):
        sink = CollectingSink()
        sink.emit(_detection())
        sink.clear()
        assert sink.last() is None

    def test_callback_sink_counts_only_delivered_detections(self):
        def explode(detection):
            raise RuntimeError("handler failed")

        sink = CallbackSink(explode)
        with pytest.raises(RuntimeError):
            sink.emit(_detection())
        assert sink.emitted == 0

    def test_a_sink_added_to_a_fanout_receives_later_detections(self):
        early, late = CollectingSink(), CollectingSink()
        fan_out = FanOutSink([early])
        fan_out.emit(_detection(ts=1.0))
        fan_out.add(late)
        fan_out.emit(_detection(ts=2.0))
        assert [d.timestamp for d in early.detections] == [1.0, 2.0]
        assert [d.timestamp for d in late.detections] == [2.0]


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

    def test_unknown_stream_rejected_unless_created(self):
        engine = CEPEngine()
        with pytest.raises(UnknownStreamError):
            engine.register_query(SIMPLE_QUERY)
        deployed = engine.register_query(SIMPLE_QUERY, create_missing_streams=True)
        engine.push("s", {"ts": 0.0, "x": 150.0})
        assert len(deployed.detections()) == 1

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
        engine.register_query('SELECT "any" MATCHING s(true);', create_missing_streams=True)
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
        engine.register_query(SIMPLE_QUERY, sink=CallbackSink(seen.append))
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

    def test_per_query_matcher_config_override(self):
        engine = CEPEngine()
        engine.create_stream("s")
        deployed = engine.register_query(
            SIMPLE_QUERY, matcher_config=MatcherConfig(store_matched_tuples=False)
        )
        engine.push("s", {"ts": 0.0, "x": 150.0})
        assert deployed.detections()[0].matched is None

    def test_configured_timestamp_field_is_honored(self):
        # The handler must read the matcher's timestamp_field, not "ts".
        engine = CEPEngine()
        engine.create_stream("s")
        deployed = engine.register_query(
            SEQ_QUERY, matcher_config=MatcherConfig(timestamp_field="t")
        )
        engine.push("s", {"t": 0.0, "x": 150.0})
        engine.push("s", {"t": 5.0, "x": 250.0})
        assert deployed.detections() == []  # 5 s apart: within 1 s violated
        engine.push("s", {"t": 10.0, "x": 150.0})
        engine.push("s", {"t": 10.5, "x": 250.0})
        detections = deployed.detections()
        assert len(detections) == 1
        assert detections[0].timestamp == pytest.approx(10.5)

    def test_configured_timestamp_field_is_honored_on_batches(self):
        engine = CEPEngine()
        engine.create_stream("s")
        deployed = engine.register_query(
            SEQ_QUERY, matcher_config=MatcherConfig(timestamp_field="t")
        )
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
