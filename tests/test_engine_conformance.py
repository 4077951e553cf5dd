"""One engine surface: ``CEPEngine`` and ``ShardedRuntime`` implement ``Engine``.

The protocol is checked member by member (presence, and each method's
parameters by name, kind and default), and the behaviours that used to differ
between the inline and the sharded engine are pinned on both: the
deploy-time analyzer's verdict, what a rejected feed leaves in the
journal, how an unknown stream is refused, how a recovery whose log
tail kills a shard fails, and that every way of changing the deployed
vocabulary recovers from the journal alone.
"""

from __future__ import annotations

import inspect
import json
import multiprocessing
import shutil
import threading
import warnings
from typing import Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import QueryAnalysisWarning, gate_deployment
from repro.api import DurabilityConfig, GestureSession, SessionConfig
from repro.cep import CEPEngine, Engine, MatcherConfig, QueryHandle, parse_query
from repro.cep.query import ConsumePolicy, SelectPolicy
from repro.core import (
    GestureDescription,
    GestureLearner,
    LearnerConfig,
    PoseWindow,
    QueryGenConfig,
    QueryGenerator,
    Window,
)
from repro.detection.workflow import CONTROL_RECORD
from repro.errors import (
    QueryRegistrationError,
    RecoveryError,
    UnknownQueryError,
    UnknownStreamError,
)
from repro.kinect import (
    CircleTrajectory,
    GaussianNoise,
    KinectSimulator,
    PushTrajectory,
    generate_multiuser_recording,
)
from repro.persistence import EventLog, apply_engine_control, read_log
from repro.runtime import ShardedRuntime
from repro.runtime.sharded import ShardedQuery
from repro.storage.database import GestureDatabase
from repro.streams import SimulatedClock
from repro.transform.pipeline import KinectTransformer

HIGH = 'SELECT "high" MATCHING kinect_t(rhand_y > 450);'
#: Spans two streams: the partition co-location check (QA031) applies.
MULTI_STREAM = (
    'SELECT "two" MATCHING (kinect_t(rhand_y > 400) -> '
    "other_t(rhand_y < 100) within 1 seconds);"
)
#: Step 0 is covered by no ``within``: the run TTL governs it (QA011).
NO_WITHIN = 'SELECT "two" MATCHING (kinect_t(rhand_y > 400) -> kinect_t(rhand_y < 100));'

#: ``(shards, executor)`` of each engine a session can run on.
ENGINES = {
    "inline": (1, "thread"),
    "thread2": (2, "thread"),
    "process2": (2, "process"),
}


def session_config(engine: str, matcher: Optional[MatcherConfig] = None) -> SessionConfig:
    shards, executor = ENGINES[engine]
    return SessionConfig(
        shards=shards, shard_executor=executor, matcher=matcher or MatcherConfig()
    )


def rows(count=8, value=500.0):
    return [
        {"ts": index * 0.1, "player": 1 + index % 2, "rhand_y": value}
        for index in range(count)
    ]


def detections_of(session):
    return sorted((d.partition, d.query_name, d.timestamp) for d in session.detections())


# ---------------------------------------------------------------------------
# The protocol itself
# ---------------------------------------------------------------------------


def members(protocol):
    """Public members a protocol declares: annotations, methods, properties."""
    declared = set(protocol.__annotations__)
    declared |= {name for name in vars(protocol) if not name.startswith("_")}
    return sorted(declared)


def parameters(function):
    return [
        (p.name, p.kind, p.default) for p in inspect.signature(function).parameters.values()
    ]


def assert_implements(protocol, instance):
    for name in members(protocol):
        assert hasattr(instance, name), f"{type(instance).__name__} lacks {name}"
        declared = vars(protocol).get(name)
        if inspect.isfunction(declared):
            implemented = getattr(type(instance), name)
            assert parameters(implemented) == parameters(declared), (
                f"{type(instance).__name__}.{name} parameters differ from {protocol.__name__}"
            )


class TestProtocol:
    def test_protocol_names_the_whole_surface(self):
        surface = set(members(Engine))
        assert {
            "matcher_config",
            "drain",
            "export_trace",
            "add_control_tap",
            "remove_control_tap",
            "reset_scene",
            "query_progress",
        } <= surface
        assert not {"reset_matchers", "reset_transformers"} & surface
        # Progress is read on the engine, by message on a runtime.
        assert {"detections", "sink"} <= set(members(QueryHandle))
        assert not {"progress", "matcher"} & set(members(QueryHandle))

    def test_cep_engine_implements_engine(self):
        assert_implements(Engine, CEPEngine())

    def test_sharded_runtime_implements_engine(self):
        assert_implements(Engine, ShardedRuntime(shard_count=2))

    def test_both_query_handles_implement_query_handle(self):
        engine = CEPEngine()
        engine.create_stream("kinect_t")
        deployed = engine.register_query(HIGH)
        assert_implements(QueryHandle, deployed)
        sharded = ShardedQuery(ShardedRuntime(shard_count=2), deployed.query, "high")
        assert_implements(QueryHandle, sharded)

    @pytest.mark.parametrize("engine", ["inline", "thread2"])
    def test_register_query_takes_a_query_and_a_name_only(self, engine):
        """Every query runs under its engine's configuration: a per-query
        setting the journal would not record cannot be passed."""
        target = make_engine(engine)
        try:
            for setting in (
                "partition_field", "matcher_config", "sink", "analyze", "create_missing_streams"
            ):
                with pytest.raises(TypeError, match=setting):
                    target.register_query(HIGH, **{setting: None})
            assert target.query_names() == []
        finally:
            stop(target)

    def test_inline_drain_and_telemetry_are_trivial(self):
        engine = CEPEngine()
        engine.drain()
        engine.collect_telemetry()
        assert engine.export_trace() == {"traceEvents": [], "displayTimeUnit": "ms"}


# ---------------------------------------------------------------------------
# The analyzer gives the same verdict on both engines
# ---------------------------------------------------------------------------


def warned_codes(deploy) -> list:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        deploy()
    return sorted(
        str(w.message).split()[1] for w in caught if issubclass(w.category, QueryAnalysisWarning)
    )


def two_pose(name):
    return GestureDescription(
        name=name,
        poses=[
            PoseWindow(0, Window({"rhand_x": 100.0}, {"rhand_x": 25.0})),
            PoseWindow(1, Window({"rhand_x": 300.0}, {"rhand_x": 25.0})),
        ],
        joints=["rhand"],
        max_duration_s=1.0,
    )


class TestAnalyzerVerdict:
    @pytest.mark.parametrize("engine", ["inline", "thread2"])
    @pytest.mark.parametrize("route", ["deploy", "manifest"])
    @pytest.mark.parametrize("query, expected", [(MULTI_STREAM, ["QA031"]), (NO_WITHIN, [])])
    def test_every_route_reports_the_same_codes(self, engine, route, query, expected):
        with GestureSession(session_config(engine)) as session:
            if route == "deploy":
                codes = warned_codes(lambda: session.deploy(query, name="two", analyze="warn"))
            else:
                codes = warned_codes(
                    lambda: session.deploy_vocabulary({"two": query}, analyze="warn")
                )
            assert codes == expected

    @pytest.mark.parametrize("engine", ["inline", "thread2"])
    def test_uncovered_step_is_governed_by_the_run_ttl(self, engine):
        with GestureSession(session_config(engine)) as session:
            target = session.runtime or session.engine
            codes = {d.code for d in gate_deployment(target, {"two": NO_WITHIN}, "warn")}
            assert "QA011" in codes and "QA010" not in codes

    @pytest.mark.parametrize("engine", ["inline", "thread2"])
    def test_database_and_manifest_routes_agree(self, engine, tmp_path):
        database = GestureDatabase(str(tmp_path / "gestures.db"))
        for name in ("a", "b"):
            database.save_gesture(two_pose(name))
        try:
            with GestureSession(session_config(engine)) as session:
                from_database = warned_codes(
                    lambda: session.deploy_vocabulary(database, analyze="warn")
                )
            with GestureSession(session_config(engine)) as session:
                from_manifest = warned_codes(
                    lambda: session.deploy_vocabulary(
                        {name: two_pose(name) for name in ("a", "b")}, analyze="warn"
                    )
                )
        finally:
            database.close()
        assert from_database == from_manifest == ["QA040"]


# ---------------------------------------------------------------------------
# Feeds the engine refuses are refused before the journal sees them
# ---------------------------------------------------------------------------


class TestRefusedFeeds:
    @pytest.mark.parametrize("engine", ["inline", "thread2"])
    def test_rejected_batch_size_does_not_poison_the_journal(self, engine, tmp_path):
        durability = DurabilityConfig(tmp_path)
        with GestureSession(session_config(engine), durability=durability) as live:
            live.deploy(HIGH)
            live.feed(rows(), stream="kinect_t")
            with pytest.raises(ValueError, match="batch_size"):
                live.feed(rows(), stream="kinect_t", batch_size=0)
            expected = detections_of(live)
        recovered = GestureSession.recover(durability, session_config(engine))
        try:
            assert detections_of(recovered) == expected
        finally:
            recovered.close()

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_unknown_stream_is_refused_synchronously(self, engine, tmp_path):
        durability = DurabilityConfig(tmp_path)
        with GestureSession(session_config(engine), durability=durability) as session:
            session.deploy(HIGH)
            with pytest.raises(UnknownStreamError, match="nope"):
                session.feed(rows(), stream="nope")
            session.feed(rows(), stream="kinect_t")
            session.drain()
            assert len(session.detections()) == len(rows())
        assert all(entry.stream != "nope" for entry in read_log(tmp_path))


# ---------------------------------------------------------------------------
# A recovery whose log tail kills a shard fails on every engine
# ---------------------------------------------------------------------------


def shard_workers():
    """Live shard threads and child processes, by name and pid."""
    threads = {t.name for t in threading.enumerate() if t.name.startswith("repro-shard")}
    return threads, {child.pid for child in multiprocessing.active_children()}


class TestFailedRecovery:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_a_fatal_tail_raises_recovery_error_and_leaves_nothing_running(
        self, engine, tmp_path
    ):
        log = EventLog(tmp_path)
        log.append_control("deploy", {"name": "high", "text": HIGH})
        log.append_tuples("kinect_t", rows(), None)
        # A timestamp the matcher cannot read: the data path raises.
        log.append_tuples("kinect_t", [{"ts": "never", "player": 1, "rhand_y": 500.0}], None)
        log.close()
        before = shard_workers()
        with pytest.raises(RecoveryError):
            GestureSession.recover(DurabilityConfig(tmp_path), session_config(engine))
        assert shard_workers() == before


# ---------------------------------------------------------------------------
# Replayed tuples are counted in the session's metrics on every engine
# ---------------------------------------------------------------------------


def ingest_counters(session):
    totals = session.metrics.totals()
    return totals["tuples_enqueued"], totals["tuples_processed"]


class TestRecoveryKeepsIngestCounters:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_a_recovered_session_counts_what_the_live_one_did(self, engine, tmp_path):
        durability = DurabilityConfig(tmp_path)
        with GestureSession(session_config(engine), durability=durability) as live:
            live.deploy(HIGH)
            live.feed(rows(40), stream="kinect_t")
            live.drain()
            expected = ingest_counters(live)
        recovered = GestureSession.recover(durability, session_config(engine))
        try:
            recovered.drain()
            assert recovered.last_recovery.replayed_tuples == 40
            assert ingest_counters(recovered) == expected == (40, 40)
        finally:
            recovered.close()


# ---------------------------------------------------------------------------
# Control taps: after success, and a raising tap fails the call
# ---------------------------------------------------------------------------


def make_engine(engine: str):
    """A bare engine of each kind (the caller stops a runtime)."""
    if engine == "inline":
        inline = CEPEngine()
        inline.create_stream("kinect_t")
        return inline
    shards, executor = ENGINES[engine]
    return ShardedRuntime(shard_count=shards, executor=executor).start()


def stop(target):
    if isinstance(target, ShardedRuntime):
        target.stop()


class TestControlTaps:
    @pytest.mark.parametrize("engine", ["inline", "thread2"])
    def test_taps_see_each_control_after_it_succeeded(self, engine):
        target = make_engine(engine)
        seen = []
        target.add_control_tap(lambda op, payload: seen.append((op, payload)))
        try:
            target.register_query(HIGH)
            with pytest.raises(QueryRegistrationError):
                target.register_query(HIGH)
            with pytest.raises(UnknownQueryError):
                target.enable_query("nope", False)
            target.enable_query("high", False)
            target.reset_scene()
            target.unregister_query("high")
        finally:
            stop(target)
        assert seen == [
            ("deploy", {"name": "high", "text": parse_query(HIGH).to_query()}),
            ("enable", {"name": "high", "enabled": False}),
            ("clear", {}),
            ("undeploy", {"name": "high"}),
        ]

    @pytest.mark.parametrize("engine", ["inline", "thread2"])
    def test_a_raising_control_tap_fails_the_call_after_the_change(self, engine):
        target = make_engine(engine)

        def refuse(op, payload):
            raise OSError("journal full")

        target.add_control_tap(refuse)
        try:
            with pytest.raises(OSError, match="journal full"):
                target.register_query(HIGH)
            assert target.query_names() == ["high"]
            target.remove_control_tap(refuse)
            target.unregister_query("high")
            assert target.query_names() == []
        finally:
            stop(target)


class TestUndeploy:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_a_handle_kept_past_undeploy_is_disabled(self, engine):
        target = make_engine(engine)
        try:
            handle = target.register_query(HIGH)
            assert handle.enabled is True
            target.unregister_query("high")
            assert handle.enabled is False
        finally:
            stop(target)


# ---------------------------------------------------------------------------
# Every route into the engine recovers from the journal alone
# ---------------------------------------------------------------------------

GESTURES = {"circle": CircleTrajectory(), "push": PushTrajectory()}


def samples_of(name, count=4, seed=500):
    trajectory = GESTURES[name]
    simulator = KinectSimulator(
        clock=SimulatedClock(),
        noise=GaussianNoise(sigma_mm=6.0, rng=np.random.default_rng(seed)),
        rng=np.random.default_rng(seed + 1),
    )
    return [
        simulator.perform_variation(trajectory, hold_start_s=0.3, hold_end_s=0.3)
        for _ in range(count)
    ]


@pytest.fixture(scope="module")
def vocabulary():
    """Gesture name -> (raw samples, learned description)."""
    learned = {}
    for seed, name in enumerate(GESTURES, start=500):
        samples = samples_of(name, seed=seed * 2)
        config = LearnerConfig(joints=(GESTURES[name].hand,))
        learned[name] = (samples, GestureLearner(name, config=config).learn(samples))
    return learned


@pytest.fixture(scope="module")
def recording():
    """Raw two-player frames, split into the run before and after the crash.
    Player 2 becomes player 4: players 1 and 2 hash to the same one of two
    shards, and the players must be on different shards for the sharded
    engines' merge to be exercised."""
    frames = [
        {**frame, "player": 4} if frame["player"] == 2 else frame
        for frame in generate_multiuser_recording(
            GESTURES, user_count=2, gestures_per_user=4, seed=77
        ).frames
    ]
    middle = len(frames) // 2
    return frames[:middle], frames[middle:]


def route_deploy(session, vocabulary, feed):
    session.deploy(vocabulary["circle"][1])
    feed()


def route_manifest(session, vocabulary, feed):
    session.deploy_vocabulary({name: description for name, (_, description) in vocabulary.items()})
    feed()


def route_database(session, vocabulary, feed):
    database = GestureDatabase(":memory:")
    for _, description in vocabulary.values():
        database.save_gesture(description)
    session.deploy_vocabulary(database)
    database.close()
    feed()


def route_database_tuned(session, vocabulary, feed):
    # A stored query text tuned by hand is what the database deploys.
    database = GestureDatabase(":memory:")
    for _, description in vocabulary.values():
        database.save_gesture(description)
    generator = QueryGenerator(QueryGenConfig(select=SelectPolicy.ALL, consume=ConsumePolicy.NONE))
    tuned = generator.generate(vocabulary["circle"][1]).to_query()
    database.update_query_text("circle", tuned)
    session.deploy_vocabulary(database)
    database.close()
    assert (session.runtime or session.engine).get_query("circle").query.to_query() == tuned
    feed()


def route_learn(session, vocabulary, feed):
    session.learn("push", vocabulary["push"][0], joints=("rhand",), deploy=True)
    feed()


def route_undeploy(session, vocabulary, feed):
    route_manifest(session, vocabulary, feed)
    session.undeploy("push")


def route_clear(session, vocabulary, feed):
    route_manifest(session, vocabulary, feed)
    session.clear()


def route_set_enabled(session, vocabulary, feed):
    route_manifest(session, vocabulary, feed)
    session.detector.set_enabled("circle", False)


def route_finalize(session, vocabulary, feed):
    # Pre-transformed samples: the ``raw=False`` door.
    transformer = KinectTransformer()
    session.begin_gesture("circle")
    for sample in vocabulary["circle"][0]:
        session.record_sample([transformer(frame) for frame in sample], raw=False)
    session.finalize()
    feed()


def route_finalize_raw(session, vocabulary, feed):
    # Raw samples: the workflow transforms them with its own transformer.
    # Advancing the view's smoothing state instead would change the live
    # session's detections, and no journal entry holds that state.
    session.begin_gesture("circle")
    view_state = session.transformer.capture_state()
    for sample in vocabulary["circle"][0]:
        session.record_sample(sample)
    assert session.transformer.capture_state() == view_state
    session.finalize()
    feed()


ROUTES = {
    "deploy": route_deploy,
    "manifest": route_manifest,
    "database": route_database,
    "database-tuned": route_database_tuned,
    "learn": route_learn,
    "undeploy": route_undeploy,
    "clear": route_clear,
    "set_enabled": route_set_enabled,
    "finalize": route_finalize,
    "finalize-raw": route_finalize_raw,
}

#: The interactive workflow refuses sharded sessions.
MATRIX = [
    (route, engine)
    for route in ROUTES
    for engine in sorted(ENGINES)
    if not route.startswith("finalize") or engine == "inline"
]


def per_player(session):
    grouped = {}
    for detection in session.detections():
        grouped.setdefault(f"{detection.partition}/{detection.query_name}", []).append(
            json.dumps(detection.to_state(), sort_keys=True)
        )
    return grouped


def observed(session):
    engine = session.runtime or session.engine
    return {
        "deployed": session.deployed_gestures(),
        "queries": {
            name: (handle.query.to_query(), handle.enabled)
            for name, handle in sorted(engine.queries.items())
        },
        "detections": per_player(session),
        "events": [(event.gesture, event.partition, event.timestamp) for event in session.events],
    }


def continue_with(session, frames):
    """Feed the continuation; returns what ``on_any`` handlers saw."""
    seen = []
    session.on_any(seen.append)
    session.feed(frames)
    session.drain()
    return sorted((event.gesture, event.partition, event.timestamp) for event in seen)


#: Non-default engine-wide matcher configurations.  A sharded engine routes
#: on the partition field, so process shards keep it.
CONFIGURED = {
    "inline": MatcherConfig(partition_field=None, store_matched_tuples=False),
    "process2": MatcherConfig(store_matched_tuples=False),
}


def assert_recovers_as_live(route, config, vocabulary, recording, tmp_path, snapshot=False):
    """Run ``route`` live, copy the journal mid-run (after a snapshot with
    ``snapshot``), recover the copy, and assert both sessions observe the
    same on the continuation; returns what the live one observed."""
    before, after = recording
    live_dir, crash_dir = tmp_path / "live", tmp_path / "crash"
    live = GestureSession(config, durability=DurabilityConfig(live_dir))
    try:
        ROUTES[route](live, vocabulary, lambda: live.feed(before))
        live.drain()
        if snapshot:
            live.snapshot()
        live.durability.log.flush(sync=False)
        shutil.copytree(live_dir, crash_dir)
        live_events = continue_with(live, after)
        expected = observed(live)
    finally:
        live.close()
    assert expected["detections"] and live_events, "the route must detect something"

    recovered = GestureSession.recover(DurabilityConfig(crash_dir), config)
    try:
        assert (recovered.last_recovery.snapshot_offset is not None) == snapshot
        recovered_events = continue_with(recovered, after)
        assert observed(recovered) == expected
        assert recovered_events == live_events
    finally:
        recovered.close()
    return expected


class TestEveryRouteRecovers:
    """Each route changes the deployed vocabulary, the live run is abandoned
    (its directory is copied mid-run: a crash image), with or without a
    snapshot just before the copy, and the recovered session must match the
    live one, events included, and on a continuation stream.

    Gateway tenants run non-durable sessions, so the gateway's deploy routes
    (``deploy``, ``deploy_database``) are covered here only through the
    session and detector calls they end in.
    """

    @pytest.mark.parametrize("route, engine", MATRIX)
    def test_recovered_session_equals_the_live_one(
        self, route, engine, vocabulary, recording, tmp_path
    ):
        assert_recovers_as_live(route, session_config(engine), vocabulary, recording, tmp_path)

    @pytest.mark.parametrize("route, engine", MATRIX)
    def test_recovered_through_a_snapshot_equals_the_live_one(
        self, route, engine, vocabulary, recording, tmp_path
    ):
        """The snapshot holds each engine's detection log once; restored,
        it reads — events included — exactly as the live history."""
        assert_recovers_as_live(
            route, session_config(engine), vocabulary, recording, tmp_path, snapshot=True
        )

    @pytest.mark.parametrize("engine", sorted(CONFIGURED))
    def test_an_engine_wide_matcher_config_recovers_as_live(
        self, engine, vocabulary, recording, tmp_path
    ):
        """The one way to configure matching is journal-safe: the engine's
        configuration, which the recovering session is built with again."""
        config = session_config(engine, CONFIGURED[engine])
        expected = assert_recovers_as_live("manifest", config, vocabulary, recording, tmp_path)
        detections = [
            json.loads(state) for states in expected["detections"].values() for state in states
        ]
        assert all(state["matched"] is None for state in detections)
        if config.matcher.partition_field is None:
            assert set(expected["detections"]) <= {"None/circle", "None/push"}



def wave(base, start):
    """A wave on the transformed stream: the workflow's record control fires."""
    return [
        dict(base, ts=start + offset, player=1, rhand_x=x, rhand_y=450.0)
        for offset, x in ((0.0, 400.0), (0.5, 100.0), (1.0, 400.0))
    ]


class TestControlGesturesStayInternal:
    """The workflow's control queries go through the same engine door as any
    gesture, but they steer the tool: they are journalled and recovered, yet
    never enter the gesture vocabulary, its events or ``on_any`` handlers."""

    def test_recovered_control_queries_are_adopted_by_the_workflow(
        self, vocabulary, tmp_path
    ):
        config = SessionConfig(deploy_control_gestures=True)
        base = KinectTransformer()(vocabulary["circle"][0][0][0])
        live_dir, crash_dir = tmp_path / "live", tmp_path / "crash"
        live = GestureSession(config, durability=DurabilityConfig(live_dir))
        try:
            seen = []
            live.on_any(seen.append)
            route_finalize(live, vocabulary, lambda: live.feed(wave(base, 0.0), stream="kinect_t"))
            assert any(d.query_name == CONTROL_RECORD for d in live.detections())
            assert live.deployed_gestures() == ["circle"]
            assert not [e for e in live.events if e.gesture.startswith("__control_")]
            assert not [e for e in seen if e.gesture.startswith("__control_")]
            live.durability.log.flush(sync=False)
            shutil.copytree(live_dir, crash_dir)
        finally:
            live.close()

        recovered = GestureSession.recover(DurabilityConfig(crash_dir), config)
        try:
            assert recovered.last_recovery.snapshot_offset is None
            assert CONTROL_RECORD in recovered.engine.query_names()
            assert recovered.deployed_gestures() == ["circle"]
            assert not [e for e in recovered.events if e.gesture.startswith("__control_")]
            armed = []
            recovered.workflow.controller.arm = lambda: armed.append(True)
            recovered.begin_gesture("push")
            recovered.feed(wave(base, 60.0), stream="kinect_t")
            assert armed, "the recovered wave query must reach the new workflow"
            assert recovered.deployed_gestures() == ["circle"]
        finally:
            recovered.close()


class TestJournalFormat:
    @pytest.mark.parametrize("engine", ["inline", "thread2"])
    def test_a_journal_written_before_control_taps_still_recovers(self, engine, tmp_path):
        """deploy / undeploy / clear keep their payloads, so older directories load."""
        low = 'SELECT "low" MATCHING kinect_t(rhand_y < 100);'
        log = EventLog(tmp_path)
        log.append_control("deploy", {"name": "high", "text": HIGH})
        log.append_control("deploy", {"name": "low", "text": low})
        log.append_tuples("kinect_t", rows(), None)
        log.append_control("clear", {})
        log.append_control("undeploy", {"name": "low"})
        log.append_tuples("kinect_t", rows(4), None)
        log.close()
        recovered = GestureSession.recover(DurabilityConfig(tmp_path), session_config(engine))
        try:
            assert recovered.deployed_gestures() == ["high"]
            assert len(recovered.detections()) == 4
            assert len(recovered.events) == 4
        finally:
            recovered.close()


# ---------------------------------------------------------------------------
# apply_engine_control is the inverse of the control tap
# ---------------------------------------------------------------------------

NAMES = ("g0", "g1", "g2")


@st.composite
def query_texts(draw):
    """One generator-produced query text per name."""
    texts = {}
    for name in NAMES:
        centers = draw(st.lists(st.floats(-500.0, 500.0), min_size=1, max_size=3))
        description = GestureDescription(
            name=name,
            poses=[
                PoseWindow(index, Window({"rhand_y": center}, {"rhand_y": 50.0}))
                for index, center in enumerate(centers)
            ],
            joints=["rhand"],
            max_duration_s=1.0,
        )
        texts[name] = QueryGenerator().generate(description).to_query()
    return texts


controls = st.lists(
    st.one_of(
        st.tuples(st.just("deploy"), st.sampled_from(NAMES)),
        st.tuples(st.just("undeploy"), st.sampled_from(NAMES)),
        st.tuples(st.just("enable"), st.sampled_from(NAMES), st.booleans()),
        st.tuples(st.just("reset")),
    ),
    max_size=12,
)


def run_controls(target, texts, steps):
    """Apply every step; rejected ones (unknown or duplicate names) raise."""
    for op, *arguments in steps:
        try:
            if op == "deploy":
                name = arguments[0]
                target.register_query(texts[name], name=name)
            elif op == "undeploy":
                target.unregister_query(*arguments)
            elif op == "enable":
                target.enable_query(*arguments)
            else:
                target.reset_scene()
        except (QueryRegistrationError, UnknownQueryError):
            pass


def vocabulary_of(target):
    return target.query_names(), {
        name: (handle.query.to_query(), handle.enabled)
        for name, handle in target.queries.items()
    }


class TestApplyIsTheInverseOfTheTap:
    @pytest.mark.parametrize("engine", ["inline", "thread2"])
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(texts=query_texts(), steps=controls)
    def test_replaying_the_tap_rebuilds_the_vocabulary(self, engine, texts, steps):
        recorded, rebuilt = make_engine(engine), make_engine(engine)
        taped = []
        recorded.add_control_tap(lambda op, payload: taped.append((op, payload)))
        try:
            run_controls(recorded, texts, steps)
            for op, payload in json.loads(json.dumps(taped)):  # what the journal keeps
                apply_engine_control(rebuilt, op, payload)
            assert vocabulary_of(rebuilt) == vocabulary_of(recorded)
        finally:
            stop(recorded)
            stop(rebuilt)
