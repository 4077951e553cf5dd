"""One engine surface: ``CEPEngine`` and ``ShardedRuntime`` implement ``Engine``.

The protocol is checked member by member (presence, and each method's
parameters by name and kind), and the behaviours that used to differ
between the inline and the sharded engine are pinned on both: the
deploy-time analyzer's verdict, what a rejected feed leaves in the
journal, how an unknown stream is refused, and how a recovery whose log
tail kills a shard fails.
"""

from __future__ import annotations

import inspect
import multiprocessing
import threading
import warnings

import pytest

from repro.analysis import QueryAnalysisWarning, gate_deployment
from repro.api import DurabilityConfig, GestureSession, SessionConfig
from repro.cep import CEPEngine, Engine, QueryHandle
from repro.core import GestureDescription, PoseWindow, Window
from repro.errors import RecoveryError, UnknownStreamError
from repro.persistence import EventLog, read_log
from repro.runtime import ShardedRuntime
from repro.runtime.sharded import ShardedQuery
from repro.storage.database import GestureDatabase

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


def session_config(engine: str) -> SessionConfig:
    shards, executor = ENGINES[engine]
    return SessionConfig(shards=shards, shard_executor=executor)


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
    return [(p.name, p.kind) for p in inspect.signature(function).parameters.values()]


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
        assert {"matcher_config", "reset_transformers", "drain", "export_trace"} <= set(
            members(Engine)
        )
        assert {"detections", "sink", "progress"} <= set(members(QueryHandle))

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
