"""One workload, every execution mode, byte-identical detections per player.

The workload is the paper's deployment: a *learned* multi-gesture
vocabulary matching *raw* multi-user sensor frames through the
``kinect_t`` view.  A hand-wired per-tuple ``CEPEngine`` is the baseline;
every other way of running the same vocabulary is one more parameter and
must reproduce its ``Detection.to_state()`` sequences per (player, query).
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from reference_matcher import reference_detections
from repro.api import DurabilityConfig, GestureSession, SessionConfig
from repro.cep import CEPEngine, install_kinect_view
from repro.cep.matcher import MatcherConfig
from repro.core import GestureLearner, LearnerConfig, QueryGenerator
from repro.gateway.tenants import Tenant, TenantConfig
from repro.runtime.shard import Shard
from repro.runtime.transport import MemoryTransport
from repro.kinect import (
    CircleTrajectory,
    GaussianNoise,
    KinectSimulator,
    PushTrajectory,
    SwipeTrajectory,
    generate_multiuser_recording,
)
from repro.streams import SimulatedClock

GESTURES = {
    "swipe_right": SwipeTrajectory("right"),
    "swipe_left": SwipeTrajectory("left", hand="lhand"),
    "circle": CircleTrajectory(),
    "push": PushTrajectory(),
}

#: A run cap tight enough to bind (the default 256 never does here).  At the
#: cap, batched delivery — which prunes a partition once per batch, not per
#: tuple — must lazily evict expired runs to start the runs the per-tuple
#: path starts; that is the one place a wrong batch prune becomes visible.
MATCHER = MatcherConfig(max_active_runs=4)


def config(matcher=MATCHER, **kwargs):
    return SessionConfig(matcher=matcher, **kwargs)


#: mode -> (session configuration, event-log fsync policy or None)
MODES = {
    "session-per-tuple": (config(), None),
    "session-batch64": (config(batch_size=64), None),
    "session-one-batch": (config(batch_size=1 << 20), None),
    "thread-shards-4": (config(shards=4, batch_size=64), None),
    "thread-shards-8": (config(shards=8), None),
    "process-shards-2": (config(shards=2, shard_executor="process"), None),
    "durable-rotate": (config(batch_size=64), "rotate"),
    "durable-batch": (config(batch_size=64), "batch"),
    "durable-always": (config(batch_size=64), "always"),
}


def per_player(detections):
    """Detection states as JSON text, keyed by (player, query), in order."""
    grouped = {}
    for detection in detections:
        grouped.setdefault((detection.partition, detection.query_name), []).append(
            json.dumps(detection.to_state(), sort_keys=True)
        )
    return grouped


@pytest.fixture(scope="module")
def queries():
    """One query per gesture, each learned from four simulated performances."""
    learned = []
    for seed, (name, trajectory) in enumerate(GESTURES.items(), start=500):
        simulator = KinectSimulator(
            clock=SimulatedClock(),
            noise=GaussianNoise(sigma_mm=6.0, rng=np.random.default_rng(seed)),
            rng=np.random.default_rng(seed + 1),
        )
        samples = [
            simulator.perform_variation(trajectory, hold_start_s=0.3, hold_end_s=0.3)
            for _ in range(4)
        ]
        learner = GestureLearner(name, config=LearnerConfig(joints=(trajectory.hand,)))
        learned.append(QueryGenerator().generate(learner.learn(samples)))
    return learned


@pytest.fixture(scope="module")
def frames():
    recording = generate_multiuser_recording(
        GESTURES, user_count=4, gestures_per_user=4, seed=77
    )
    return recording.frames


@pytest.fixture(scope="module")
def baseline(queries, frames):
    """Hand-wired engine + view, one ``push`` per frame."""
    engine = CEPEngine(clock=SimulatedClock(), matcher_config=MATCHER)
    install_kinect_view(engine)
    for query in queries:
        engine.register_query(query)
    for frame in frames:
        engine.push("kinect", frame)
    expected = per_player(engine.detections())
    assert {player for player, _ in expected} == {1, 2, 3, 4}
    return expected


def test_reference_matcher_detects_what_the_hand_wired_engine_detects(
    queries, frames, baseline
):
    """The interpreted oracle, fed the view's ``kinect_t`` tuples, agrees."""
    engine = CEPEngine(clock=SimulatedClock(), matcher_config=MATCHER)
    install_kinect_view(engine)
    transformed = []
    # Declare what the four queries read, as the baseline's fan-out does, so
    # the view projects the same joints for the oracle.
    reads = {
        field for query in queries for event in query.events() for field in event.predicate.fields()
    }
    engine.get_stream("kinect_t").subscribe(transformed.append, reads=reads)
    for frame in frames:
        engine.push("kinect", frame)
    detections = reference_detections(queries, "kinect_t", transformed, MATCHER)
    assert per_player(detections) == baseline


@pytest.mark.parametrize("mode", MODES)
def test_mode_detects_what_the_hand_wired_engine_detects(
    mode, queries, frames, baseline, tmp_path
):
    session_config, fsync = MODES[mode]
    durability = DurabilityConfig(tmp_path, fsync=fsync) if fsync else None
    with GestureSession(session_config, durability=durability) as session:
        for query in queries:
            session.deploy(query)
        session.feed(frames)
        assert per_player(session.detections()) == baseline


def test_a_shard_answers_each_batch_with_one_message(queries, frames, baseline, monkeypatch):
    """Two thread shards at ``batch_size=64``: exactly one ``done`` per
    ``tuples`` message, no message per detection, and the detections ride
    the ``done``s — the same ones the hand-wired engine finds."""
    sent, received = [], []
    send, handle = MemoryTransport.send, Shard.handle

    def spy_send(self, message):
        sent.append(message[0])
        return send(self, message)

    def spy_handle(self, message):
        received.append((message[0], len(message[4]) if message[0] == "done" else 0))
        return handle(self, message)

    monkeypatch.setattr(MemoryTransport, "send", spy_send)
    monkeypatch.setattr(Shard, "handle", spy_handle)
    with GestureSession(config(shards=2, batch_size=64)) as session:
        for query in queries:
            session.deploy(query)
        session.drain()
        del sent[:], received[:]
        session.feed(frames)
        session.drain()
        detections = session.detections()
        kinds = [kind for kind, _ in received]
    assert kinds.count("done") == sent.count("tuples") >= len(frames) / 64
    assert set(kinds) == {"done", "ack"}  # the acks answer the drain's flushes
    assert sum(carried for _, carried in received) == len(detections)
    assert per_player(detections) == baseline


def test_recovery_and_replay_after_a_midpoint_snapshot_detect_the_same(
    queries, frames, baseline, tmp_path
):
    live = GestureSession(config(batch_size=64), durability=DurabilityConfig(tmp_path))
    live.start()
    for query in queries:
        live.deploy(query)
    live.feed(frames[: len(frames) // 2])
    live.snapshot()
    live.feed(frames[len(frames) // 2 :])
    # Crash: ``live`` is abandoned — no close(), the journal is not sealed.
    recovered = GestureSession.recover(
        DurabilityConfig(tmp_path), config=config(batch_size=64)
    )
    replay = recovered.replay()  # the whole journal into a fresh session
    try:
        assert recovered.last_recovery.replayed_tuples > 0
        assert per_player(recovered.detections()) == baseline
        replay.play()
        assert per_player(replay.target.detections()) == baseline
    finally:
        for session in (live, recovered, replay.target):
            session.close()


#: Tuples per gateway frame: not a configured batch size by accident.
GATEWAY_FRAME = 100


@pytest.mark.parametrize(
    "tenant_batch, frame_batch, expected_batch",
    [(64, None, 64), (64, 8, 8), (None, None, None)],
    ids=["tenant-batch-size", "frame-batch-wins", "frame-is-the-batch"],
)
def test_gateway_tenant_feeds_in_the_batches_it_was_told_to(
    tenant_batch, frame_batch, expected_batch, queries, frames, baseline, monkeypatch
):
    """A ``tuples`` frame reaches the engine in batches of the frame's
    ``batch``, else the tenant's ``session.batch_size``, else the frame."""
    seen = []
    push_many = CEPEngine.push_many

    def spy(self, stream, tuples, batch_size=None):
        seen.append((len(tuples), batch_size))
        return push_many(self, stream, tuples, batch_size=batch_size)

    monkeypatch.setattr(CEPEngine, "push_many", spy)
    chunks = [frames[i : i + GATEWAY_FRAME] for i in range(0, len(frames), GATEWAY_FRAME)]

    async def scenario():
        tenant = Tenant("t", TenantConfig(session=config(batch_size=tenant_batch)))
        try:
            await tenant.ensure_started()
            for query in queries:
                await tenant.control("call", lambda session, query=query: session.deploy(query))
            for chunk in chunks:
                assert await tenant.ingest(chunk, None, frame_batch) == (len(chunk), 0)
            return await tenant.control("call", lambda session: per_player(session.detections()))
        finally:
            await tenant.close()

    assert asyncio.run(asyncio.wait_for(scenario(), timeout=60)) == baseline
    assert seen == [(len(chunk), expected_batch or len(chunk)) for chunk in chunks]


#: Two one-step queries; on player 1's second frame both complete.
QUERY_A = 'SELECT "a" MATCHING kinect_t(x > 0);'
QUERY_B = 'SELECT "b" MATCHING kinect_t(y > 0);'

ENGINES = {
    "inline": SessionConfig(),
    "thread2": SessionConfig(shards=2),
    "process2": SessionConfig(shards=2, shard_executor="process"),
}


@pytest.mark.parametrize("other", [2, 4])
def test_every_engine_reads_one_order_and_keeps_an_undeployed_history(other):
    """Two players detect in the same frame: every engine reads the whole
    history in one order, (timestamp, player, arrival), and keeps an
    undeployed query's detections.  Of two shards, player 2 is on player
    1's and player 4 on the other."""
    first = [
        {"ts": 1.0, "player": other, "x": 1.0, "y": 0.0},
        {"ts": 1.0, "player": 1, "x": 0.0, "y": 1.0},
        {"ts": 2.0, "player": 1, "x": 1.0, "y": 1.0},
    ]
    later = [
        {"ts": 3.0, "player": other, "x": 1.0, "y": 1.0},
        {"ts": 3.0, "player": 1, "x": 1.0, "y": 1.0},
    ]

    def states(session):
        return [json.dumps(d.to_state(), sort_keys=True) for d in session.detections()]

    read = {}
    for engine, session_config in ENGINES.items():
        with GestureSession(session_config) as session:
            session.deploy(QUERY_A)
            session.deploy(QUERY_B)
            session.feed(first, stream="kinect_t")
            before = states(session)
            session.undeploy("a")
            session.feed(later, stream="kinect_t")
            events = [(e.gesture, e.partition, e.timestamp) for e in session.events]
            read[engine] = (before, states(session), events)
    assert read["thread2"] == read["inline"]
    assert read["process2"] == read["inline"]
    assert read["inline"][2] == [
        ("b", 1, 1.0), ("a", other, 1.0),
        ("a", 1, 2.0), ("b", 1, 2.0),
        ("b", 1, 3.0), ("b", other, 3.0),
    ]
