"""Snapshot round-trips: capture → JSON → restore → identical behaviour.

The matrix covers the matcher execution paths (per-tuple vs batched
delivery), with and without matched tuples in the runs, and both partitioning modes
(per-player and global run tables).  "Identical" is asserted the strong
way: after restoring into a fresh engine, feeding the *same subsequent
tuples* to the original and the restored stack must produce byte-identical
detection state — partial matches survive the round-trip, not just
finished results.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.api import DurabilityConfig, F, GestureSession, Q, SessionConfig
from repro.cep import CEPEngine, install_kinect_view
from repro.cep.matcher import MatcherConfig
from repro.errors import (
    RecoveryError,
    SerializationError,
    SessionClosedError,
    SessionStateError,
)
from repro.streams import SimulatedClock

UP_DOWN = (
    Q.stream("kinect_t")
    .where(F("rhand_y") > 400)
    .then(F("rhand_y") < 150)
    .within(5.0)
    .named("up_down")
)


def frames(count, start=0):
    """Interleaved multi-player frames; odd frames complete the sequence."""
    return [
        {
            "ts": float(i),
            "player": i % 3,
            "rhand_y": 500.0 if i % 2 == 0 else 100.0,
        }
        for i in range(start, start + count)
    ]


def feed(engine, records, batch_size):
    engine.push_many("kinect_t", records, batch_size=batch_size)


def detection_states(engine, name=None):
    return [d.to_state() for d in engine.detections(name)]


class TestEngineRoundTrip:
    @pytest.mark.parametrize("store_matched_tuples", [True, False])
    @pytest.mark.parametrize("partition_field", ["player", None])
    @pytest.mark.parametrize("batch_size", [None, 4])
    def test_round_trip_preserves_subsequent_detections(
        self, store_matched_tuples, partition_field, batch_size
    ):
        config = MatcherConfig(
            store_matched_tuples=store_matched_tuples, partition_field=partition_field
        )
        original = CEPEngine(clock=SimulatedClock(), matcher_config=config)
        original.register_query(UP_DOWN, name="up_down")
        # Stop on an even frame: partial matches are in flight per player.
        feed(original, frames(7), batch_size)

        # The snapshot must survive an actual JSON round-trip.
        state = json.loads(json.dumps(original.capture_state()))
        restored = CEPEngine(clock=SimulatedClock(), matcher_config=config)
        restored.restore_state(state)

        assert detection_states(restored) == detection_states(original)
        feed(original, frames(8, start=7), batch_size)
        feed(restored, frames(8, start=7), batch_size)
        assert detection_states(restored) == detection_states(original)
        # The full captured state converges too (run tables, counters).
        after_a = original.capture_state()
        after_b = restored.capture_state()
        assert after_a["queries"] == after_b["queries"]
        assert after_a["tuples_processed"] == after_b["tuples_processed"]

    @pytest.mark.parametrize("recorded", ["player", None])
    def test_a_query_captured_under_another_partition_field_is_refused(self, recorded):
        """Older snapshots record each query's partition field.  One that
        differs from the restoring engine's cannot be honoured — every query
        runs under its engine's configuration — so it fails before any
        state changes, and one that agrees restores."""
        original = CEPEngine(clock=SimulatedClock())
        original.register_query(UP_DOWN, name="up_down")
        feed(original, frames(7), None)
        state = json.loads(json.dumps(original.capture_state()))
        assert "partition_field" not in state["queries"][0]
        state["queries"][0]["partition_field"] = recorded

        device = MatcherConfig(partition_field="device")
        engine = CEPEngine(clock=SimulatedClock(), matcher_config=device)
        with pytest.raises(SerializationError, match="up_down"):
            engine.restore_state(state)
        assert engine.query_names() == [] and engine.tuples_processed == 0
        agreeing = MatcherConfig(partition_field=recorded)
        restored = CEPEngine(clock=SimulatedClock(), matcher_config=agreeing)
        restored.restore_state(state)
        assert restored.query_names() == ["up_down"]

    def test_runs_holding_full_frames_restore_and_complete(self, noiseless_simulator):
        """Runs captured before ``kinect_t`` was projected hold the full
        48-key transformed frame.  Such a snapshot restores, and a run
        completes with its old full record next to a projected one."""
        query = (
            'SELECT "two" MATCHING kinect_t(rhand_y > -100000) -> kinect_t(ts > 0.5) '
            "within 5 seconds select first consume all;"
        )
        first, second = (dict(noiseless_simulator.measure_rest(), ts=t) for t in (0.0, 1.0))
        wide = CEPEngine(clock=SimulatedClock())
        install_kinect_view(wide)
        wide.register_query(query)
        # A subscriber declaring nothing: every record is the full frame, as
        # every record was before the projection.
        wide.get_stream("kinect_t").subscribe(lambda record: None)
        wide.push("kinect", first)
        state = json.loads(json.dumps(wide.capture_state()))
        [partition] = state["queries"][0]["matcher"]["partitions"]
        assert [len(record) for run in partition["runs"] for record in run["matched"]] == [48]

        narrow = CEPEngine(clock=SimulatedClock())
        install_kinect_view(narrow)
        narrow.restore_state(state)
        for engine in (wide, narrow):
            engine.push("kinect", second)
        [old] = wide.detections()
        [new] = narrow.detections()
        assert len(old.matched[0]) == len(old.matched[1]) == 48
        assert new.matched[0] == old.matched[0]  # restored as captured
        assert set(new.matched[1]) < set(old.matched[1])
        assert new.matched[1] == {key: old.matched[1][key] for key in new.matched[1]}
        assert new.step_timestamps == old.step_timestamps

    def test_restore_rejects_wrong_kind(self):
        engine = CEPEngine(clock=SimulatedClock())
        with pytest.raises(Exception):
            engine.restore_state({"kind": "something-else"})


class TestSessionRoundTrip:
    def test_inline_recover_equivalence_with_batched_feed(self, tmp_path):
        live = GestureSession(
            config=SessionConfig(batch_size=4),
            durability=DurabilityConfig(tmp_path),
        )
        live.start()
        live.deploy(UP_DOWN)
        live.feed(frames(7), stream="kinect_t")
        live.snapshot()
        live.feed(frames(8, start=7), stream="kinect_t")
        expected = [d.to_state() for d in live.detections()]
        expected_events = [event.gesture for event in live.events]
        # Crash: the session is dropped without close().

        recovered = GestureSession.recover(
            DurabilityConfig(tmp_path), config=SessionConfig(batch_size=4)
        )
        assert [d.to_state() for d in recovered.detections()] == expected
        assert [event.gesture for event in recovered.events] == expected_events

        # Subsequent detections stay identical on both stacks.
        live.feed(frames(6, start=15), stream="kinect_t")
        recovered.feed(frames(6, start=15), stream="kinect_t")
        assert [d.to_state() for d in recovered.detections()] == [
            d.to_state() for d in live.detections()
        ]
        live.close()
        recovered.close()

    def test_transformer_state_survives_the_snapshot(self, tmp_path, simulator, swipe):
        performance = simulator.perform_variation(swipe)
        live = GestureSession(durability=DurabilityConfig(tmp_path))
        live.start()
        live.feed(performance)  # raw kinect frames drive the kinect_t view
        live.snapshot()
        captured = live.transformer.capture_state()
        assert captured is not None

        recovered = GestureSession.recover(DurabilityConfig(tmp_path))
        assert recovered.transformer.capture_state() == captured
        live.close()
        recovered.close()

    def test_snapshot_requires_durability(self):
        with GestureSession() as session:
            with pytest.raises(SessionStateError):
                session.snapshot()

    def test_feed_after_close_raises_and_close_seals_the_log(self, tmp_path):
        session = GestureSession(durability=DurabilityConfig(tmp_path))
        session.start()
        session.deploy(UP_DOWN)
        session.feed(frames(4), stream="kinect_t")
        manager = session.durability
        session.close()
        session.close()  # idempotent
        assert manager.closed and manager.log.closed
        assert (tmp_path / "manifest.json").exists()
        with pytest.raises(SessionClosedError):
            session.feed(frames(1), stream="kinect_t")

    def test_inline_metrics_cover_durability(self, tmp_path):
        with GestureSession(durability=DurabilityConfig(tmp_path)) as session:
            session.deploy(UP_DOWN)
            session.feed(frames(4), stream="kinect_t")
            session.snapshot()
            snapshot = session.metrics.snapshot()
            assert snapshot["durability"]["entries_appended"] >= 2
            assert snapshot["durability"]["snapshots_taken"] == 1
            json.loads(session.metrics.to_json())  # satellite: serialisable


class TestShardedRoundTrip:
    CONFIG = SessionConfig(shards=4)

    def test_sharded_recover_matches_inline_per_partition(self, tmp_path):
        sharded = GestureSession(
            config=self.CONFIG, durability=DurabilityConfig(tmp_path)
        )
        sharded.start()
        sharded.deploy(UP_DOWN)
        sharded.feed(frames(7), stream="kinect_t")
        sharded.snapshot()
        sharded.feed(frames(8, start=7), stream="kinect_t")
        sharded.drain()
        # Crash: stop the workers without close() (no log seal).
        sharded.runtime.stop(drain=False)
        sharded.runtime.join()

        recovered = GestureSession.recover(DurabilityConfig(tmp_path), config=self.CONFIG)
        recovered.feed(frames(6, start=15), stream="kinect_t")

        with GestureSession() as inline:
            inline.deploy(UP_DOWN)
            inline.feed(frames(21), stream="kinect_t")
            for partition in (0, 1, 2):
                assert [
                    d.to_state() for d in recovered.detections(partition=partition)
                ] == [d.to_state() for d in inline.detections(partition=partition)]
        assert recovered.metrics.snapshot()["durability"]["recoveries"] == 1
        recovered.close()

    def test_topology_mismatch_is_refused(self, tmp_path):
        sharded = GestureSession(
            config=self.CONFIG, durability=DurabilityConfig(tmp_path)
        )
        sharded.start()
        sharded.deploy(UP_DOWN)
        sharded.feed(frames(4), stream="kinect_t")
        sharded.snapshot()
        sharded.close()
        with pytest.raises(RecoveryError, match="topology"):
            GestureSession.recover(
                DurabilityConfig(tmp_path), config=SessionConfig(shards=2)
            )

    def test_sharded_snapshot_survives_json(self, tmp_path):
        session = GestureSession(
            config=self.CONFIG, durability=DurabilityConfig(tmp_path)
        )
        session.start()
        session.deploy(UP_DOWN)
        session.feed(frames(9), stream="kinect_t")
        session.snapshot()
        state = session.durability.snapshots.latest().state
        round_tripped = json.loads(json.dumps(state))
        assert round_tripped["engine"]["kind"] == "sharded-runtime"
        assert round_tripped["engine"]["router"]["shard_count"] == 4
        session.close()


class TestShardedRoundTripOnProcesses(TestShardedRoundTrip):
    """Snapshot → crash → recover is transport-independent."""

    CONFIG = SessionConfig(shards=4, shard_executor="process")


# ---------------------------------------------------------------------------
# One detection log per engine, in every snapshot format
# ---------------------------------------------------------------------------

#: Two one-step queries fed three players' frames that share timestamps.
PAIR = ('SELECT "a" MATCHING kinect_t(x > 0);', 'SELECT "b" MATCHING kinect_t(y > 0);')

#: Players 1 and 2 are on one of two shards, player 4 on the other.
PAIR_FRAMES = [
    {"ts": float(ts), "player": player, "x": float((ts + player) % 2), "y": float(ts % 3 != 1)}
    for ts in range(1, 9)
    for player in (4, 1, 2)
]

LATER_FRAMES = [dict(frame, ts=frame["ts"] + 10.0) for frame in PAIR_FRAMES]

PAIR_ENGINES = {"inline": SessionConfig(), "thread2": SessionConfig(shards=2)}

#: Durability directories of :func:`record_pair`, one per engine, written
#: by the version whose inline snapshots kept one detection list per query
#: and whose sharded snapshots kept the parent's merged list besides the
#: shards' (see :func:`write_pair_fixtures`).
FIXTURES = Path(__file__).parent / "data" / "snapshots"


def record_pair(session, order=PAIR):
    """The recorded run: deploy, feed, snapshot, then feed the log tail."""
    for text in order:
        session.deploy(text)
    session.feed(PAIR_FRAMES[:12], stream="kinect_t")
    session.snapshot()
    session.feed(PAIR_FRAMES[12:], stream="kinect_t")
    session.drain()


def write_pair_fixtures(directory):
    """Write :data:`FIXTURES`: ``python -c "import test_snapshot_roundtrip as
    t; t.write_pair_fixtures('tests/data/snapshots')"`` from the repository
    root, with ``src`` and ``tests`` on ``PYTHONPATH``."""
    for engine, config in PAIR_ENGINES.items():
        session = GestureSession(config, durability=DurabilityConfig(Path(directory) / engine))
        record_pair(session)
        session.close()


def engine_snapshot(directory):
    newest = max(Path(directory).glob("snapshot-*.json"))
    return json.loads(newest.read_text())["state"]["engine"]


def read(session):
    return (
        [d.to_state() for d in session.detections()],
        [(e.gesture, e.partition, e.timestamp) for e in session.events],
    )


class TestOneDetectionLog:
    @pytest.mark.parametrize("engine", sorted(PAIR_ENGINES))
    def test_an_older_snapshot_restores_as_the_recorded_run(self, engine, tmp_path):
        directory = tmp_path / "recorded"
        shutil.copytree(FIXTURES / engine, directory)
        state = engine_snapshot(directory)
        if engine == "inline":
            assert "detections" not in state
            assert all(query["detections"] for query in state["queries"])
        else:
            assert state["detections"]
        config = PAIR_ENGINES[engine]
        with GestureSession(config, durability=DurabilityConfig(tmp_path / "live")) as live:
            record_pair(live)
            expected = read(live)
        recovered = GestureSession.recover(DurabilityConfig(directory), config)
        try:
            assert recovered.last_recovery.snapshot_offset is not None
            assert read(recovered) == expected
        finally:
            recovered.close()

    @pytest.mark.parametrize("engine", sorted(PAIR_ENGINES))
    @pytest.mark.parametrize("order", [PAIR, PAIR[::-1]], ids=["ab", "ba"])
    def test_a_snapshot_holds_each_detection_once_and_restores_as_live(
        self, engine, order, tmp_path
    ):
        config = PAIR_ENGINES[engine]
        live = GestureSession(config, durability=DurabilityConfig(tmp_path / "live"))
        try:
            record_pair(live, order)
            live.snapshot()
            shutil.copytree(tmp_path / "live", tmp_path / "crash")
            state = engine_snapshot(tmp_path / "crash")
            if engine == "inline":
                stored = state["detections"]
                assert not any("detections" in query for query in state["queries"])
            else:
                assert "detections" not in state
                stored = [d for shard in state["shards"].values() for d in shard["detections"]]
            assert len(stored) == len(live.detections())
            # Two queries complete on one frame: a restored engine keeps
            # their deploy order, so the continuation reads as the live one.
            live.feed(LATER_FRAMES, stream="kinect_t")
            expected = read(live)
        finally:
            live.close()
        recovered = GestureSession.recover(DurabilityConfig(tmp_path / "crash"), config)
        try:
            recovered.feed(LATER_FRAMES, stream="kinect_t")
            assert read(recovered) == expected
        finally:
            recovered.close()
