"""Durability subsystem: event log, snapshot store, manager, replay, crash.

The crash-recovery test at the bottom is the headline guarantee: a writer
process is SIGKILLed mid-stream (no atexit, no flush-on-close), and
recovery from its directory reproduces the detections of an uninterrupted
reference run exactly.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro.api import DurabilityConfig, F, GestureSession, Q, SessionConfig
from repro.cep import CEPEngine
from repro.errors import (
    EventLogError,
    RecoveryError,
    ReplayStateError,
    SessionStateError,
    SnapshotError,
)
from repro.persistence import (
    DurabilityManager,
    EventLog,
    ReplayController,
    SnapshotStore,
    read_log,
)
from repro.streams import SimulatedClock

HANDS_UP = Q.stream("kinect_t").where(F("rhand_y") > 400).named("hands_up")


def entries(directory):
    return list(read_log(directory))


class TestEventLog:
    def test_append_and_read_round_trip(self, tmp_path):
        log = EventLog(tmp_path)
        log.append_control("deploy", {"name": "g", "text": "..."})
        log.append_tuples("kinect", [{"ts": 0.0, "x": 1}, {"ts": 0.1, "x": 2}], 64)
        log.append_snapshot_marker({"log_offset": 1})
        log.close()

        got = entries(tmp_path)
        assert [e.op for e in got] == ["control", "tuples", "snapshot"]
        assert [e.offset for e in got] == [0, 1, 2]
        assert got[0].control == "deploy"
        assert got[1].stream == "kinect"
        assert got[1].records == [{"ts": 0.0, "x": 1}, {"ts": 0.1, "x": 2}]
        assert got[1].batch_size == 64

    def test_offsets_continue_across_reopen_in_new_segment(self, tmp_path):
        log = EventLog(tmp_path)
        log.append_control("a")
        log.append_control("b")
        log.close()
        # A reopened writer never appends to an old segment.
        log2 = EventLog(tmp_path)
        offset = log2.append_control("c")
        log2.close()
        assert offset == 2
        assert [e.offset for e in entries(tmp_path)] == [0, 1, 2]
        assert len(list(tmp_path.glob("events-*.jsonl"))) == 2

    def test_rotation_by_entry_count(self, tmp_path):
        log = EventLog(tmp_path, segment_max_entries=2)
        for i in range(5):
            log.append_control("op", {"i": i})
        log.close()
        assert len(list(tmp_path.glob("events-*.jsonl"))) >= 3
        assert [e.offset for e in entries(tmp_path)] == list(range(5))

    def test_torn_final_line_is_dropped(self, tmp_path):
        log = EventLog(tmp_path)
        log.append_control("kept")
        log.append_control("torn")
        log.close()
        segment = sorted(tmp_path.glob("events-*.jsonl"))[-1]
        text = segment.read_text()
        segment.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
        got = entries(tmp_path)
        assert [e.control for e in got] == ["kept"]

    def test_corrupt_mid_log_line_raises(self, tmp_path):
        log = EventLog(tmp_path)
        log.append_control("a")
        log.append_control("b")
        log.close()
        segment = sorted(tmp_path.glob("events-*.jsonl"))[-1]
        lines = segment.read_text().splitlines(keepends=True)
        lines[1] = "{garbage\n"  # first entry after the segment header
        segment.write_text("".join(lines))
        with pytest.raises(EventLogError):
            entries(tmp_path)

    def test_offset_gap_raises(self, tmp_path):
        log = EventLog(tmp_path)
        log.append_control("a")
        log.append_control("b")
        log.close()
        segment = sorted(tmp_path.glob("events-*.jsonl"))[-1]
        lines = segment.read_text().splitlines(keepends=True)
        doctored = json.loads(lines[2])
        doctored["offset"] = 7
        lines[2] = json.dumps(doctored) + "\n"
        segment.write_text("".join(lines))
        with pytest.raises(EventLogError, match="gap"):
            entries(tmp_path)

    def test_start_offset_skips_prefix(self, tmp_path):
        log = EventLog(tmp_path)
        for i in range(4):
            log.append_control("op", {"i": i})
        log.close()
        got = list(read_log(tmp_path, start_offset=2))
        assert [e.offset for e in got] == [2, 3]

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            EventLog(tmp_path, fsync="sometimes")
        with pytest.raises(ValueError):
            DurabilityConfig(tmp_path, fsync="sometimes")

    def test_close_is_idempotent_and_writes_manifest(self, tmp_path):
        log = EventLog(tmp_path)
        log.append_control("a")
        log.close()
        log.close()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["kind"] == "event-log-manifest"


class TestSnapshotStore:
    def test_save_load_latest_best_for(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save({"kind": "x", "n": 1}, log_offset=3)
        store.save({"kind": "x", "n": 2}, log_offset=9)
        assert store.latest().state["n"] == 2
        assert store.best_for(5).log_offset == 3
        assert store.best_for(9).log_offset == 9
        assert store.best_for(2) is None

    def test_prune_keeps_newest(self, tmp_path):
        store = SnapshotStore(tmp_path, keep_last=2)
        for offset in range(5):
            store.save({"kind": "x"}, log_offset=offset)
        assert [record.log_offset for record in map(store.load, store.paths())] == [3, 4]

    def test_malformed_snapshot_raises(self, tmp_path):
        store = SnapshotStore(tmp_path)
        path = store.save({"kind": "x"}, log_offset=0)
        path.write_text("not json at all")
        with pytest.raises(SnapshotError):
            store.load(path)


def _engine_with_query():
    engine = CEPEngine(clock=SimulatedClock())
    engine.register_query(HANDS_UP, name="hands_up")
    return engine


class TestDurabilityManager:
    def test_tap_logs_before_delivery_and_suspend_suppresses(self, tmp_path):
        engine = _engine_with_query()
        manager = DurabilityManager(engine, DurabilityConfig(tmp_path))
        manager.attach()
        engine.push("kinect_t", {"ts": 0.0, "rhand_y": 500.0})
        with manager.suspended():
            engine.push("kinect_t", {"ts": 1.0, "rhand_y": 500.0})
        manager.close()
        got = entries(tmp_path)
        assert len(got) == 1 and got[0].records[0]["ts"] == 0.0
        assert manager.metrics.snapshot()["entries_appended"] == 1

    def test_snapshot_anchor_and_tail_replay(self, tmp_path):
        engine = _engine_with_query()
        manager = DurabilityManager(engine, DurabilityConfig(tmp_path))
        manager.attach()
        engine.push("kinect_t", {"ts": 0.0, "rhand_y": 500.0})
        anchor = manager.snapshot()
        engine.push("kinect_t", {"ts": 1.0, "rhand_y": 500.0})
        manager.close()
        # The snapshot file holds the engine state in the session envelope.
        assert manager.snapshots.latest().state["kind"] == "session"

        restored = CEPEngine(clock=SimulatedClock())
        manager2 = DurabilityManager(restored, DurabilityConfig(tmp_path))
        manager2.attach()
        result = manager2.recover_into()
        manager2.close()
        assert result.snapshot_offset == anchor == 0
        assert result.replayed_entries == 1 and result.replayed_tuples == 1
        # the snapshot restored the first detection, the tail the second
        assert [d.timestamp for d in restored.detections("hands_up")] == [0.0, 1.0]
        # and recovery appended nothing: the log still ends at the live tail
        assert [e.op for e in entries(tmp_path)] == ["tuples", "snapshot", "tuples"]

    def test_maybe_snapshot_threshold(self, tmp_path):
        engine = _engine_with_query()
        manager = DurabilityManager(engine, DurabilityConfig(tmp_path, snapshot_every_tuples=3))
        manager.attach()
        for i in range(2):
            engine.push("kinect_t", {"ts": float(i), "rhand_y": 0.0})
        assert manager.maybe_snapshot() is None
        engine.push("kinect_t", {"ts": 2.0, "rhand_y": 0.0})
        assert manager.maybe_snapshot() is not None
        assert manager.maybe_snapshot() is None  # counter was reset
        manager.close()

    def test_recovery_error_wraps_bad_snapshot(self, tmp_path):
        engine = _engine_with_query()
        manager = DurabilityManager(engine, DurabilityConfig(tmp_path))
        manager.snapshots.save({"kind": "bogus"}, log_offset=0)
        with pytest.raises(RecoveryError):
            manager.recover_into()
        manager.close()


class TestReplayController:
    def _record(self, tmp_path):
        with GestureSession(durability=DurabilityConfig(tmp_path)) as session:
            session.deploy(HANDS_UP)
            session.feed([{"ts": 0.0, "rhand_y": 500.0}], stream="kinect_t")
            session.snapshot()
            session.feed(
                [{"ts": 1.0, "rhand_y": 100.0}, {"ts": 2.0, "rhand_y": 600.0}],
                stream="kinect_t",
            )
            return [event.gesture for event in session.events], session

    def test_play_step_pause_and_seek(self, tmp_path):
        live, session = self._record(tmp_path)
        controller = session.replay()
        assert controller.position == -1 and not controller.finished
        assert controller.step() == 1  # the deploy control
        controller.play()
        assert controller.finished
        assert [event.gesture for event in controller.target.events] == live

        controller.seek(1)  # back to just after the first tuple entry
        assert controller.position == 1
        assert len(controller.target.events) == 1
        controller.play()
        assert [event.gesture for event in controller.target.events] == live

    def test_seek_uses_snapshot_for_backward_jump(self, tmp_path):
        live, session = self._record(tmp_path)
        controller = session.replay()
        controller.play()
        # The snapshot sits at the anchor offset; seeking back must land on
        # a state with exactly one event, restored rather than recomputed.
        controller.seek(1)
        assert [event.gesture for event in controller.target.events] == live[:1]

    def test_seek_beyond_log_raises(self, tmp_path):
        _, session = self._record(tmp_path)
        controller = session.replay()
        with pytest.raises(ReplayStateError):
            controller.seek(controller.last_offset + 1)
        with pytest.raises(ReplayStateError):
            controller.seek(-2)

    def test_pause_stops_playback(self, tmp_path):
        _, session = self._record(tmp_path)
        controller = session.replay()
        controller.target.on_any(lambda event: controller.pause())
        applied = controller.play()
        assert not controller.finished
        assert applied < len(controller)
        controller.play()
        assert controller.finished

    def test_paced_playback_is_ordered_and_complete(self, tmp_path):
        live, session = self._record(tmp_path)
        controller = session.replay(speed=1000.0)
        controller.play()
        assert [event.gesture for event in controller.target.events] == live

    def test_engine_target_with_default_callables(self, tmp_path):
        live, session = self._record(tmp_path)

        def factory():
            engine = CEPEngine(clock=SimulatedClock())
            engine.create_stream("kinect_t")
            return engine

        controller = ReplayController(tmp_path, factory)
        controller.play()
        assert [d.query_name for d in controller.target.detections()] == live

    def test_replay_requires_durability(self):
        with GestureSession() as session:
            with pytest.raises(SessionStateError):
                session.replay()

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_backward_seek_closes_the_target_it_replaces(self, tmp_path, executor):
        def workers():
            threads = {t.name for t in threading.enumerate() if t.name.startswith("repro-shard")}
            return threads, {child.pid for child in multiprocessing.active_children()}

        before = workers()
        config = SessionConfig(shards=2, shard_executor=executor)
        rows = [{"ts": float(i), "player": i % 3, "rhand_y": 500.0} for i in range(6)]
        with GestureSession(config, durability=DurabilityConfig(tmp_path)) as session:
            session.deploy(HANDS_UP)
            session.feed(rows[:3], stream="kinect_t")
            session.snapshot()
            session.feed(rows[3:], stream="kinect_t")
            controller = session.replay()
            replaced = []
            try:
                for _ in range(3):
                    controller.play()
                    replaced.append(controller.target)
                    controller.seek(1)  # behind the play head: a rebuild
                assert [target.runtime.stopped for target in replaced] == [True] * 3
                assert not controller.target.runtime.stopped
            finally:
                controller.target.close()
        assert workers() == before


CRASH_WRITER = textwrap.dedent(
    """
    import os, signal, sys
    from repro.api import DurabilityConfig, F, GestureSession, Q, SessionConfig

    directory = sys.argv[1]
    session = GestureSession(
        durability=DurabilityConfig(directory, snapshot_every_tuples=8)
    )
    session.start()
    session.deploy(Q.stream("kinect_t").where(F("rhand_y") > 400).named("hands_up"))
    for i in range(20):
        session.feed(
            [{"ts": float(i), "player": i % 3, "rhand_y": 500.0 if i % 2 == 0 else 100.0}],
            stream="kinect_t",
        )
    sys.stdout.write("fed\\n")
    sys.stdout.flush()
    os.kill(os.getpid(), signal.SIGKILL)  # no close(), no flush, no atexit
    """
)


class TestCrashRecovery:
    def test_sigkilled_writer_recovers_byte_identically(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.run(
            [sys.executable, "-c", CRASH_WRITER, str(tmp_path)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=120,
        )
        assert process.returncode == -signal.SIGKILL
        assert b"fed" in process.stdout, process.stderr.decode()

        recovered = GestureSession.recover(DurabilityConfig(tmp_path))
        assert recovered.last_recovery.replayed_entries > 0  # log tail, not just snapshot

        # The uninterrupted reference run.
        with GestureSession() as reference:
            reference.deploy(HANDS_UP)
            for i in range(20):
                reference.feed(
                    [
                        {
                            "ts": float(i),
                            "player": i % 3,
                            "rhand_y": 500.0 if i % 2 == 0 else 100.0,
                        }
                    ],
                    stream="kinect_t",
                )
            expected = [d.to_state() for d in reference.detections()]
            expected_events = [event.gesture for event in reference.events]

        assert [d.to_state() for d in recovered.detections()] == expected
        assert [event.gesture for event in recovered.events] == expected_events
        for partition in (0, 1, 2):
            assert [
                d.to_state() for d in recovered.detections(partition=partition)
            ] == [s for s in expected if s["partition"] == partition]
        recovered.close()
