"""Health rules: stall, saturation and fsync detection without false
positives on idle (the ``ReplayController.pause()`` case in particular)
or on a healthy log that is not due an fsync.

Everything runs on one clock, ``sampler.sample_once(now=...)``: the unit
tests put :class:`HealthWatchdog` on a bare sampler fed by scripted
sources; the session tests give the session's sampler an hour-long beat
so its thread never ticks mid-test, and drive that same sampler by hand.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.api.session import GestureSession, SessionConfig
from repro.observability.health import (
    LIVENESS_PREFIX,
    HealthReport,
    HealthWatchdog,
    WatchdogConfig,
    liveness_reading,
)
from repro.observability.slo import SLO
from repro.observability.timeseries import MetricsSampler
from repro.persistence import FSYNC_OWED_AFTER, DurabilityConfig, EventLog

HIGH = 'SELECT "high" MATCHING kinect_t(rhand_y > 450);'

CONFIG = WatchdogConfig(
    stall_after_seconds=1.0,
    saturation_ratio=0.9,
    saturation_after_seconds=1.0,
    fsync_stall_seconds=1.0,
)


def shard_row(shard_id=0, alive=True, backlog=0, processed=0, depth=None, capacity=None):
    row = {
        "shard_id": shard_id,
        "alive": alive,
        "backlog": backlog,
        "tuples_processed": processed,
    }
    if depth is not None:
        row["queue_depth"] = depth
        row["queue_capacity"] = capacity
    return row


class Rig:
    """A sampler carrying the health rules, over scripted sources the test
    mutates between ticks: liveness ``rows`` and durability ``counters``."""

    def __init__(self, *rows, fsync_owed_after=None, capacity=512):
        self.rows = [dict(row) for row in rows]
        self.counters = {"entries_appended": 0.0, "fsyncs": 0.0}
        self.watchdog = HealthWatchdog(CONFIG, fsync_owed_after=fsync_owed_after)
        self.sampler = MetricsSampler(capacity=capacity, evaluators=(self.watchdog,))
        self.sampler.add_source(LIVENESS_PREFIX, lambda: liveness_reading(self.rows))
        self.sampler.add_source("durability.", lambda: dict(self.counters))

    def at(self, now):
        self.sampler.sample_once(now=now)
        return self.watchdog.report()


def make_frames(count=60):
    return [
        {"ts": index * 0.01, "player": 1 + index % 3, "rhand_y": 500.0}
        for index in range(count)
    ]


class TestWatchdogConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stall_after_seconds": 0.0},
            {"saturation_ratio": 0.0},
            {"saturation_ratio": 1.5},
            {"saturation_after_seconds": 0.0},
            {"fsync_stall_seconds": -1.0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            WatchdogConfig(**kwargs)


class TestLivenessReading:
    def test_rows_flatten_under_their_shard_id(self):
        reading = liveness_reading([shard_row(shard_id=3, backlog=2, processed=7)])
        assert reading == {
            "3.alive": 1.0,
            "3.backlog": 2.0,
            "3.tuples_processed": 7.0,
        }


class TestShardChecks:
    def test_progressing_shard_is_ok(self):
        rig = Rig(shard_row(backlog=5, processed=10))
        assert rig.at(0.0).ok
        rig.rows[0]["tuples_processed"] = 20
        for now in (1.0, 2.0, 3.0):
            rig.rows[0]["tuples_processed"] += 10
            assert rig.at(now).ok

    def test_stalled_shard_degrades_then_goes_unhealthy(self):
        rig = Rig(shard_row(shard_id=2, backlog=7, processed=10))
        assert rig.at(0.0).ok
        report = rig.at(1.5)
        assert report.status == "degraded"
        (reason,) = report.reasons
        assert reason.code == "shard-stalled"
        assert reason.subject == "shard-2"
        assert "shard-2" in reason.detail
        assert reason.data["backlog"] == 7
        # 3x the stall window with still no progress: unhealthy.
        report = rig.at(3.5)
        assert report.status == "unhealthy"

    def test_progress_resets_the_stall_clock(self):
        rig = Rig(shard_row(backlog=7, processed=10))
        rig.at(0.0)
        rig.rows[0]["tuples_processed"] = 11
        assert rig.at(1.5).ok
        # Frozen again, but the mark was refreshed at 1.5.
        assert rig.at(2.0).ok
        assert rig.at(2.7).status == "degraded"

    def test_idle_shard_never_stalls(self):
        # Backlog zero with a frozen processed counter is idle, not stuck —
        # exactly what a paused replay looks like.
        rig = Rig(shard_row(backlog=0, processed=1000))
        for now in (0.0, 5.0, 50.0, 500.0):
            assert rig.at(now).ok

    def test_dead_shard_with_backlog_is_unhealthy(self):
        rig = Rig(shard_row(shard_id=1, alive=False, backlog=3))
        report = rig.at(0.0)
        assert report.status == "unhealthy"
        (reason,) = report.reasons
        assert reason.code == "shard-dead"
        assert reason.subject == "shard-1"

    def test_dead_drained_shard_is_ok(self):
        # A worker that exited with nothing pending (clean shutdown).
        rig = Rig(shard_row(alive=False, backlog=0))
        assert rig.at(0.0).ok

    def test_saturated_queue_degrades_after_sustained_window(self):
        rig = Rig(shard_row(backlog=90, processed=10, depth=95, capacity=100))
        rig.at(0.0)
        rig.rows[0]["tuples_processed"] = 50  # progressing, just full
        report = rig.at(1.5)
        codes = {reason.code for reason in report.reasons}
        assert "queue-saturated" in codes
        assert report.status == "degraded"
        # Queue drains: the saturation clock resets.
        rig.rows[0]["queue_depth"] = 10
        rig.rows[0]["tuples_processed"] = 90
        assert rig.at(2.0).ok
        rig.rows[0]["queue_depth"] = 95
        rig.rows[0]["tuples_processed"] = 130
        assert rig.at(2.5).ok  # newly saturated, not sustained

    def test_a_stall_outliving_the_series_is_timed_in_full(self):
        # Four points of history, thirty seconds of stall: the progress
        # mark is evaluator state, so the stuck time is not capped.
        rig = Rig(shard_row(backlog=7, processed=10), capacity=4)
        for now in range(31):
            report = rig.at(float(now))
        (reason,) = report.reasons
        assert reason.data["stuck_seconds"] == 30.0
        assert len(rig.sampler.get(LIVENESS_PREFIX + "0.backlog")) == 4

    def test_raising_source_counts_not_crashes(self):
        rig = Rig()
        rig.sampler.add_source(
            LIVENESS_PREFIX, lambda: (_ for _ in ()).throw(RuntimeError())
        )
        assert rig.at(0.0).ok
        assert rig.sampler.source_errors == 1


class TestFsyncChecks:
    def test_appends_without_fsyncs_degrade(self):
        # fsync="always": one append past the last fsync is already owed.
        rig = Rig(fsync_owed_after=FSYNC_OWED_AFTER["always"])
        assert rig.at(0.0).ok
        rig.counters["entries_appended"] = 50  # appends flowing, fsync frozen
        assert rig.at(0.5).ok  # owed from 0.5, not yet overdue
        report = rig.at(2.0)
        assert report.status == "degraded"
        (reason,) = report.reasons
        assert reason.code == "fsync-stalled"
        assert reason.subject == "durability"
        assert reason.data["appends_pending"] == 50

    def test_advancing_fsyncs_stay_ok(self):
        rig = Rig(fsync_owed_after=FSYNC_OWED_AFTER["always"])
        for now in (0.0, 1.0, 2.0, 3.0):
            rig.counters["entries_appended"] += 10
            rig.counters["fsyncs"] += 1
            assert rig.at(now).ok

    def test_no_appends_is_idle_not_stalled(self):
        rig = Rig(fsync_owed_after=FSYNC_OWED_AFTER["always"])
        rig.counters.update(entries_appended=100, fsyncs=7)
        for now in (0.0, 5.0, 50.0):
            assert rig.at(now).ok

    def test_batch_policy_owes_only_after_a_full_batch(self):
        owed_after = FSYNC_OWED_AFTER["batch"]
        rig = Rig(fsync_owed_after=owed_after)
        for now in range(owed_after):  # one append a second, no fsync due
            rig.counters["entries_appended"] = float(now)
            assert rig.at(float(now)).ok
        rig.counters["entries_appended"] = float(owed_after)  # now one is due
        assert rig.at(100.0).ok
        assert rig.at(101.5).status == "degraded"

    def test_rotate_policy_owes_nothing_the_counters_show(self):
        rig = Rig(fsync_owed_after=FSYNC_OWED_AFTER["rotate"])
        rig.at(0.0)
        rig.counters["entries_appended"] = 10_000
        for now in (1.0, 10.0, 100.0):
            assert rig.at(now).ok


class TestReport:
    def test_worst_severity_wins(self):
        rig = Rig(
            shard_row(shard_id=0, backlog=7, processed=10),
            shard_row(shard_id=1, alive=False, backlog=3),
        )
        rig.at(0.0)
        report = rig.at(1.5)
        assert {reason.severity for reason in report.reasons} == {"degraded", "unhealthy"}
        assert report.status == "unhealthy"

    def test_report_to_dict_shape(self):
        body = Rig().at(0.0).to_dict()
        assert body["status"] == "ok"
        assert body["reasons"] == []
        assert body["checks"] == 1

    def test_report_never_blocks_on_sources(self):
        rig = Rig()
        entered, gate = threading.Event(), threading.Event()

        def slow_source():
            entered.set()
            gate.wait(5.0)
            return {}

        rig.sampler.add_source("slow.", slow_source)
        ticker = threading.Thread(
            target=rig.sampler.sample_once, kwargs={"now": 0.0}, name="test-ticker"
        )
        ticker.start()
        try:
            assert entered.wait(5.0)
            started = time.perf_counter()
            report = rig.watchdog.report()  # published, must not join the tick
            assert time.perf_counter() - started < 1.0
            assert isinstance(report, HealthReport)
        finally:
            gate.set()
            ticker.join(timeout=5.0)
        assert not ticker.is_alive()


class TestSessionIntegration:
    def config(self, **kwargs):
        # An hour-long beat: the sampler thread never ticks mid-test, so
        # sample_once(now=...) is the only clock the rules see.
        return SessionConfig(
            sample_interval_seconds=3600.0, watchdog=WatchdogConfig(), **kwargs
        )

    def test_a_watched_session_runs_one_polling_thread(self):
        def named(name):
            return sum(thread.name == name for thread in threading.enumerate())

        slo = SLO.latency("p99", "hist.ingest_to_detection.p99_seconds", 0.25)
        before = named("repro-metrics-sampler")
        config = SessionConfig(shards=2, slos=(slo,), watchdog=WatchdogConfig())
        with GestureSession(config) as session:
            assert named("repro-metrics-sampler") == before + 1
            assert named("repro-health-watchdog") == 0
            assert session.sampler.interval_seconds == 0.5
            assert session.sampler.evaluators == (session.slo_evaluator, session.watchdog)
        assert named("repro-metrics-sampler") == before

    def test_watchdog_alone_implies_the_default_beat(self):
        with GestureSession(SessionConfig(watchdog=WatchdogConfig())) as session:
            assert session.sampler.running
            assert session.sampler.interval_seconds == 0.5
            assert session.sampler.evaluators == (session.watchdog,)
            assert session.health().checks == 1  # first read takes a real tick

    def test_forced_stall_degrades_naming_the_shard(self):
        with GestureSession(self.config(shards=2)) as session:
            session.deploy(HIGH)
            # Forced stall: an extra liveness source reports shard 9 (a
            # subject the real rows never refresh) with backlog and a
            # frozen processed counter.
            session.sampler.add_source(
                LIVENESS_PREFIX,
                lambda: liveness_reading([shard_row(shard_id=9, backlog=9, processed=42)]),
            )
            session.sampler.sample_once(now=0.0)
            assert session.health().ok
            session.sampler.sample_once(now=6.0)
            report = session.health()
            assert report.status == "degraded"
            assert {reason.subject for reason in report.reasons} == {"shard-9"}
            session.sampler.sample_once(now=16.0)
            assert session.health().status == "unhealthy"

    def test_live_session_reports_ok(self):
        with GestureSession(self.config(shards=2)) as session:
            session.deploy(HIGH)
            session.feed(make_frames(), stream="kinect_t")
            session.drain()
            for now in (0.0, 6.0, 20.0):  # beats over the idle pipeline
                session.sampler.sample_once(now=now)
                report = session.health()
                assert report.ok, report.to_dict()
            assert session.sampler.get(LIVENESS_PREFIX + "1.tuples_processed").latest() > 0

    def test_paused_replay_is_not_a_stall(self, tmp_path):
        # A watched durable session records a feed, then replays its own
        # log with the controller paused mid-stream: the watched pipeline
        # idles and must stay ok well beyond the stall window (the
        # ReplayController.pause() case).
        durability = DurabilityConfig(tmp_path / "log")
        with GestureSession(self.config(shards=2), durability=durability) as session:
            session.deploy(HIGH)
            frames = make_frames()
            # Feed in chunks: each chunk is one log entry, so the replay
            # below can pause with entries still pending.
            for second, start in enumerate(range(0, len(frames), 6)):
                session.feed(frames[start : start + 6], stream="kinect_t")
                session.drain()
                session.sampler.sample_once(now=float(second))
            controller = session.replay(config=SessionConfig())
            applied = controller.step(3)
            assert applied > 0
            controller.pause()
            assert not controller.finished
            for now in (10.0, 20.0, 30.0):  # 4x the stall window while paused
                session.sampler.sample_once(now=now)
                report = session.health()
                assert report.ok, report.to_dict()
            controller.target.close()

    @pytest.mark.parametrize("fsync", ["rotate", "batch"])
    def test_healthy_log_fed_once_a_second_stays_ok(self, tmp_path, fsync):
        durability = DurabilityConfig(tmp_path / "log", fsync=fsync)
        frames = make_frames()
        with GestureSession(self.config(), durability=durability) as session:
            session.deploy(HIGH)
            for second in range(11):
                session.feed(frames[second * 5 : second * 5 + 5], stream="kinect_t")
                session.sampler.sample_once(now=float(second))
                report = session.health()
                assert report.ok, report.to_dict()
            # Appends ran ahead of fsyncs all along, as both policies allow.
            counters = session.metrics.durability.snapshot()
            assert counters["entries_appended"] >= 11
            assert counters["fsyncs"] == 0

    def test_always_log_whose_fsyncs_freeze_degrades(self, tmp_path, monkeypatch):
        durability = DurabilityConfig(tmp_path / "log", fsync="always")
        with GestureSession(self.config(), durability=durability) as session:
            session.deploy(HIGH)
            session.sampler.sample_once(now=0.0)
            monkeypatch.setattr(EventLog, "_fsync", lambda self: None)
            session.feed(make_frames(6), stream="kinect_t")  # owes an fsync it never issues
            session.sampler.sample_once(now=1.0)
            assert session.health().ok  # owed, not yet overdue
            session.sampler.sample_once(now=7.0)
            report = session.health()
            assert report.status == "degraded"
            (reason,) = report.reasons
            assert reason.code == "fsync-stalled"
            assert reason.subject == "durability"
