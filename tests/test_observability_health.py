"""Health rules: stall, saturation and fsync detection without false
positives on idle (the ``ReplayController.pause()`` case in particular)
or on a healthy log that is not due an fsync.

The rules run when someone reads them, on the reader's clock: the unit
tests hand :class:`HealthWatchdog` scripted readings with ``now=...``;
the session tests call ``session.health(now=...)`` over live state.
"""

from __future__ import annotations

import json
import logging
import sys
import threading

import pytest

from repro.api.session import GestureSession, SessionConfig
from repro.observability.health import (
    FSYNC_STALL_SECONDS,
    SATURATION_AFTER_SECONDS,
    SATURATION_RATIO,
    STALL_AFTER_SECONDS,
    HealthReason,
    HealthReport,
    HealthWatchdog,
)
from repro.observability.clock import monotonic_time
from repro.persistence import FSYNC_OWED_AFTER, DurabilityConfig, EventLog

HIGH = 'SELECT "high" MATCHING kinect_t(rhand_y > 450);'

#: The rules' windows, as multiples of which the unit tests move the clock.
S, Q, F = STALL_AFTER_SECONDS, SATURATION_AFTER_SECONDS, FSYNC_STALL_SECONDS


def shard_row(
    shard_id=0, alive=True, backlog=0, processed=0, depth=None, capacity=None, failed=False
):
    row = {
        "shard_id": shard_id,
        "alive": alive,
        "failed": failed,
        "backlog": backlog,
        "tuples_processed": processed,
    }
    if depth is not None:
        row["queue_depth"] = depth
        row["queue_capacity"] = capacity
    return row


class Rig:
    """The health rules over a scripted reading the test mutates between
    reads: liveness ``rows`` and durability ``counters``."""

    def __init__(self, *rows, fsync_owed_after=None):
        self.rows = [dict(row) for row in rows]
        self.counters = {"entries_appended": 0.0, "fsyncs": 0.0}
        self.watchdog = HealthWatchdog(fsync_owed_after=fsync_owed_after)

    def at(self, now):
        reading = {"shards": [dict(row) for row in self.rows], "durability": dict(self.counters)}
        return self.watchdog.evaluate(reading, now=now)


def make_frames(count=60):
    return [
        {"ts": index * 0.01, "player": 1 + index % 3, "rhand_y": 500.0}
        for index in range(count)
    ]


class TestShardChecks:
    def test_progressing_shard_is_ok(self):
        rig = Rig(shard_row(backlog=5, processed=10))
        assert rig.at(0.0).ok
        rig.rows[0]["tuples_processed"] = 20
        for now in (1.0, 2.0, 3.0):
            rig.rows[0]["tuples_processed"] += 10
            assert rig.at(now * S).ok

    def test_stalled_shard_degrades_then_goes_unhealthy(self):
        rig = Rig(shard_row(shard_id=2, backlog=7, processed=10))
        assert rig.at(0.0).ok
        report = rig.at(1.5 * S)
        assert report.status == "degraded"
        (reason,) = report.reasons
        assert reason.code == "shard-stalled"
        assert reason.subject == "shard-2"
        assert "shard-2" in reason.detail
        assert reason.data["backlog"] == 7
        # 3x the stall window with still no progress: unhealthy.
        report = rig.at(3.5 * S)
        assert report.status == "unhealthy"

    def test_progress_resets_the_stall_clock(self):
        rig = Rig(shard_row(backlog=7, processed=10))
        rig.at(0.0)
        rig.rows[0]["tuples_processed"] = 11
        assert rig.at(1.5 * S).ok
        # Frozen again, but the mark was refreshed at 1.5 windows.
        assert rig.at(2.0 * S).ok
        assert rig.at(2.7 * S).status == "degraded"

    def test_idle_shard_never_stalls(self):
        # Backlog zero with a frozen processed counter is idle, not stuck —
        # exactly what a paused replay looks like.
        rig = Rig(shard_row(backlog=0, processed=1000))
        for now in (0.0, 5.0, 50.0, 500.0):
            assert rig.at(now * S).ok

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

    def test_failed_shard_is_unhealthy_at_once(self):
        # The runtime marked the shard failed (an unpicklable batch): its
        # worker is still alive and its backlog will never move, so the
        # stall rule would wait three windows for a verdict already known.
        rig = Rig(shard_row(shard_id=1, alive=True, failed=True, backlog=4))
        for now in (0.0, 1.0, 6.0, 16.0):
            report = rig.at(now)
            assert report.status == "unhealthy"
            (reason,) = report.reasons
            assert reason.code == "shard-failed"
            assert reason.subject == "shard-1"
            assert reason.data["backlog"] == 4

    def test_saturated_queue_degrades_after_sustained_window(self):
        rig = Rig(shard_row(backlog=90, processed=10, depth=95, capacity=100))
        rig.at(0.0)
        rig.rows[0]["tuples_processed"] = 50  # progressing, just full
        report = rig.at(1.5 * Q)
        codes = {reason.code for reason in report.reasons}
        assert "queue-saturated" in codes
        assert report.status == "degraded"
        # Queue drains: the saturation clock resets.
        rig.rows[0]["queue_depth"] = 10
        rig.rows[0]["tuples_processed"] = 90
        assert rig.at(2.0 * Q).ok
        rig.rows[0]["queue_depth"] = 95
        rig.rows[0]["tuples_processed"] = 130
        assert rig.at(2.5 * Q).ok  # newly saturated, not sustained

    def test_a_long_stall_is_timed_in_full(self):
        # Thirty-one reads, thirty seconds of stall: the progress mark is
        # the watchdog's only history, and it is never capped.
        rig = Rig(shard_row(backlog=7, processed=10))
        for now in range(31):
            report = rig.at(float(now))
        (reason,) = report.reasons
        assert reason.data["stuck_seconds"] == 30.0


class TestFsyncChecks:
    def test_appends_without_fsyncs_degrade(self):
        # fsync="always": one append past the last fsync is already owed.
        rig = Rig(fsync_owed_after=FSYNC_OWED_AFTER["always"])
        assert rig.at(0.0).ok
        rig.counters["entries_appended"] = 50  # appends flowing, fsync frozen
        assert rig.at(0.5 * F).ok  # owed from 0.5 windows, not yet overdue
        report = rig.at(2.0 * F)
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
            assert rig.at(now * F).ok

    def test_no_appends_is_idle_not_stalled(self):
        rig = Rig(fsync_owed_after=FSYNC_OWED_AFTER["always"])
        rig.counters.update(entries_appended=100, fsyncs=7)
        for now in (0.0, 5.0, 50.0):
            assert rig.at(now * F).ok

    def test_batch_policy_owes_only_after_a_full_batch(self):
        owed_after = FSYNC_OWED_AFTER["batch"]
        rig = Rig(fsync_owed_after=owed_after)
        for now in range(owed_after):  # one append a second, no fsync due
            rig.counters["entries_appended"] = float(now)
            assert rig.at(float(now)).ok
        rig.counters["entries_appended"] = float(owed_after)  # now one is due
        assert rig.at(100.0).ok
        assert rig.at(100.0 + 1.5 * F).status == "degraded"

    def test_rotate_policy_owes_nothing_the_counters_show(self):
        rig = Rig(fsync_owed_after=FSYNC_OWED_AFTER["rotate"])
        rig.at(0.0)
        rig.counters["entries_appended"] = 10_000
        for now in (1.0, 10.0, 100.0):
            assert rig.at(now * F).ok

    def test_a_reading_without_counters_leaves_the_rule_off(self):
        watchdog = HealthWatchdog(fsync_owed_after=FSYNC_OWED_AFTER["always"])
        for now in (0.0, 10.0 * F):
            assert watchdog.evaluate({}, now=now).ok


class TestRuleBoundaries:
    @pytest.mark.parametrize(
        "windows, status",
        [(0.99, "ok"), (1.0, "degraded"), (2.99, "degraded"), (3.0, "unhealthy")],
    )
    def test_stall_verdict_by_time_without_progress(self, windows, status):
        rig = Rig(shard_row(backlog=7, processed=10))
        assert rig.at(0.0).ok
        report = rig.at(windows * S)
        assert report.status == status
        assert [r.code for r in report.reasons] == ([] if status == "ok" else ["shard-stalled"])

    @pytest.mark.parametrize(
        "depth, windows, status",
        [
            (89, 2.0, "ok"),  # just below the ratio
            (90, 2.0, "degraded"),  # at the ratio
            (100, 2.0, "degraded"),  # full
            (95, 0.99, "ok"),  # saturated, not yet sustained
            (95, 1.0, "degraded"),  # sustained for exactly one window
        ],
    )
    def test_saturation_verdict_by_occupancy_and_time(self, depth, windows, status):
        assert SATURATION_RATIO == 0.9  # the depths above are out of 100
        rig = Rig(shard_row(backlog=0, processed=10, depth=depth, capacity=100))
        assert rig.at(0.0).ok
        report = rig.at(windows * Q)
        assert report.status == status
        assert [r.code for r in report.reasons] == ([] if status == "ok" else ["queue-saturated"])

    @pytest.mark.parametrize("capacity", [None, 0])
    def test_saturation_needs_a_queue_capacity(self, capacity):
        # A row without queue fields (or with capacity 0) leaves the rule off.
        row = shard_row(backlog=0, processed=10)
        if capacity is not None:
            row.update(queue_depth=50, queue_capacity=capacity)
        rig = Rig(row)
        for now in (0.0, 10.0 * Q):
            assert rig.at(now).ok

    @pytest.mark.parametrize("windows, status", [(0.99, "ok"), (1.0, "degraded")])
    def test_fsync_verdict_by_time_owed(self, windows, status):
        rig = Rig(fsync_owed_after=FSYNC_OWED_AFTER["always"])
        rig.at(0.0)
        rig.counters["entries_appended"] = 1
        assert rig.at(10.0).ok  # the debt falls due on this read
        assert rig.at(10.0 + windows * F).status == status

    def test_a_batch_one_short_of_full_is_never_owed(self):
        owed_after = FSYNC_OWED_AFTER["batch"]
        rig = Rig(fsync_owed_after=owed_after)
        rig.at(0.0)
        rig.counters["entries_appended"] = float(owed_after - 1)
        for now in (1.0, 10.0, 100.0):
            assert rig.at(now * F).ok


class TestPrecedence:
    def test_failed_outranks_dead(self):
        rig = Rig(shard_row(alive=False, failed=True, backlog=4))
        (reason,) = rig.at(0.0).reasons
        assert reason.code == "shard-failed"

    def test_a_failed_shard_without_backlog_is_still_unhealthy(self):
        rig = Rig(shard_row(failed=True, backlog=0))
        report = rig.at(0.0)
        assert report.status == "unhealthy"
        assert [r.code for r in report.reasons] == ["shard-failed"]

    def test_a_failed_shard_is_not_also_saturated(self):
        rig = Rig(shard_row(failed=True, backlog=100, processed=10, depth=100, capacity=100))
        for now in (0.0, 2.0 * Q, 4.0 * S):
            assert [r.code for r in rig.at(now).reasons] == ["shard-failed"]

    def test_a_dead_shard_is_not_also_stalled(self):
        rig = Rig(shard_row(alive=False, backlog=3, processed=10))
        for now in (0.0, 1.5 * S, 4.0 * S):
            assert [r.code for r in rig.at(now).reasons] == ["shard-dead"]


class TestRecovery:
    def test_a_stalled_shard_recovers_when_it_progresses(self):
        rig = Rig(shard_row(backlog=7, processed=10))
        rig.at(0.0)
        assert rig.at(3.5 * S).status == "unhealthy"
        rig.rows[0]["tuples_processed"] = 11
        assert rig.at(3.6 * S).ok
        assert rig.at(4.5 * S).ok  # the stall clock restarted at 3.6 windows

    def test_a_stalled_shard_recovers_when_its_backlog_clears(self):
        rig = Rig(shard_row(backlog=7, processed=10))
        rig.at(0.0)
        assert rig.at(1.5 * S).status == "degraded"
        rig.rows[0]["backlog"] = 0  # drained (or dropped) without counting progress
        assert rig.at(1.6 * S).ok
        rig.rows[0]["backlog"] = 7
        assert rig.at(2.5 * S).ok  # timed from 1.6 windows, not from 0

    def test_an_fsync_clears_the_debt_and_restarts_its_clock(self):
        rig = Rig(fsync_owed_after=FSYNC_OWED_AFTER["always"])
        rig.at(0.0)
        rig.counters["entries_appended"] = 5
        rig.at(1.0)
        assert rig.at(1.0 + 1.5 * F).status == "degraded"
        rig.counters["fsyncs"] = 1  # the disk came back
        assert rig.at(1.0 + 1.6 * F).ok
        rig.counters["entries_appended"] = 9  # owed again from the next read
        assert rig.at(1.0 + 1.7 * F).ok
        assert rig.at(1.0 + 2.5 * F).ok
        assert rig.at(1.0 + 2.7 * F).status == "degraded"

    def test_saturation_never_escalates_to_unhealthy(self):
        rig = Rig(shard_row(backlog=0, processed=10, depth=100, capacity=100))
        rig.at(0.0)
        for now in (2.0 * Q, 10.0 * Q, 100.0 * Q):
            report = rig.at(now)
            assert report.status == "degraded"
            (reason,) = report.reasons
            assert reason.data["saturated_seconds"] == now


class TestSubjects:
    def test_each_shard_keeps_its_own_progress_mark(self):
        rig = Rig(
            shard_row(shard_id=0, backlog=7, processed=10),
            shard_row(shard_id=1, backlog=7, processed=10),
        )
        rig.at(0.0)
        rig.rows[0]["tuples_processed"] = 20  # only shard 0 moves
        report = rig.at(1.5 * S)
        assert [(r.code, r.subject) for r in report.reasons] == [("shard-stalled", "shard-1")]

    def test_a_full_stalled_queue_reports_both_causes(self):
        rig = Rig(shard_row(shard_id=3, backlog=100, processed=10, depth=100, capacity=100))
        rig.at(0.0)
        report = rig.at(1.5 * max(S, Q))
        assert [(r.code, r.subject) for r in report.reasons] == [
            ("shard-stalled", "shard-3"),
            ("queue-saturated", "shard-3"),
        ]

    def test_reasons_follow_row_order_with_durability_last(self):
        rig = Rig(
            shard_row(shard_id=4, backlog=7, processed=10),
            shard_row(shard_id=2, alive=False, backlog=1),
            fsync_owed_after=FSYNC_OWED_AFTER["always"],
        )
        rig.at(0.0)
        rig.counters["entries_appended"] = 3
        rig.at(0.1)
        report = rig.at(0.1 + 1.5 * max(S, F))
        assert [r.subject for r in report.reasons] == ["shard-4", "shard-2", "durability"]
        assert report.status == "unhealthy"


class TestReport:
    def test_worst_severity_wins(self):
        rig = Rig(
            shard_row(shard_id=0, backlog=7, processed=10),
            shard_row(shard_id=1, alive=False, backlog=3),
        )
        rig.at(0.0)
        report = rig.at(1.5 * S)
        assert {reason.severity for reason in report.reasons} == {"degraded", "unhealthy"}
        assert report.status == "unhealthy"

    def test_report_to_dict_shape(self):
        body = Rig().at(0.0).to_dict()
        assert body["status"] == "ok"
        assert body["reasons"] == []
        assert body["checks"] == 1

    def test_readers_on_several_threads_each_run_one_whole_pass(self):
        # The event loop, /debug/vars off-loop and user code all read
        # health: every read is one pass under the lock, numbered once.
        rig = Rig(shard_row(backlog=7, processed=10))
        rig.at(0.0)
        reports = []

        def read():
            for _ in range(50):
                reports.append(rig.at(1.5 * S))

        readers = [threading.Thread(target=read, name=f"test-reader-{i}") for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert sorted(report.checks for report in reports) == list(range(2, 202))
        assert {report.status for report in reports} == {"degraded"}


    def test_every_read_is_numbered_and_stamped(self):
        rig = Rig()
        for index, now in enumerate((3.0, 7.5, 7.5, 100.0), start=1):
            report = rig.at(now)
            assert (report.checks, report.checked_at) == (index, now)

    def test_without_now_the_monotonic_clock_stamps_the_read(self):
        watchdog = HealthWatchdog()
        before = monotonic_time()
        report = watchdog.evaluate({"shards": [shard_row()]})
        assert before <= report.checked_at <= monotonic_time()

    def test_reason_to_dict_copies_its_data(self):
        reason = HealthReason("shard-dead", "unhealthy", "shard-0", "gone", {"backlog": 3.0})
        body = reason.to_dict()
        assert body == {
            "code": "shard-dead",
            "severity": "unhealthy",
            "subject": "shard-0",
            "detail": "gone",
            "data": {"backlog": 3.0},
        }
        body["data"]["backlog"] = 99.0
        assert reason.data == {"backlog": 3.0}

    def test_a_degraded_report_round_trips_through_json(self):
        rig = Rig(shard_row(shard_id=5, backlog=7, processed=10))
        rig.at(0.0)
        body = json.loads(json.dumps(rig.at(1.5 * S).to_dict()))
        assert body["status"] == "degraded"
        assert body["checked_at"] == 1.5 * S
        (reason,) = body["reasons"]
        assert reason["subject"] == "shard-5"
        assert reason["data"] == {"backlog": 7.0, "stuck_seconds": 1.5 * S}

    def test_repr_names_the_last_status_and_read_count(self):
        rig = Rig(shard_row(alive=False, backlog=1))
        assert repr(rig.watchdog) == "HealthWatchdog(status='ok', checks=0)"
        rig.at(0.0)
        assert repr(rig.watchdog) == "HealthWatchdog(status='unhealthy', checks=1)"

    def test_a_transition_is_logged_once(self, caplog):
        rig = Rig(shard_row(shard_id=6, backlog=7, processed=10))
        with caplog.at_level(logging.WARNING, logger="repro.observability.health"):
            for now in (0.0, 1.5 * S, 2.0 * S, 2.5 * S):
                rig.at(now)
        (record,) = caplog.records
        assert "ok -> degraded" in record.getMessage()
        assert "shard-stalled(shard-6)" in record.getMessage()
        assert record.data["status"] == "degraded"

    def test_a_recovery_is_logged_as_recovered(self, caplog):
        rig = Rig(shard_row(backlog=7, processed=10))
        rig.at(0.0)
        rig.at(1.5 * S)
        rig.rows[0]["tuples_processed"] = 11
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="repro.observability.health"):
            assert rig.at(1.6 * S).ok
        (record,) = caplog.records
        assert record.getMessage() == "health transition degraded -> ok: recovered"


class TestSessionIntegration:
    def test_every_session_answers_health_without_a_thread(self):
        with GestureSession(SessionConfig(shards=2)) as session:
            report = session.health()
            assert isinstance(report, HealthReport)
            assert report.ok and report.checks == 1
            names = {thread.name for thread in threading.enumerate()}
            assert {"repro-shard-0", "repro-shard-1"} <= names
            assert "repro-metrics-sampler" not in names
        assert session.health().ok  # still answered after close
        assert GestureSession(SessionConfig(telemetry=False)).health().ok  # never started

    @pytest.mark.parametrize(
        "knob, value",
        [("sample_interval_seconds", 1.0), ("slos", ()), ("watchdog", None)],
    )
    def test_the_control_plane_knobs_are_gone(self, knob, value):
        # Health needs no switch: every session answers it on read.
        with pytest.raises(TypeError, match=knob):
            SessionConfig(**{knob: value})

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_health_reads_every_shard_of_either_executor(self, executor):
        config = SessionConfig(shards=2, shard_executor=executor)
        with GestureSession(config) as session:
            session.deploy(HIGH)
            session.feed(make_frames(), stream="kinect_t")
            session.drain()
            rows = session.runtime.shard_liveness()
            assert [row["shard_id"] for row in rows] == [0, 1]
            assert sum(row["tuples_processed"] for row in rows) == 60
            for now in (0.0, 4.0 * S):
                report = session.health(now=now)
                assert report.ok, report.to_dict()

    @pytest.mark.parametrize(
        "fsync, status", [("always", "degraded"), ("batch", "degraded"), ("rotate", "ok")]
    )
    def test_the_log_policy_arms_the_fsync_rule(self, tmp_path, monkeypatch, fsync, status):
        # Enough appends with frozen fsyncs to owe one under "batch" too;
        # "rotate" owes none the counters can show.
        durability = DurabilityConfig(tmp_path / "log", fsync=fsync)
        with GestureSession(durability=durability) as session:
            session.deploy(HIGH)
            session.health(now=0.0)
            fsyncs = session.metrics.durability.snapshot()["fsyncs"]
            monkeypatch.setattr(EventLog, "_fsync", lambda self: None)
            for frame in make_frames(FSYNC_OWED_AFTER["batch"]):
                session.feed([frame], stream="kinect_t")
            assert session.health(now=1.0).ok
            report = session.health(now=1.0 + 1.5 * F)
            assert report.status == status, report.to_dict()
            assert session.metrics.durability.snapshot()["fsyncs"] == fsyncs

    def test_forced_stall_degrades_naming_the_shard(self, monkeypatch):
        with GestureSession(SessionConfig(shards=2)) as session:
            session.deploy(HIGH)
            # Forced stall: one more liveness row reports shard 9 (a
            # subject the real rows never refresh) with backlog and a
            # frozen processed counter.
            runtime = session.runtime
            rows = runtime.shard_liveness
            stalled = shard_row(shard_id=9, backlog=9, processed=42)
            monkeypatch.setattr(runtime, "shard_liveness", lambda: rows() + [stalled])
            assert session.health(now=0.0).ok
            report = session.health(now=6.0)
            assert report.status == "degraded"
            assert {reason.subject for reason in report.reasons} == {"shard-9"}
            assert session.health(now=16.0).status == "unhealthy"

    def test_live_session_reports_ok(self):
        with GestureSession(SessionConfig(shards=2)) as session:
            session.deploy(HIGH)
            session.feed(make_frames(), stream="kinect_t")
            session.drain()
            for now in (0.0, 6.0, 20.0):  # reads over the idle pipeline
                report = session.health(now=now)
                assert report.ok, report.to_dict()
            assert session.runtime.shard_liveness()[1]["tuples_processed"] > 0

    def test_paused_replay_is_not_a_stall(self, tmp_path):
        # A durable session records a feed, then replays its own log with
        # the controller paused mid-stream: the pipeline idles and must
        # stay ok well beyond the stall window (the
        # ReplayController.pause() case).
        durability = DurabilityConfig(tmp_path / "log")
        with GestureSession(SessionConfig(shards=2), durability=durability) as session:
            session.deploy(HIGH)
            frames = make_frames()
            # Feed in chunks: each chunk is one log entry, so the replay
            # below can pause with entries still pending.
            for second, start in enumerate(range(0, len(frames), 6)):
                session.feed(frames[start : start + 6], stream="kinect_t")
                session.drain()
                session.health(now=float(second))
            controller = session.replay(config=SessionConfig())
            applied = controller.step(3)
            assert applied > 0
            controller.pause()
            assert not controller.finished
            for now in (10.0, 20.0, 30.0):  # 4x the stall window while paused
                report = session.health(now=now)
                assert report.ok, report.to_dict()
            controller.target.close()

    @pytest.mark.parametrize("fsync", ["rotate", "batch"])
    def test_healthy_log_fed_once_a_second_stays_ok(self, tmp_path, fsync):
        durability = DurabilityConfig(tmp_path / "log", fsync=fsync)
        frames = make_frames()
        with GestureSession(durability=durability) as session:
            session.deploy(HIGH)
            for second in range(11):
                session.feed(frames[second * 5 : second * 5 + 5], stream="kinect_t")
                report = session.health(now=float(second))
                assert report.ok, report.to_dict()
            # Appends ran ahead of fsyncs all along, as both policies allow.
            counters = session.metrics.durability.snapshot()
            assert counters["entries_appended"] >= 11
            assert counters["fsyncs"] == 0

    def test_always_log_whose_fsyncs_freeze_degrades(self, tmp_path, monkeypatch):
        durability = DurabilityConfig(tmp_path / "log", fsync="always")
        with GestureSession(durability=durability) as session:
            session.deploy(HIGH)
            session.health(now=0.0)
            monkeypatch.setattr(EventLog, "_fsync", lambda self: None)
            session.feed(make_frames(6), stream="kinect_t")  # owes an fsync it never issues
            assert session.health(now=1.0).ok  # owed, not yet overdue
            report = session.health(now=7.0)
            assert report.status == "degraded"
            (reason,) = report.reasons
            assert reason.code == "fsync-stalled"
            assert reason.subject == "durability"
