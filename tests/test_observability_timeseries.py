"""Ring-buffer time series and the background metrics sampler.

Deterministic unit coverage drives every windowed query with explicit
timestamps; the session-level tests check the sampler rides a real feed
without touching the data plane.
"""

from __future__ import annotations

import threading

import pytest

from repro.api.session import GestureSession, SessionConfig
from repro.observability.timeseries import (
    DEFAULT_CAPACITY,
    MetricsSampler,
    TimeSeries,
    flatten_registry,
)
from repro.runtime.metrics import MetricsRegistry

HIGH = 'SELECT "high" MATCHING kinect_t(rhand_y > 450);'


def make_frames(rounds=20):
    frames = []
    ts = 0.0
    for round_index in range(rounds):
        for player in (1, 2, 3):
            ts += 0.01
            value = 500.0 if (round_index + player) % 4 < 2 else 50.0
            frames.append({"ts": ts, "player": player, "rhand_y": value})
    return frames


class TestTimeSeries:
    def test_append_latest_len(self):
        series = TimeSeries("s")
        assert series.latest() is None and len(series) == 0
        series.append(1.0, timestamp=10.0)
        series.append(2.0, timestamp=11.0)
        assert series.latest() == 2.0
        assert len(series) == 2
        assert series.points() == [(10.0, 1.0), (11.0, 2.0)]

    def test_capacity_trims_oldest(self):
        series = TimeSeries("s", capacity=4)
        for step in range(10):
            series.append(float(step), timestamp=float(step))
        assert len(series) == 4
        assert series.points()[0] == (6.0, 6.0)

    def test_out_of_order_insert_keeps_sorted(self):
        series = TimeSeries("s")
        series.append(1.0, timestamp=10.0)
        series.append(3.0, timestamp=30.0)
        series.append(2.0, timestamp=20.0)
        assert [stamp for stamp, _ in series.points()] == [10.0, 20.0, 30.0]

    def test_window_restricts_points(self):
        series = TimeSeries("s")
        for step in range(10):
            series.append(float(step), timestamp=float(step))
        window = series.points(window_seconds=3.0, now=9.0)
        assert [stamp for stamp, _ in window] == [6.0, 7.0, 8.0, 9.0]

    def test_delta_and_rate_over_window(self):
        series = TimeSeries("c")
        for step in range(11):
            series.append(step * 10.0, timestamp=float(step))
        assert series.delta(5.0, now=10.0) == 50.0
        assert series.rate(5.0, now=10.0) == pytest.approx(10.0)

    def test_counter_reset_clamps_delta(self):
        series = TimeSeries("c")
        series.append(100.0, timestamp=0.0)
        series.append(7.0, timestamp=1.0)  # restarted shard: counter reset
        assert series.delta(10.0, now=1.0) == 7.0
        assert series.rate(10.0, now=1.0) == pytest.approx(7.0)

    def test_empty_window_queries_are_zero(self):
        series = TimeSeries("s")
        assert series.delta(5.0) == 0.0
        assert series.rate(5.0) == 0.0

    @pytest.mark.parametrize("kwargs", [{"capacity": 1}, {"capacity": 0}])
    def test_invalid_construction_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TimeSeries("s", **kwargs)


class TestFlattenRegistry:
    def test_covers_shards_durability_and_histograms(self):
        with GestureSession(SessionConfig()) as session:
            session.deploy(HIGH)
            session.feed(make_frames(), stream="kinect_t")
            reading = flatten_registry(session.metrics)
        assert reading["shard.tuples_processed"] > 0
        assert "durability.fsyncs" in reading
        assert reading["hist.batch_processing.count"] >= 1
        assert reading["hist.ingest_to_detection.p99_seconds"] >= 0.0
        assert all(isinstance(value, float) for value in reading.values())

    def test_percentiles_cover_one_tick_and_counts_stay_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("ingest_to_detection")
        previous = {}
        histogram.record(0.2)
        first = flatten_registry(registry, previous)
        assert first["hist.ingest_to_detection.p99_seconds"] == 0.2
        idle = flatten_registry(registry, previous)
        assert "hist.ingest_to_detection.p99_seconds" not in idle
        assert idle["hist.ingest_to_detection.count"] == 1.0
        histogram.record(0.001)
        later = flatten_registry(registry, previous)
        assert later["hist.ingest_to_detection.p99_seconds"] == 0.001
        assert later["hist.ingest_to_detection.max_seconds"] == 0.001
        assert later["hist.ingest_to_detection.count"] == 2.0
        assert later["hist.ingest_to_detection.sum_seconds"] == pytest.approx(0.201)


class TestMetricsSampler:
    def test_sample_once_records_each_source(self):
        sampler = MetricsSampler(interval_seconds=0.1)
        reading = {"a": 1.0}
        sampler.add_source("x.", lambda: reading)
        sampler.sample_once(now=1.0)
        reading["a"] = 3.0
        sampler.sample_once(now=2.0)
        series = sampler.get("x.a")
        assert series is not None
        assert series.points() == [(1.0, 1.0), (2.0, 3.0)]
        assert sampler.ticks == 2

    def test_raising_source_is_counted_and_skipped(self):
        sampler = MetricsSampler(interval_seconds=0.1)
        sampler.add_source("bad.", lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        sampler.add_source("good.", lambda: {"v": 2.0})
        sampler.sample_once(now=1.0)
        assert sampler.source_errors == 1
        assert sampler.get("good.v").latest() == 2.0

    def test_evaluator_runs_after_every_tick(self):
        seen = []

        class Recorder:
            def __init__(self, label):
                self.label = label

            def evaluate(self, sampler, now=None):
                seen.append((self.label, dict(sampler.reading), now))

        sampler = MetricsSampler(
            interval_seconds=0.1, evaluators=(Recorder("a"), Recorder("b"))
        )
        sampler.add_source("x.", lambda: {"v": 1.0})
        sampler.sample_once(now=5.0)
        assert seen == [("a", {"x.v": 1.0}, 5.0), ("b", {"x.v": 1.0}, 5.0)]

    def test_background_thread_is_named_and_stops(self):
        sampler = MetricsSampler(interval_seconds=0.02)
        sampler.add_source("", lambda: {"v": 1.0})
        sampler.start()
        try:
            assert sampler.running
            names = {thread.name for thread in threading.enumerate()}
            assert "repro-metrics-sampler" in names
        finally:
            sampler.stop()
        assert not sampler.running
        # stop() takes a final reading even if no interval elapsed.
        assert sampler.ticks >= 1

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            MetricsSampler(interval_seconds=0.0)

    def test_default_capacity_applied(self):
        sampler = MetricsSampler()
        assert sampler.series("v").capacity == DEFAULT_CAPACITY


class TestSessionIntegration:
    def test_session_sampler_polls_registry(self):
        config = SessionConfig(sample_interval_seconds=0.02)
        with GestureSession(config) as session:
            session.deploy(HIGH)
            session.feed(make_frames(rounds=40), stream="kinect_t")
            sampler = session.sampler
            assert sampler is not None and sampler.running
            sampler.sample_once()
            assert sampler.get("shard.tuples_processed").latest() > 0
        # close() stops the sampler but leaves its series readable.
        assert not sampler.running
        assert "shard.tuples_processed" in sampler.names()

    def test_no_control_plane_by_default(self):
        with GestureSession(SessionConfig()) as session:
            assert session.sampler is None
            assert session.watchdog is None
            assert session.slo_evaluator is None

    def test_control_plane_requires_telemetry(self):
        with pytest.raises(ValueError):
            SessionConfig(telemetry=False, sample_interval_seconds=0.5)
