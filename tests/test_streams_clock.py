"""Unit tests for repro.streams.clock and the process clocks of
repro.observability.clock."""

import time

import pytest

from repro.observability.clock import monotonic_time, perf_clock, wall_clock
from repro.streams.clock import SimulatedClock


class TestSimulatedClock:
    def test_starts_at_zero_by_default(self):
        assert SimulatedClock().now() == 0.0

    def test_starts_at_given_time(self):
        assert SimulatedClock(start=5.0).now() == 5.0

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            SimulatedClock(start=-1.0)

    def test_advance_moves_time_forward(self):
        clock = SimulatedClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now() == pytest.approx(2.0)

    def test_advance_rejects_negative_duration(self):
        clock = SimulatedClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_set_jumps_to_absolute_time(self):
        clock = SimulatedClock()
        clock.set(10.0)
        assert clock.now() == 10.0

    def test_set_rejects_going_backwards(self):
        clock = SimulatedClock(start=5.0)
        with pytest.raises(ValueError):
            clock.set(4.0)

    def test_sleep_advances_simulated_time(self):
        clock = SimulatedClock()
        clock.sleep(2.0)
        assert clock.now() == pytest.approx(2.0)

    def test_thirty_hz_frame_accumulation(self):
        clock = SimulatedClock()
        for _ in range(30):
            clock.advance(1.0 / 30.0)
        assert clock.now() == pytest.approx(1.0)

    def test_repr_contains_time(self):
        assert "1.50" in repr(SimulatedClock(start=1.5))

    def test_zero_sleep_leaves_the_time_alone(self):
        clock = SimulatedClock(start=3.0)
        clock.sleep(0.0)
        assert clock.now() == 3.0

    def test_negative_sleep_is_rejected(self):
        clock = SimulatedClock()
        with pytest.raises(ValueError):
            clock.sleep(-1.0)
        assert clock.now() == 0.0


class TestProcessClocks:
    def test_monotonic_time_never_goes_backwards(self):
        readings = [monotonic_time() for _ in range(1000)]
        assert readings == sorted(readings)

    def test_perf_clock_measures_a_sleep(self):
        before = perf_clock()
        time.sleep(0.01)
        assert perf_clock() - before >= 0.009

    def test_perf_clock_never_goes_backwards(self):
        readings = [perf_clock() for _ in range(1000)]
        assert readings == sorted(readings)

    def test_wall_clock_reads_seconds_since_the_epoch(self):
        assert abs(wall_clock() - time.time()) < 1.0
