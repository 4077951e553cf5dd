"""Unit tests for repro.kinect.simulator."""

import numpy as np
import pytest

from repro.kinect.noise import NoNoise
from repro.kinect.simulator import KINECT_FREQUENCY_HZ, KinectSimulator
from repro.kinect.trajectories import SwipeTrajectory, TwoHandSwipeTrajectory
from repro.kinect.users import user_by_name
from repro.streams import SimulatedClock, Stream


@pytest.fixture
def quiet_sim():
    return KinectSimulator(clock=SimulatedClock(), noise=NoNoise())


class TestFrameGeneration:
    def test_frame_rate_matches_kinect(self, quiet_sim):
        frames = quiet_sim.perform(SwipeTrajectory("right"))
        duration = frames[-1]["ts"] - frames[0]["ts"]
        expected = len(frames) / KINECT_FREQUENCY_HZ
        assert duration == pytest.approx(expected, rel=0.05)

    def test_timestamps_are_strictly_increasing(self, quiet_sim):
        frames = quiet_sim.perform(SwipeTrajectory("right"))
        timestamps = [frame["ts"] for frame in frames]
        assert all(b > a for a, b in zip(timestamps, timestamps[1:]))

    def test_frames_carry_player_and_all_joints(self, quiet_sim):
        frame = quiet_sim.measure_rest()
        assert frame["player"] == 1
        assert "rhand_x" in frame and "torso_z" in frame

    def test_hold_phases_add_frames(self, quiet_sim):
        plain = quiet_sim.perform(SwipeTrajectory("right"))
        held = quiet_sim.perform(SwipeTrajectory("right"), hold_start_s=0.5, hold_end_s=0.5)
        assert len(held) == len(plain) + 2 * round(0.5 * KINECT_FREQUENCY_HZ)

    def test_hold_start_keeps_hand_at_start_pose(self, quiet_sim):
        frames = quiet_sim.perform(SwipeTrajectory("right"), hold_start_s=0.4)
        hold_frames = frames[: int(0.4 * 30)]
        xs = [frame["rhand_x"] for frame in hold_frames]
        assert max(xs) - min(xs) < 1.0

    def test_swipe_moves_hand_by_extent_scaled_to_user(self, quiet_sim):
        frames = quiet_sim.perform(SwipeTrajectory("right", extent_mm=800.0))
        travelled = frames[-1]["rhand_x"] - frames[0]["rhand_x"]
        assert travelled == pytest.approx(800.0, rel=0.02)

    def test_child_performs_smaller_movement(self):
        child_sim = KinectSimulator(
            user=user_by_name("child"), clock=SimulatedClock(), noise=NoNoise()
        )
        frames = child_sim.perform(SwipeTrajectory("right", extent_mm=800.0))
        travelled = frames[-1]["rhand_x"] - frames[0]["rhand_x"]
        assert travelled == pytest.approx(800.0 * user_by_name("child").scale, rel=0.02)

    def test_forearm_length_stays_constant_during_gesture(self, quiet_sim):
        frames = quiet_sim.perform(SwipeTrajectory("right"))
        lengths = [
            np.linalg.norm(
                [
                    frame["rhand_x"] - frame["relbow_x"],
                    frame["rhand_y"] - frame["relbow_y"],
                    frame["rhand_z"] - frame["relbow_z"],
                ]
            )
            for frame in frames
        ]
        assert max(lengths) - min(lengths) < 1.0

    def test_two_hand_gesture_moves_both_hands(self, quiet_sim):
        frames = quiet_sim.perform(TwoHandSwipeTrajectory())
        assert frames[-1]["rhand_x"] > frames[0]["rhand_x"]
        assert frames[-1]["lhand_x"] < frames[0]["lhand_x"]

    def test_user_position_offsets_all_coordinates(self):
        simulator = KinectSimulator(
            clock=SimulatedClock(), noise=NoNoise(), position=(500.0, 0.0, 3000.0)
        )
        frame = simulator.measure_rest()
        assert frame["torso_x"] == pytest.approx(500.0)
        assert frame["torso_z"] == pytest.approx(3000.0)

    def test_performance_speed_changes_frame_count(self):
        slow_user = user_by_name("careful_adult")  # performance_speed > 1
        fast_user = user_by_name("hasty_adult")
        slow = KinectSimulator(user=slow_user, clock=SimulatedClock(), noise=NoNoise())
        fast = KinectSimulator(user=fast_user, clock=SimulatedClock(), noise=NoNoise())
        swipe = SwipeTrajectory("right")
        assert len(slow.perform(swipe)) > len(fast.perform(swipe))

    def test_idle_frames_stay_near_rest_pose(self, quiet_sim):
        frames = quiet_sim.idle_frames(1.0)
        assert len(frames) == 30
        xs = [frame["rhand_x"] for frame in frames]
        assert max(xs) - min(xs) < 1.0

    def test_idle_frames_emit_at_least_one_frame(self, quiet_sim):
        assert len(quiet_sim.idle_frames(0.0)) == 1

    def test_idle_frames_return_to_rest_after_a_gesture(self, quiet_sim):
        rest = quiet_sim.measure_rest()
        quiet_sim.perform(SwipeTrajectory("right"))
        idle = quiet_sim.idle_frames(0.1)
        assert idle[0]["rhand_x"] == pytest.approx(rest["rhand_x"])

    def test_consecutive_performances_continue_one_timeline(self, quiet_sim):
        swipe = SwipeTrajectory("right")
        first = quiet_sim.perform(swipe)
        idle = quiet_sim.idle_frames(0.5)
        second = quiet_sim.perform(swipe)
        stamps = [frame["ts"] for frame in first + idle + second]
        assert all(later > earlier for earlier, later in zip(stamps, stamps[1:]))
        assert quiet_sim.frames_emitted == len(stamps)
        assert second[0]["rhand_x"] == pytest.approx(first[0]["rhand_x"])

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ValueError):
            KinectSimulator(frequency_hz=0)


class TestVariationAndStreaming:
    def test_perform_variation_differs_between_repetitions(self):
        simulator = KinectSimulator(
            clock=SimulatedClock(), noise=NoNoise(), rng=np.random.default_rng(3)
        )
        swipe = SwipeTrajectory("right")
        first = simulator.perform_variation(swipe)
        second = simulator.perform_variation(swipe)
        assert first[-1]["rhand_x"] != pytest.approx(second[-1]["rhand_x"], abs=1e-6)

    def test_stream_to_pushes_every_frame(self, quiet_sim):
        stream = Stream("kinect")
        received = []
        stream.subscribe(received.append)
        count = quiet_sim.stream_to(stream, SwipeTrajectory("right"))
        assert count == len(received)

    def test_stream_session_inserts_pauses(self, quiet_sim):
        stream = Stream("kinect")
        received = []
        stream.subscribe(received.append)
        swipe = SwipeTrajectory("right")
        total = quiet_sim.stream_session(stream, [swipe, swipe], pause_s=1.0)
        assert total == len(received)
        assert total > 2 * len(quiet_sim.perform(swipe)) * 0.9

    def test_move_and_turn_user(self, quiet_sim):
        quiet_sim.move_user((100.0, 0.0, 2500.0))
        quiet_sim.turn_user(30.0)
        frame = quiet_sim.measure_rest()
        assert frame["torso_x"] == pytest.approx(100.0)
