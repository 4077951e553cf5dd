"""Unit tests for repro.kinect.recordings."""

import pytest

from repro.kinect.recordings import Recording, generate_multiuser_recording
from repro.kinect.simulator import KinectSimulator
from repro.kinect.trajectories import CircleTrajectory, SwipeTrajectory
from repro.kinect.users import STANDARD_USERS
from repro.streams import SimulatedClock


@pytest.fixture
def swipe_recording():
    simulator = KinectSimulator(clock=SimulatedClock())
    frames = simulator.perform(SwipeTrajectory("right"))
    return Recording(gesture="swipe_right", user="adult", frames=frames)


class TestRecording:
    def test_len_and_duration(self, swipe_recording):
        assert len(swipe_recording) == len(swipe_recording.frames)
        assert swipe_recording.duration_s > 1.0

    def test_duration_of_short_recording_is_zero(self):
        assert Recording("x", "adult", frames=[{"ts": 1.0}]).duration_s == 0.0


class TestMultiUserRecording:
    CATALOG = {"swipe_right": SwipeTrajectory("right"), "circle": CircleTrajectory()}

    def test_merged_stream_is_ordered_by_timestamp(self):
        recording = generate_multiuser_recording(self.CATALOG, user_count=3, seed=2)
        stamps = [frame["ts"] for frame in recording.frames]
        assert stamps == sorted(stamps)
        assert len(recording) == sum(len(r) for r in recording.players.values())

    def test_each_player_stream_is_its_ground_truth(self):
        recording = generate_multiuser_recording(self.CATALOG, user_count=2, seed=3)
        assert recording.player_ids == [1, 2]
        for player_id in recording.player_ids:
            assert recording.frames_for(player_id) == recording.players[player_id].frames

    def test_users_perform_rotated_scripts(self):
        recording = generate_multiuser_recording(
            self.CATALOG, user_count=2, gestures_per_user=1, seed=4
        )
        assert [recording.players[p].gesture for p in (1, 2)] == ["swipe_right", "circle"]

    def test_user_count_cycles_the_standard_profiles(self):
        count = len(STANDARD_USERS) + 1
        recording = generate_multiuser_recording(
            self.CATALOG, user_count=count, gestures_per_user=1, seed=5
        )
        assert recording.player_ids == list(range(1, count + 1))
        assert recording.players[count].user == STANDARD_USERS[0].name

    def test_same_seed_same_stream(self):
        first = generate_multiuser_recording(self.CATALOG, user_count=2, seed=6)
        second = generate_multiuser_recording(self.CATALOG, user_count=2, seed=6)
        assert first.frames == second.frames

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gestures": {}},
            {"gestures_per_user": 0},
            {"users": []},
        ],
        ids=["empty-catalog", "no-gestures-per-user", "no-users"],
    )
    def test_invalid_arguments_are_rejected(self, kwargs):
        arguments = {"gestures": self.CATALOG, **kwargs}
        with pytest.raises(ValueError):
            generate_multiuser_recording(**arguments)
