"""Unit tests for repro.kinect.trajectories."""

import numpy as np
import pytest

from repro.kinect.trajectories import (
    CircleTrajectory,
    PushTrajectory,
    RaiseHandTrajectory,
    SwipeTrajectory,
    TwoHandSwipeTrajectory,
    WaveTrajectory,
    WaypointTrajectory,
    standard_gesture_catalog,
)


class TestWaypointTrajectory:
    def test_requires_waypoints(self):
        with pytest.raises(ValueError):
            WaypointTrajectory("x", 1.0, {})

    def test_requires_two_waypoints(self):
        with pytest.raises(ValueError):
            WaypointTrajectory("x", 1.0, {"rhand": [(0, 0, 0)]})

    def test_requires_consistent_counts(self):
        with pytest.raises(ValueError):
            WaypointTrajectory(
                "x", 1.0, {"rhand": [(0, 0, 0), (1, 1, 1)], "lhand": [(0, 0, 0)]}
            )

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            WaypointTrajectory("x", 0.0, {"rhand": [(0, 0, 0), (1, 1, 1)]})

    def test_endpoints_match_waypoints(self):
        trajectory = WaypointTrajectory(
            "x", 1.0, {"rhand": [(0, 0, 0), (100, 0, 0)]}, smooth=False
        )
        assert np.allclose(trajectory.start_positions()["rhand"], [0, 0, 0])
        assert np.allclose(trajectory.end_positions()["rhand"], [100, 0, 0])

    def test_linear_interpolation_at_midpoint(self):
        trajectory = WaypointTrajectory(
            "x", 1.0, {"rhand": [(0, 0, 0), (100, 0, 0)]}, smooth=False
        )
        assert trajectory.positions(0.5)["rhand"][0] == pytest.approx(50.0)

    def test_smoothing_preserves_endpoints(self):
        trajectory = WaypointTrajectory("x", 1.0, {"rhand": [(0, 0, 0), (100, 0, 0)]})
        assert trajectory.positions(0.0)["rhand"][0] == pytest.approx(0.0)
        assert trajectory.positions(1.0)["rhand"][0] == pytest.approx(100.0)

    def test_phase_is_clamped(self):
        trajectory = WaypointTrajectory("x", 1.0, {"rhand": [(0, 0, 0), (100, 0, 0)]})
        assert trajectory.positions(-1.0)["rhand"][0] == pytest.approx(0.0)
        assert trajectory.positions(2.0)["rhand"][0] == pytest.approx(100.0)

    def test_perturbed_keeps_structure_but_moves_waypoints(self):
        trajectory = WaypointTrajectory("x", 1.0, {"rhand": [(0, 0, 0), (100, 0, 0)]})
        varied = trajectory.perturbed(np.random.default_rng(0), sigma_mm=20.0)
        assert varied.joints == trajectory.joints
        assert not np.allclose(
            varied.positions(1.0)["rhand"], trajectory.positions(1.0)["rhand"]
        )

    def test_path_length_of_straight_segment(self):
        trajectory = WaypointTrajectory(
            "x", 1.0, {"rhand": [(0, 0, 0), (300, 0, 0)]}, smooth=False
        )
        assert trajectory.path_length("rhand") == pytest.approx(300.0, rel=0.01)

    def test_path_length_of_uninvolved_joint_is_zero(self):
        trajectory = WaypointTrajectory("x", 1.0, {"rhand": [(0, 0, 0), (300, 0, 0)]})
        assert trajectory.path_length("lhand") == 0.0


class TestSwipeTrajectory:
    def test_matches_paper_fig1_poses(self):
        swipe = SwipeTrajectory(direction="right")
        start = swipe.positions(0.0)["rhand"]
        end = swipe.positions(1.0)["rhand"]
        assert np.allclose(start, [0.0, 150.0, -120.0])
        assert np.allclose(end, [800.0, 150.0, -120.0])

    def test_middle_pose_bows_toward_camera(self):
        swipe = SwipeTrajectory(direction="right")
        middle = swipe.positions(0.5)["rhand"]
        assert middle[2] < -120.0

    def test_left_swipe_mirrors_x(self):
        left = SwipeTrajectory(direction="left", hand="lhand")
        assert left.positions(1.0)["lhand"][0] == pytest.approx(-800.0)

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            SwipeTrajectory(direction="up")

    def test_default_name_includes_direction(self):
        assert SwipeTrajectory(direction="left").name == "swipe_left"


class TestCircleTrajectory:
    def test_all_points_on_circle(self):
        circle = CircleTrajectory(radius_mm=400.0, center=(300.0, 200.0, -100.0))
        for phase in np.linspace(0, 1, 17):
            point = circle.positions(float(phase))["rhand"]
            radius = np.hypot(point[0] - 300.0, point[1] - 200.0)
            assert radius == pytest.approx(400.0, abs=1e-6)
            assert point[2] == pytest.approx(-100.0)

    def test_full_revolution_ends_where_it_started(self):
        circle = CircleTrajectory()
        assert np.allclose(circle.positions(0.0)["rhand"], circle.positions(1.0)["rhand"])

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            CircleTrajectory(radius_mm=0.0)

    def test_clockwise_flag_changes_direction(self):
        clockwise = CircleTrajectory(clockwise=True).positions(0.1)["rhand"]
        counter = CircleTrajectory(clockwise=False).positions(0.1)["rhand"]
        assert clockwise[0] != pytest.approx(counter[0])


class TestOtherTrajectories:
    def test_wave_oscillates_laterally(self):
        wave = WaveTrajectory(cycles=2, amplitude_mm=200.0)
        xs = [wave.positions(p)["rhand"][0] for p in np.linspace(0, 1, 60)]
        assert max(xs) - min(xs) == pytest.approx(400.0, rel=0.05)

    def test_wave_requires_cycles(self):
        with pytest.raises(ValueError):
            WaveTrajectory(cycles=0)

    def test_push_moves_along_depth_axis(self):
        push = PushTrajectory(reach_mm=400.0)
        start = push.positions(0.0)["rhand"]
        end = push.positions(1.0)["rhand"]
        assert end[2] - start[2] == pytest.approx(-400.0)
        assert end[0] == pytest.approx(start[0])

    def test_raise_hand_ends_above_head_height(self):
        raise_hand = RaiseHandTrajectory()
        assert raise_hand.positions(1.0)["rhand"][1] > 500.0

    def test_two_hand_swipe_moves_both_hands_apart(self):
        both = TwoHandSwipeTrajectory(extent_mm=500.0)
        end = both.positions(1.0)
        assert end["rhand"][0] > 500.0
        assert end["lhand"][0] < -500.0


class TestCatalog:
    def test_contains_paper_gestures(self):
        catalog = standard_gesture_catalog()
        assert "swipe_right" in catalog
        assert "circle" in catalog
        assert "wave" in catalog

    def test_names_match_keys(self):
        for name, trajectory in standard_gesture_catalog().items():
            assert trajectory.name == name

    def test_catalog_has_at_least_six_gestures(self):
        assert len(standard_gesture_catalog()) >= 6
