"""Unit tests for repro.kinect.skeleton."""

import numpy as np
import pytest

from repro.kinect.skeleton import (
    JOINTS,
    TRACKED_AXES,
    Skeleton,
    all_joint_fields,
    joint_field,
    rest_pose,
)


class TestJointFields:
    def test_joint_field_concatenates_names(self):
        assert joint_field("rhand", "x") == "rhand_x"

    def test_unknown_joint_rejected(self):
        with pytest.raises(ValueError):
            joint_field("tail", "x")

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            joint_field("rhand", "w")

    def test_all_joint_fields_cover_every_joint_and_axis(self):
        fields = all_joint_fields()
        assert len(fields) == len(JOINTS) * len(TRACKED_AXES)
        assert "torso_z" in fields


class TestRestPose:
    def test_contains_every_joint(self):
        pose = rest_pose()
        assert set(pose) == set(JOINTS)

    def test_torso_is_origin(self):
        assert np.allclose(rest_pose()["torso"], [0, 0, 0])

    def test_scaling_is_linear(self):
        small = rest_pose(scale=0.5)
        full = rest_pose(scale=1.0)
        assert np.allclose(small["head"], full["head"] * 0.5)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            rest_pose(scale=0.0)

    def test_head_is_above_torso_and_feet_below(self):
        pose = rest_pose()
        assert pose["head"][1] > 0
        assert pose["lfoot"][1] < 0


class TestSkeleton:
    def test_measure_reports_all_fields(self):
        record = Skeleton().measure()
        assert set(record) == set(all_joint_fields())

    def test_torso_position_matches_placement(self):
        skeleton = Skeleton(position=(100.0, 50.0, 2000.0))
        record = skeleton.measure()
        assert record["torso_x"] == pytest.approx(100.0)
        assert record["torso_y"] == pytest.approx(50.0)
        assert record["torso_z"] == pytest.approx(2000.0)

    def test_move_to_shifts_all_joints(self):
        skeleton = Skeleton(position=(0.0, 0.0, 0.0))
        before = skeleton.measure()
        skeleton.move_to((500.0, 0.0, 2000.0))
        after = skeleton.measure()
        assert after["head_x"] - before["head_x"] == pytest.approx(500.0)
        assert after["head_z"] - before["head_z"] == pytest.approx(2000.0)

    def test_yaw_rotation_preserves_distances_from_torso(self):
        straight = Skeleton(yaw_deg=0.0)
        turned = Skeleton(yaw_deg=45.0)
        for skeleton in (straight, turned):
            skeleton.reset()
        d_straight = np.linalg.norm(
            straight.joint_positions()["rhand"] - straight.position
        )
        d_turned = np.linalg.norm(turned.joint_positions()["rhand"] - turned.position)
        assert d_straight == pytest.approx(d_turned)

    def test_yaw_rotation_does_not_change_height(self):
        skeleton = Skeleton(yaw_deg=90.0)
        record = skeleton.measure()
        assert record["head_y"] == pytest.approx(Skeleton().measure()["head_y"])

    def test_set_joint_offset_changes_measurement(self):
        skeleton = Skeleton(position=(0.0, 0.0, 0.0))
        skeleton.set_joint_offset("rhand", (100.0, 200.0, -300.0))
        record = skeleton.measure()
        assert record["rhand_x"] == pytest.approx(100.0)
        assert record["rhand_y"] == pytest.approx(200.0)
        assert record["rhand_z"] == pytest.approx(-300.0)

    def test_displace_joint_is_relative_to_rest(self):
        skeleton = Skeleton(position=(0.0, 0.0, 0.0))
        rest = skeleton.rest_offset("rhand")
        skeleton.displace_joint("rhand", (10.0, 0.0, 0.0))
        assert np.allclose(skeleton.joint_offset("rhand"), rest + [10.0, 0.0, 0.0])

    def test_unknown_joint_rejected(self):
        skeleton = Skeleton()
        with pytest.raises(ValueError):
            skeleton.set_joint_offset("tail", (0, 0, 0))
        with pytest.raises(ValueError):
            skeleton.displace_joint("tail", (0, 0, 0))

    def test_reset_restores_rest_pose(self):
        skeleton = Skeleton()
        skeleton.set_joint_offset("rhand", (999.0, 999.0, 999.0))
        skeleton.reset()
        assert np.allclose(skeleton.joint_offset("rhand"), skeleton.rest_offset("rhand"))

    def test_forearm_length_scales_with_body_size(self):
        small = Skeleton(scale=0.7).forearm_length()
        large = Skeleton(scale=1.4).forearm_length()
        assert large == pytest.approx(2.0 * small)

    def test_forearm_length_side_validation(self):
        with pytest.raises(ValueError):
            Skeleton().forearm_length(side="middle")

    def test_left_and_right_forearm_equal_in_rest_pose(self):
        skeleton = Skeleton()
        assert skeleton.forearm_length("left") == pytest.approx(
            skeleton.forearm_length("right")
        )

    def test_joint_fields_locate_every_joint_in_a_measurement(self):
        skeleton = Skeleton(position=(120.0, -40.0, 2100.0), yaw_deg=20.0)
        record = skeleton.measure()
        for joint, position in skeleton.joint_positions().items():
            located = [record[joint_field(joint, axis)] for axis in TRACKED_AXES]
            assert located == pytest.approx(list(position))

    def test_distance_between_two_joints_of_a_measurement(self):
        skeleton = Skeleton(position=(0.0, 0.0, 0.0))
        skeleton.set_joint_offset("lhand", (0.0, 0.0, 0.0))
        skeleton.set_joint_offset("rhand", (3.0, 4.0, 0.0))
        record = skeleton.measure()
        delta = [
            record[joint_field("rhand", axis)] - record[joint_field("lhand", axis)]
            for axis in TRACKED_AXES
        ]
        assert float(np.linalg.norm(delta)) == pytest.approx(5.0)
