"""Unit tests for repro.transform (coordinate, rotation, pipeline)."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kinect import KinectSimulator, NoNoise, SwipeTrajectory, user_by_name
from repro.kinect.skeleton import JOINTS, TRACKED_AXES, all_joint_fields, joint_field
from repro.streams import SimulatedClock
from repro.transform import pipeline
from repro.transform.coordinate import (
    REFERENCE_FOREARM_MM,
    forearm_scale,
    scale_coordinates,
    shift_to_torso,
)
from repro.transform.pipeline import KinectTransformer, TransformConfig
from repro.transform.rotation import (
    estimate_yaw_deg,
    joint_roll_pitch_yaw,
    roll_pitch_yaw,
    rotate_about_y,
)


def _rest_frame(user="adult", position=(0.0, 0.0, 2200.0), yaw=0.0):
    simulator = KinectSimulator(
        user=user_by_name(user),
        clock=SimulatedClock(),
        noise=NoNoise(),
        position=position,
        yaw_deg=yaw,
    )
    return simulator.measure_rest()


class TestShiftToTorso:
    def test_torso_becomes_origin(self):
        shifted = shift_to_torso(_rest_frame(position=(300.0, 100.0, 2500.0)))
        assert shifted["torso_x"] == pytest.approx(0.0)
        assert shifted["torso_y"] == pytest.approx(0.0)
        assert shifted["torso_z"] == pytest.approx(0.0)

    def test_relative_geometry_is_preserved(self):
        frame = _rest_frame(position=(300.0, 100.0, 2500.0))
        shifted = shift_to_torso(frame)
        assert shifted["head_y"] == pytest.approx(frame["head_y"] - frame["torso_y"])

    def test_position_invariance(self):
        near = shift_to_torso(_rest_frame(position=(0.0, 0.0, 1800.0)))
        far = shift_to_torso(_rest_frame(position=(700.0, 0.0, 3500.0)))
        assert near["rhand_x"] == pytest.approx(far["rhand_x"], abs=1e-6)
        assert near["rhand_z"] == pytest.approx(far["rhand_z"], abs=1e-6)

    def test_non_joint_fields_pass_through(self):
        frame = dict(_rest_frame(), ts=1.25, player=2)
        shifted = shift_to_torso(frame)
        assert shifted["ts"] == 1.25
        assert shifted["player"] == 2

    def test_missing_torso_raises(self):
        with pytest.raises(KeyError):
            shift_to_torso({"rhand_x": 0.0, "rhand_y": 0.0, "rhand_z": 0.0})


class TestForearmScale:
    def test_reference_user_measures_reference_forearm(self):
        scale = forearm_scale(_rest_frame())
        assert scale == pytest.approx(REFERENCE_FOREARM_MM, rel=0.02)

    def test_child_measures_proportionally_smaller(self):
        scale = forearm_scale(_rest_frame(user="child"))
        expected = REFERENCE_FOREARM_MM * user_by_name("child").scale
        assert scale == pytest.approx(expected, rel=0.02)

    def test_missing_joints_fall_back(self):
        assert forearm_scale({}) == REFERENCE_FOREARM_MM

    def test_degenerate_measurement_falls_back(self):
        frame = {f"rhand_{a}": 0.0 for a in "xyz"}
        frame.update({f"relbow_{a}": 0.0 for a in "xyz"})
        assert forearm_scale(frame) == REFERENCE_FOREARM_MM

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_measurement_falls_back(self, bad):
        # ``nan < minimum`` is false, so a plain lower-bound test lets a
        # NaN length through as the player's scale.
        for field in ("rhand_x", "relbow_z"):
            frame = _rest_frame()
            frame[field] = bad
            assert forearm_scale(frame) == REFERENCE_FOREARM_MM
            assert forearm_scale(frame, fallback=100.0) == 100.0

    def test_left_side_option(self):
        assert forearm_scale(_rest_frame(), side="left") == pytest.approx(
            REFERENCE_FOREARM_MM, rel=0.02
        )


class TestScaleCoordinates:
    def test_scaling_maps_child_onto_reference_proportions(self):
        child_frame = shift_to_torso(_rest_frame(user="child"))
        adult_frame = shift_to_torso(_rest_frame(user="adult"))
        child_scaled = scale_coordinates(child_frame, forearm_scale(_rest_frame(user="child")))
        adult_scaled = scale_coordinates(adult_frame, forearm_scale(_rest_frame(user="adult")))
        assert child_scaled["rhand_x"] == pytest.approx(adult_scaled["rhand_x"], rel=0.03)
        assert child_scaled["head_y"] == pytest.approx(adult_scaled["head_y"], rel=0.03)

    def test_reference_one_yields_forearm_units(self):
        frame = shift_to_torso(_rest_frame())
        scaled = scale_coordinates(frame, forearm_scale(_rest_frame()), reference=1.0)
        assert abs(scaled["rhand_x"]) < 3.0  # roughly one forearm away laterally

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            scale_coordinates({"rhand_x": 1.0}, 0.0)

    def test_non_joint_fields_untouched(self):
        scaled = scale_coordinates({"ts": 2.0, "rhand_x": 100.0}, 200.0)
        assert scaled["ts"] == 2.0


class TestRotation:
    def test_yaw_zero_when_facing_camera(self):
        assert estimate_yaw_deg(shift_to_torso(_rest_frame())) == pytest.approx(0.0, abs=2.0)

    def test_yaw_estimate_matches_simulated_turn(self):
        for angle in (20.0, -35.0, 60.0):
            frame = shift_to_torso(_rest_frame(yaw=angle))
            assert estimate_yaw_deg(frame) == pytest.approx(angle, abs=2.0)

    def test_yaw_missing_shoulders_defaults_to_zero(self):
        assert estimate_yaw_deg({}) == 0.0

    def test_rotation_cancels_user_heading(self):
        straight = shift_to_torso(_rest_frame(yaw=0.0))
        turned = shift_to_torso(_rest_frame(yaw=40.0))
        aligned = rotate_about_y(turned, -estimate_yaw_deg(turned))
        assert aligned["rhand_x"] == pytest.approx(straight["rhand_x"], abs=2.0)
        assert aligned["rhand_z"] == pytest.approx(straight["rhand_z"], abs=2.0)

    def test_rotation_preserves_height(self):
        frame = shift_to_torso(_rest_frame(yaw=30.0))
        rotated = rotate_about_y(frame, -30.0)
        assert rotated["head_y"] == pytest.approx(frame["head_y"])

    def test_roll_pitch_yaw_of_axis_aligned_vectors(self):
        roll, pitch, yaw = roll_pitch_yaw((0, 0, 0), (1, 0, 0))
        assert (roll, pitch, yaw) == (0.0, 0.0, 0.0)
        _, pitch_up, _ = roll_pitch_yaw((0, 0, 0), (0, 1, 0))
        assert pitch_up == pytest.approx(90.0)
        _, _, yaw_left = roll_pitch_yaw((0, 0, 0), (0, 0, -1))
        assert yaw_left == pytest.approx(90.0)

    def test_joint_roll_pitch_yaw_uses_frame_fields(self):
        frame = {
            "relbow_x": 0.0, "relbow_y": 0.0, "relbow_z": 0.0,
            "rhand_x": 100.0, "rhand_y": 100.0, "rhand_z": 0.0,
        }
        _, pitch, yaw = joint_roll_pitch_yaw(frame, "relbow", "rhand")
        assert pitch == pytest.approx(45.0)
        assert yaw == pytest.approx(0.0)


class TestPipeline:
    def test_transform_produces_user_independent_swipe(self):
        paths = {}
        for user in ("child", "tall_adult"):
            simulator = KinectSimulator(
                user=user_by_name(user),
                clock=SimulatedClock(),
                noise=NoNoise(),
                position=(400.0 if user == "child" else -300.0, 0.0, 2600.0),
            )
            transformer = KinectTransformer()
            frames = simulator.perform(SwipeTrajectory("right"))
            transformed = [transformer.transform(frame) for frame in frames]
            paths[user] = transformed
        child_end = paths["child"][-1]
        tall_end = paths["tall_adult"][-1]
        assert child_end["rhand_x"] == pytest.approx(tall_end["rhand_x"], rel=0.05)
        assert child_end["rhand_y"] == pytest.approx(tall_end["rhand_y"], abs=30.0)

    def test_transform_adds_scale_field(self):
        transformed = KinectTransformer().transform(_rest_frame())
        assert transformed["scale"] == pytest.approx(REFERENCE_FOREARM_MM, rel=0.05)

    def test_scale_smoothing_converges(self):
        transformer = KinectTransformer(TransformConfig(smooth_scale=0.9))
        frame = _rest_frame(user="child")
        for _ in range(100):
            result = transformer.transform(frame)
        expected = REFERENCE_FOREARM_MM * user_by_name("child").scale
        assert result["scale"] == pytest.approx(expected, rel=0.03)

    def test_reset_clears_smoothing_state(self):
        transformer = KinectTransformer()
        transformer.transform(_rest_frame(user="child"))
        transformer.reset()
        assert transformer.frames_transformed == 0
        assert transformer.active_partitions == 0

    def test_concurrent_players_do_not_blend_scale_factors(self):
        # A child and a tall adult sharing the stream: each player's frames
        # must smooth against their own history only, so the interleaved
        # stream yields the same scales as two isolated transformers.
        child = [_rest_frame(user="child") for _ in range(40)]
        adult = [_rest_frame(user="tall_adult") for _ in range(40)]
        for i, frame in enumerate(child):
            frame.update(player=1, ts=i / 30.0)
        for i, frame in enumerate(adult):
            frame.update(player=2, ts=i / 30.0)

        shared = KinectTransformer(TransformConfig(smooth_scale=0.9))
        interleaved = [
            shared.transform(frame)
            for pair in zip(child, adult)
            for frame in pair
        ]
        isolated_child = KinectTransformer(TransformConfig(smooth_scale=0.9))
        expected_child = [isolated_child.transform(frame) for frame in child]
        isolated_adult = KinectTransformer(TransformConfig(smooth_scale=0.9))
        expected_adult = [isolated_adult.transform(frame) for frame in adult]

        assert [t["scale"] for t in interleaved[0::2]] == [
            t["scale"] for t in expected_child
        ]
        assert [t["scale"] for t in interleaved[1::2]] == [
            t["scale"] for t in expected_adult
        ]
        assert shared.active_partitions == 2
        # Sanity: the two bodies converge to genuinely different scales.
        assert interleaved[-2]["scale"] != pytest.approx(
            interleaved[-1]["scale"], rel=0.2
        )

    def test_unpartitioned_transformer_blends_players(self):
        # partition_field=None restores the single shared smoothing slot.
        config = TransformConfig(smooth_scale=0.9, partition_field=None)
        shared = KinectTransformer(config)
        child = _rest_frame(user="child")
        child.update(player=1, ts=0.0)
        adult = _rest_frame(user="tall_adult")
        adult.update(player=2, ts=1 / 30.0)
        first = shared.transform(child)["scale"]
        second = shared.transform(adult)["scale"]
        # The adult's scale is dragged toward the child's history.
        alone = KinectTransformer(config).transform(dict(adult))["scale"]
        assert second != pytest.approx(alone, rel=0.01)
        assert abs(second - first) < abs(alone - first)

    def test_idle_partition_state_is_evicted(self):
        config = TransformConfig(smooth_scale=0.9, partition_idle_seconds=5.0)
        transformer = KinectTransformer(config)
        child = _rest_frame(user="child")
        child.update(player=1, ts=0.0)
        transformer.transform(child)
        smoothed = transformer.smoothed_scale(1)
        assert smoothed is not None
        # The same player id returns after the idle TTL — possibly a
        # different person — and must start from a fresh measurement.
        adult = _rest_frame(user="tall_adult")
        adult.update(player=1, ts=10.0)
        returned = transformer.transform(adult)["scale"]
        fresh = KinectTransformer(config).transform(dict(adult))["scale"]
        assert returned == pytest.approx(fresh)

    def test_reset_partition_forgets_single_player(self):
        transformer = KinectTransformer()
        child = _rest_frame(user="child")
        child.update(player=1, ts=0.0)
        adult = _rest_frame(user="tall_adult")
        adult.update(player=2, ts=0.0)
        transformer.transform(child)
        transformer.transform(adult)
        transformer.reset_partition(1)
        assert transformer.smoothed_scale(1) is None
        assert transformer.smoothed_scale(2) is not None

    def test_orientation_alignment_can_be_disabled(self):
        turned = _rest_frame(yaw=45.0)
        aligned = KinectTransformer(
            TransformConfig(align_orientation=True, smooth_scale=0.0)
        ).transform(turned)
        unaligned = KinectTransformer(
            TransformConfig(align_orientation=False, smooth_scale=0.0)
        ).transform(turned)
        assert aligned["rhand_x"] != pytest.approx(unaligned["rhand_x"], abs=5.0)

    def test_non_smoothing_config_fields_take_effect(self):
        config = TransformConfig(
            align_orientation=False,
            scale_side="left",
            scale_reference_mm=100.0,
            smooth_scale=0.0,
        )
        frame = _rest_frame(yaw=45.0)
        result = KinectTransformer(config).transform(frame)
        default = KinectTransformer(TransformConfig(smooth_scale=0.0)).transform(frame)
        assert result["rhand_x"] != pytest.approx(default["rhand_x"], abs=1.0)

    def test_unsmoothed_transformer_is_stateless(self):
        adult, child = _rest_frame(user="adult"), _rest_frame(user="child")
        config = TransformConfig(smooth_scale=0.0)
        warmed = KinectTransformer(config)
        for _ in range(5):
            warmed.transform(adult)
        assert warmed.transform(child) == KinectTransformer(config).transform(child)

    def test_unsmoothed_scale_is_each_frames_own_forearm(self):
        transformer = KinectTransformer(TransformConfig(smooth_scale=0.0))
        for user in ("adult", "child", "tall_adult"):
            frame = _rest_frame(user=user)
            assert transformer.transform(frame)["scale"] == pytest.approx(forearm_scale(frame))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TransformConfig(scale_side="middle")
        with pytest.raises(ValueError):
            TransformConfig(partition_idle_seconds=0.0)
        with pytest.raises(ValueError):
            TransformConfig(smooth_scale=1.5)
        with pytest.raises(ValueError):
            TransformConfig(scale_reference_mm=0.0)

    def test_nan_coordinate_does_not_poison_the_players_scale(self):
        # The gateway's JSON decoder accepts NaN.  One such frame must cost
        # that frame only: smoothed into the scale, a NaN would stay there
        # for as long as the player keeps streaming (idle eviction never
        # reaches an active player).
        def stream(user, player):
            frames = [_rest_frame(user=user) for _ in range(24)]
            for i, frame in enumerate(frames):
                frame.update(player=player, ts=i / 30.0)
            return frames

        child, adult = stream("child", 1), stream("tall_adult", 2)
        child[5]["rhand_x"] = math.nan
        shared = KinectTransformer()
        interleaved = [shared.transform(f) for pair in zip(child, adult) for f in pair]
        child_out, adult_out = interleaved[0::2], interleaved[1::2]

        assert math.isnan(child_out[5]["rhand_x"])  # the bad frame itself
        expected_scale = REFERENCE_FOREARM_MM * user_by_name("child").scale
        # The bad frame measures as a tracking glitch does (the reference
        # forearm), which the smoothing then forgets at its usual rate.
        for transformed in child_out[6:]:
            assert all(math.isfinite(value) for value in transformed.values())
            assert transformed["scale"] == pytest.approx(expected_scale, rel=0.1)
        assert child_out[6]["lhand_y"] == pytest.approx(child_out[4]["lhand_y"], rel=0.1)
        assert child_out[-1]["scale"] == pytest.approx(expected_scale, rel=0.01)

        alone = KinectTransformer()
        assert _bits_of(adult_out) == _bits_of([alone.transform(f) for f in adult])


# -- the fused kernel against its step-by-step reference -------------------------------


class ReferenceTransformer(KinectTransformer):
    """The step-by-step formulation the fused kernel must reproduce bit for bit."""

    def transform(self, frame):
        scale = self._current_scale(frame)
        shifted = shift_to_torso(frame)
        if self.config.align_orientation:
            shifted = rotate_about_y(shifted, -estimate_yaw_deg(shifted))
        transformed = scale_coordinates(
            shifted, scale=scale, reference=self.config.scale_reference_mm
        )
        transformed["scale"] = scale
        self.frames_transformed += 1
        return transformed


def _bits(transformed):
    """Keys, key order and float bit patterns (``==`` equates 0.0 and -0.0)."""
    return [
        (key, value.hex() if isinstance(value, float) else value)
        for key, value in transformed.items()
    ]


def _bits_of(frames):
    return [_bits(frame) for frame in frames]


_JOINT_FIELDS = all_joint_fields()
_REMOVABLE_FIELDS = [key for key in _JOINT_FIELDS if not key.startswith("torso_")]
#: Names that look like joint fields but are not, and one the kernel writes.
_EXTRA_FIELDS = ["ts", "confidence", "scale", "rhand", "rhand_w", "tail_x", "_x", "torso"]


@st.composite
def _frames(draw):
    coordinate = st.floats(-5000.0, 5000.0) | st.sampled_from([0.0, -0.0, 1e-12])
    frame = {key: draw(coordinate) for key in _JOINT_FIELDS}
    if draw(st.booleans()):  # coincident shoulders: the yaw guard's branch
        for axis in TRACKED_AXES:
            frame[joint_field("rshoulder", axis)] = frame[joint_field("lshoulder", axis)]
    for key in draw(st.sets(st.sampled_from(_REMOVABLE_FIELDS), max_size=8)):
        del frame[key]
    for key in draw(st.sets(st.sampled_from(_EXTRA_FIELDS), max_size=4)):
        frame[key] = draw(st.floats(0.0, 100.0))
    player = draw(st.sampled_from(["absent", None, 1, 2]))
    if player != "absent":
        frame["player"] = player
    return {key: frame[key] for key in draw(st.permutations(list(frame)))}


_configs = st.builds(
    TransformConfig,
    align_orientation=st.booleans(),
    scale_reference_mm=st.sampled_from([REFERENCE_FOREARM_MM, 1.0]),
    scale_side=st.sampled_from(["right", "left"]),
    smooth_scale=st.sampled_from([0.0, 0.8]),
)


class TestFusedKernel:
    @settings(max_examples=300, deadline=None)
    @given(config=_configs, frames=st.lists(_frames(), min_size=1, max_size=4))
    def test_output_is_bit_identical_to_the_reference(self, config, frames):
        fused, reference = KinectTransformer(config), ReferenceTransformer(config)
        for frame in frames:
            assert _bits(fused.transform(frame)) == _bits(reference.transform(frame))
        assert fused.capture_state() == reference.capture_state()

    def test_simulated_stream_is_bit_identical_to_the_reference(self, simulator, swipe):
        frames = simulator.perform(swipe)
        fused, reference = KinectTransformer(), ReferenceTransformer()
        assert _bits_of(map(fused.transform, frames)) == _bits_of(
            map(reference.transform, frames)
        )

    def test_errors_match_the_reference(self):
        torsoless = _rest_frame()
        del torsoless["torso_y"]
        for transformer in (KinectTransformer(), ReferenceTransformer()):
            with pytest.raises(KeyError, match="torso_y"):
                transformer.transform(torsoless)
            assert transformer.frames_transformed == 0
            # A restored snapshot is the one way a non-positive scale gets in.
            state = transformer.capture_state()
            state["scales"] = [[1, -1e6]]
            transformer.restore_state(state)
            with pytest.raises(ValueError, match="scale factor must be positive"):
                transformer.transform(_rest_frame())

    def test_plan_table_is_bounded_under_layout_churn(self):
        # The gateway forwards client-chosen key sets: 10 000 distinct
        # layouts must not grow the table past its constant bound.
        config = TransformConfig(smooth_scale=0.0)
        fused, reference = KinectTransformer(config), ReferenceTransformer(config)
        base = _rest_frame(yaw=20.0)
        for index in range(10_000):
            frame = {f"client_field_{index}": 1.0, **base}
            assert _bits(fused.transform(frame)) == _bits(reference.transform(frame))
        table = pipeline._layout_plan.cache_info()
        assert table.currsize == table.maxsize == pipeline._MAX_LAYOUT_PLANS

    def test_transformers_share_plans_but_not_smoothing_state(self):
        child = [_rest_frame(user="child") for _ in range(10)]
        adult = [_rest_frame(user="tall_adult") for _ in range(10)]
        assert tuple(child[0]) == tuple(adult[0])  # one layout, one plan
        first, second = KinectTransformer(), KinectTransformer()
        first.transform(child[0])
        built = pipeline._layout_plan.cache_info().misses
        interleaved = [
            (first.transform(c), second.transform(a)) for c, a in zip(child[1:], adult[1:])
        ]
        assert pipeline._layout_plan.cache_info().misses == built
        alone_child, alone_adult = ReferenceTransformer(), ReferenceTransformer()
        alone_child.transform(child[0])
        assert _bits_of(out for out, _ in interleaved) == _bits_of(
            map(alone_child.transform, child[1:])
        )
        assert _bits_of(out for _, out in interleaved) == _bits_of(
            map(alone_adult.transform, adult[1:])
        )

    def test_restored_transformer_continues_bit_identically(self, simulator, swipe):
        frames = simulator.perform(swipe)
        for index, frame in enumerate(frames):
            frame["player"] = index % 2
        half = len(frames) // 2
        original = KinectTransformer()
        for frame in frames[:half]:
            original.transform(frame)
        restored = KinectTransformer()
        restored.restore_state(json.loads(json.dumps(original.capture_state())))
        assert _bits_of(map(restored.transform, frames[half:])) == _bits_of(
            map(original.transform, frames[half:])
        )
        assert restored.capture_state() == original.capture_state()


#: Joint of each joint field (``rhand_x`` -> ``rhand``).
_JOINT_OF = {joint_field(joint, axis): joint for joint in JOINTS for axis in TRACKED_AXES}


@st.composite
def _layouts(draw):
    """A frame of `_frames`, sometimes with a torso axis dropped as well."""
    frame = draw(_frames())
    if draw(st.integers(0, 4)) == 0:
        del frame[draw(st.sampled_from([joint_field("torso", axis) for axis in TRACKED_AXES]))]
    return frame


def _outcome(transform, frame):
    """The output bits, or the exception's type and arguments."""
    try:
        return _bits(transform(frame))
    except (KeyError, ValueError) as error:
        return type(error), error.args


class TestProjectedKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        config=_configs,
        frames=st.lists(_layouts(), min_size=1, max_size=4),
        joints=st.none() | st.frozensets(st.sampled_from(JOINTS)),
        poisoned=st.booleans(),
    )
    def test_projection_is_the_full_output_restricted_to_its_keys(
        self, config, frames, joints, poisoned
    ):
        full, projected = KinectTransformer(config), KinectTransformer(config)
        if poisoned:  # a restored non-positive scale: the ValueError path
            for transformer in (full, projected):
                state = transformer.capture_state()
                state["scales"] = [[1, -1e6]]
                transformer.restore_state(state)
        for frame in frames:
            expected = _outcome(full.transform, frame)
            actual = _outcome(lambda f: projected.transform(f, joints), frame)
            if isinstance(expected, list):  # keep non-joint keys and the joints asked for
                expected = [
                    (key, bits)
                    for key, bits in expected
                    if key not in _JOINT_OF or joints is None or _JOINT_OF[key] in joints
                ]
            assert actual == expected
            assert projected.capture_state() == full.capture_state()

    @given(reads=st.frozensets(st.sampled_from(_JOINT_FIELDS + _EXTRA_FIELDS)))
    def test_project_keeps_the_hands_and_every_joint_read(self, reads):
        frame = dict(_rest_frame(), ts=1.0, player=1)
        emitted = KinectTransformer().project(reads)(frame)
        read = {_JOINT_OF[field] for field in reads if field in _JOINT_OF}
        assert {_JOINT_OF[key] for key in emitted if key in _JOINT_OF} == read | {"rhand", "lhand"}
        assert {"ts", "player", "scale"} <= set(emitted)

    def test_project_without_a_declaration_is_the_full_transform(self):
        transformer = KinectTransformer()
        assert transformer.project(None) == transformer.transform
        assert transformer.project(frozenset(all_joint_fields())) == transformer.transform
