"""Unit tests for repro.kinect.users and repro.kinect.noise."""

import numpy as np
import pytest

from repro.kinect.noise import GaussianNoise, NoNoise
from repro.kinect.skeleton import Skeleton
from repro.kinect.users import REFERENCE_HEIGHT_MM, STANDARD_USERS, BodyProfile, user_by_name


class TestBodyProfile:
    def test_reference_adult_has_scale_one(self):
        assert BodyProfile("x", height_mm=REFERENCE_HEIGHT_MM).scale == pytest.approx(1.0)

    def test_child_scale_is_proportional(self):
        child = user_by_name("child")
        assert child.scale == pytest.approx(1200.0 / 1750.0)

    def test_scaled_lengths(self):
        user = BodyProfile("x", height_mm=875.0)
        assert user.scaled(100.0) == pytest.approx(50.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BodyProfile("x", height_mm=0)
        with pytest.raises(ValueError):
            BodyProfile("x", performance_speed=0)
        with pytest.raises(ValueError):
            BodyProfile("x", repeat_variability_mm=-1)
        with pytest.raises(ValueError):
            BodyProfile("x", handedness="both")

    def test_standard_users_cover_children_and_adults(self):
        heights = [user.height_mm for user in STANDARD_USERS]
        assert min(heights) <= 1300
        assert max(heights) >= 1900

    def test_user_by_name_unknown(self):
        with pytest.raises(KeyError):
            user_by_name("giant")

    def test_describe_is_plain_dict(self):
        info = user_by_name("adult").describe()
        assert info["scale"] == pytest.approx(1.0)
        assert "height_mm" in info


def _rest_frame():
    return Skeleton(position=(0.0, 0.0, 2000.0)).measure()


class TestGaussianNoise:
    def test_zero_sigma_is_identity(self):
        frame = _rest_frame()
        assert GaussianNoise(sigma_mm=0.0).apply(frame) is frame

    def test_noise_perturbs_coordinates(self):
        frame = _rest_frame()
        noisy = GaussianNoise(sigma_mm=10.0, rng=np.random.default_rng(1)).apply(frame)
        assert noisy is not frame
        assert noisy["rhand_x"] != frame["rhand_x"]

    def test_noise_magnitude_is_plausible(self):
        rng = np.random.default_rng(2)
        noise = GaussianNoise(sigma_mm=5.0, rng=rng)
        frame = _rest_frame()
        deltas = [
            abs(noise.apply(frame)["rhand_x"] - frame["rhand_x"]) for _ in range(200)
        ]
        assert 2.0 < float(np.mean(deltas)) < 8.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            GaussianNoise(sigma_mm=-1.0)

    def test_joint_subset_only_perturbs_those_joints(self):
        frame = _rest_frame()
        noise = GaussianNoise(sigma_mm=20.0, rng=np.random.default_rng(3), joints=["rhand"])
        noisy = noise.apply(frame)
        assert noisy["torso_x"] == frame["torso_x"]
        assert noisy["rhand_x"] != frame["rhand_x"]


    def test_seeded_noise_is_reproducible(self):
        frame = _rest_frame()
        first = GaussianNoise(sigma_mm=10.0, rng=np.random.default_rng(9)).apply(frame)
        second = GaussianNoise(sigma_mm=10.0, rng=np.random.default_rng(9)).apply(frame)
        assert first == second

    def test_noise_leaves_the_input_record_unchanged(self):
        frame = _rest_frame()
        before = dict(frame)
        GaussianNoise(sigma_mm=10.0, rng=np.random.default_rng(4)).apply(frame)
        assert frame == before

    def test_noise_touches_joint_coordinates_only(self):
        frame = dict(_rest_frame(), ts=1.5, player=2)
        noisy = GaussianNoise(sigma_mm=10.0, rng=np.random.default_rng(5)).apply(frame)
        assert (noisy["ts"], noisy["player"]) == (1.5, 2)
        assert set(noisy) == set(frame)

class TestNoNoise:
    def test_no_noise_is_identity(self):
        frame = _rest_frame()
        assert NoNoise().apply(frame) is frame

    def test_models_chain_by_applying_them_in_turn(self):
        frame = _rest_frame()
        chained = GaussianNoise(sigma_mm=10.0, rng=np.random.default_rng(6)).apply(
            NoNoise().apply(frame)
        )
        alone = GaussianNoise(sigma_mm=10.0, rng=np.random.default_rng(6)).apply(frame)
        assert chained == alone
