"""Synthetic Microsoft-Kinect skeleton stream (simulator substrate).

The paper's system consumes the 30 Hz skeleton-joint stream produced by a
Kinect 3D camera through OpenNI / the Kinect SDK.  That hardware is not
available here, so this package simulates it:

* :mod:`repro.kinect.skeleton` — the joint model and rest pose,
* :mod:`repro.kinect.users` — parameterised body profiles (child … tall
  adult) so scale-invariance experiments have "users" of different heights,
* :mod:`repro.kinect.trajectories` — parametric gesture trajectories
  (swipes, circle, wave, push, …) defined in a user-relative coordinate
  frame,
* :mod:`repro.kinect.noise` — sensor noise and jitter models,
* :mod:`repro.kinect.simulator` — :class:`KinectSimulator`, which renders a
  trajectory performed by a body profile standing somewhere in front of the
  camera into the same flat tuples the Kinect middleware would deliver,
* :mod:`repro.kinect.recordings` — labelled recordings of single users and
  interleaved multi-user scenes.
"""

from repro.kinect.skeleton import (
    JOINTS,
    TRACKED_AXES,
    Skeleton,
    joint_field,
    rest_pose,
)
from repro.kinect.users import BodyProfile, STANDARD_USERS, user_by_name
from repro.kinect.noise import GaussianNoise, NoNoise, NoiseModel
from repro.kinect.trajectories import (
    CircleTrajectory,
    PushTrajectory,
    RaiseHandTrajectory,
    SwipeTrajectory,
    Trajectory,
    TwoHandSwipeTrajectory,
    WaveTrajectory,
    WaypointTrajectory,
    standard_gesture_catalog,
)
from repro.kinect.simulator import KinectSimulator, KINECT_FREQUENCY_HZ
from repro.kinect.recordings import (
    MultiUserRecording,
    Recording,
    generate_multiuser_recording,
)

__all__ = [
    "JOINTS",
    "TRACKED_AXES",
    "Skeleton",
    "joint_field",
    "rest_pose",
    "BodyProfile",
    "STANDARD_USERS",
    "user_by_name",
    "NoiseModel",
    "GaussianNoise",
    "NoNoise",
    "Trajectory",
    "SwipeTrajectory",
    "CircleTrajectory",
    "WaveTrajectory",
    "PushTrajectory",
    "RaiseHandTrajectory",
    "TwoHandSwipeTrajectory",
    "WaypointTrajectory",
    "standard_gesture_catalog",
    "KinectSimulator",
    "KINECT_FREQUENCY_HZ",
    "MultiUserRecording",
    "Recording",
    "generate_multiuser_recording",
]
