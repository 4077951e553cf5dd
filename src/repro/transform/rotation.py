"""Orientation normalisation and Roll-Pitch-Yaw operators (paper Sec. 3.2).

The paper rotates the coordinate axes so the user's viewing direction
becomes a fixed axis ("East-North-Up ground reference frame as it is used
for land vehicles") and implements Roll-Pitch-Yaw angle operators as
user-defined functions in AnduIN so queries can express rotational
movements (e.g. a wave) directly.

Here the user's heading (yaw) is estimated from the shoulder line — the
vector from the left to the right shoulder is perpendicular to the viewing
direction — and all torso-relative coordinates are rotated about the
vertical axis so that a user turned away from the camera produces the same
numbers as one facing it.

:func:`estimate_yaw_deg` and :func:`rotate_about_y` are the executable
reference of this step: :class:`~repro.transform.pipeline.KinectTransformer`
fuses it with the shift and the scaling and is tested bit for bit against them.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Tuple

from repro.kinect.skeleton import JOINTS, TRACKED_AXES, joint_field


def estimate_yaw_deg(frame: Mapping[str, float]) -> float:
    """Estimate the user's heading about the vertical axis, in degrees.

    A user squarely facing the camera has their shoulder line parallel to
    the camera X axis, which this function reports as 0°.  Positive angles
    mean the user has turned to their left.

    Falls back to 0° when shoulder joints are missing (e.g. partial frames).
    """
    try:
        dx = frame["rshoulder_x"] - frame["lshoulder_x"]
        dz = frame["rshoulder_z"] - frame["lshoulder_z"]
    except KeyError:
        return 0.0
    if abs(dx) < 1e-9 and abs(dz) < 1e-9:
        return 0.0
    # For yaw=0 the shoulder line is (+1, 0, 0); rotation about Y by angle a
    # maps it to (cos a, 0, -sin a), hence a = atan2(-dz, dx).
    return math.degrees(math.atan2(-dz, dx))


def rotate_about_y(
    frame: Mapping[str, float],
    angle_deg: float,
) -> Dict[str, float]:
    """Rotate all joint coordinates about the vertical (Y) axis.

    Parameters
    ----------
    frame:
        A torso-relative frame.
    angle_deg:
        Rotation angle in degrees; pass ``-estimate_yaw_deg(frame)`` to
        cancel the user's heading.
    """
    angle = math.radians(angle_deg)
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    rotated: Dict[str, float] = dict(frame)
    for joint in JOINTS:
        x_key, z_key = joint_field(joint, "x"), joint_field(joint, "z")
        if x_key in frame and z_key in frame:
            x, z = frame[x_key], frame[z_key]
            rotated[x_key] = cos_a * x + sin_a * z
            rotated[z_key] = -sin_a * x + cos_a * z
    return rotated


def roll_pitch_yaw(
    origin: Tuple[float, float, float],
    target: Tuple[float, float, float],
) -> Tuple[float, float, float]:
    """Roll-Pitch-Yaw angles (degrees) of the vector from ``origin`` to ``target``.

    These are the rotational operators the paper registers as user-defined
    functions so queries can express rotational movements (a wave is "the
    forearm's yaw oscillates").  Conventions for the user-relative ENU-style
    frame used throughout this library:

    * **yaw** — heading of the vector in the horizontal (X/Z) plane,
    * **pitch** — elevation above the horizontal plane,
    * **roll** — rotation about the vector itself, which cannot be derived
      from two points alone and is therefore reported as 0; it is kept in
      the signature for interface compatibility with the paper's operator.
    """
    dx = target[0] - origin[0]
    dy = target[1] - origin[1]
    dz = target[2] - origin[2]
    horizontal = math.sqrt(dx * dx + dz * dz)
    yaw = math.degrees(math.atan2(-dz, dx)) if (dx or dz) else 0.0
    pitch = math.degrees(math.atan2(dy, horizontal)) if (dy or horizontal) else 0.0
    roll = 0.0
    return roll, pitch, yaw


def joint_roll_pitch_yaw(
    frame: Mapping[str, float],
    from_joint: str,
    to_joint: str,
) -> Tuple[float, float, float]:
    """RPY angles of the limb segment between two joints in one frame."""
    origin = tuple(frame[joint_field(from_joint, axis)] for axis in TRACKED_AXES)
    target = tuple(frame[joint_field(to_joint, axis)] for axis in TRACKED_AXES)
    return roll_pitch_yaw(origin, target)  # type: ignore[arg-type]
