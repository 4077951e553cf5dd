"""Skeleton joint model used by the Kinect simulator.

The Kinect middleware (OpenNI / Kinect SDK) tracks a fixed set of skeleton
joints and reports their positions in a camera-centred coordinate system in
millimetres:

* ``X`` — horizontal, positive to the right from the camera's point of view,
* ``Y`` — vertical, positive up,
* ``Z`` — depth, positive away from the camera.

This module defines the tracked joints, the flat tuple field naming used on
the sensor stream (``<joint>_<axis>``, e.g. ``rhand_x``), and a rest pose in
a *user-relative* frame (origin at the torso, same axis orientation as the
camera frame when the user directly faces the camera).  The rest pose is
scaled by a :class:`~repro.kinect.users.BodyProfile` to obtain skeletons of
different heights.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Tuple

import numpy as np

#: Joints tracked by the simulator (OpenNI upper+lower body joint set).
JOINTS: Tuple[str, ...] = (
    "head",
    "neck",
    "torso",
    "lshoulder",
    "rshoulder",
    "lelbow",
    "relbow",
    "lhand",
    "rhand",
    "lhip",
    "rhip",
    "lknee",
    "rknee",
    "lfoot",
    "rfoot",
)

#: Coordinate axes reported per joint.
TRACKED_AXES: Tuple[str, ...] = ("x", "y", "z")

#: Rest-pose joint offsets relative to the torso for a reference user of
#: height 1.75 m, in millimetres, user-relative frame (x lateral, y up,
#: z depth; negative z is in front of the body, toward the camera).
_REFERENCE_HEIGHT_MM = 1750.0
_REST_POSE_OFFSETS: Dict[str, Tuple[float, float, float]] = {
    "torso": (0.0, 0.0, 0.0),
    "neck": (0.0, 420.0, 0.0),
    "head": (0.0, 580.0, 0.0),
    "lshoulder": (-190.0, 380.0, 0.0),
    "rshoulder": (190.0, 380.0, 0.0),
    "lelbow": (-260.0, 120.0, -40.0),
    "relbow": (260.0, 120.0, -40.0),
    "lhand": (-280.0, -120.0, -70.0),
    "rhand": (280.0, -120.0, -70.0),
    "lhip": (-110.0, -330.0, 0.0),
    "rhip": (110.0, -330.0, 0.0),
    "lknee": (-120.0, -780.0, 0.0),
    "rknee": (120.0, -780.0, 0.0),
    "lfoot": (-130.0, -1210.0, -60.0),
    "rfoot": (130.0, -1210.0, -60.0),
}


@lru_cache(maxsize=None)
def joint_field(joint: str, axis: str) -> str:
    """Return the flat tuple field name for ``joint`` and ``axis``.

    Cached: the joint/axis vocabulary is tiny and fixed, and the transform
    pipeline asks for the same names on every frame of the sensor stream.

    >>> joint_field("rhand", "x")
    'rhand_x'
    """
    if joint not in JOINTS:
        raise ValueError(f"unknown joint '{joint}'; expected one of {JOINTS}")
    if axis not in TRACKED_AXES:
        raise ValueError(f"unknown axis '{axis}'; expected one of {TRACKED_AXES}")
    return f"{joint}_{axis}"


def all_joint_fields() -> List[str]:
    """Return all ``<joint>_<axis>`` field names in a deterministic order."""
    return [joint_field(j, a) for j in JOINTS for a in TRACKED_AXES]


def rest_pose(scale: float = 1.0) -> Dict[str, np.ndarray]:
    """Return the rest-pose joint offsets (torso-relative, mm).

    Parameters
    ----------
    scale:
        Linear body-size factor relative to the 1.75 m reference user.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    return {
        joint: np.array(offset, dtype=float) * scale
        for joint, offset in _REST_POSE_OFFSETS.items()
    }


class Skeleton:
    """A posable skeleton placed somewhere in front of the camera.

    The skeleton maintains joint positions in the *user-relative* frame
    (torso at the origin) and converts them to camera coordinates given the
    user's standing position and facing direction (yaw about the vertical
    axis; 0 means directly facing the camera).

    Parameters
    ----------
    scale:
        Linear body-size factor (1.0 = 1.75 m reference adult).
    position:
        Torso position in camera coordinates, millimetres.
    yaw_deg:
        Facing direction in degrees; positive rotates the user to their left.
    """

    def __init__(
        self,
        scale: float = 1.0,
        position: Tuple[float, float, float] = (0.0, 0.0, 2000.0),
        yaw_deg: float = 0.0,
    ) -> None:
        self.scale = float(scale)
        self.position = np.array(position, dtype=float)
        self.yaw_deg = float(yaw_deg)
        self._rest = rest_pose(self.scale)
        self._offsets: Dict[str, np.ndarray] = {
            joint: vec.copy() for joint, vec in self._rest.items()
        }

    # -- posing ---------------------------------------------------------------

    def reset(self) -> None:
        """Return every joint to the rest pose."""
        self._offsets = {joint: vec.copy() for joint, vec in self._rest.items()}

    def set_joint_offset(self, joint: str, offset: Iterable[float]) -> None:
        """Set a joint's torso-relative position (mm, user frame)."""
        if joint not in JOINTS:
            raise ValueError(f"unknown joint '{joint}'")
        self._offsets[joint] = np.array(list(offset), dtype=float)

    def displace_joint(self, joint: str, delta: Iterable[float]) -> None:
        """Displace a joint from its *rest pose* by ``delta`` (mm)."""
        if joint not in JOINTS:
            raise ValueError(f"unknown joint '{joint}'")
        self._offsets[joint] = self._rest[joint] + np.array(list(delta), dtype=float)

    def joint_offset(self, joint: str) -> np.ndarray:
        """Current torso-relative position of ``joint`` (mm, user frame)."""
        return self._offsets[joint].copy()

    def rest_offset(self, joint: str) -> np.ndarray:
        """Rest-pose torso-relative position of ``joint`` (mm, user frame)."""
        return self._rest[joint].copy()

    # -- placement ------------------------------------------------------------

    def move_to(self, position: Iterable[float]) -> None:
        """Move the torso to a new camera-frame position (mm)."""
        self.position = np.array(list(position), dtype=float)

    def turn_to(self, yaw_deg: float) -> None:
        """Face a new direction (degrees about the vertical axis)."""
        self.yaw_deg = float(yaw_deg)

    def _yaw_matrix(self) -> np.ndarray:
        angle = np.deg2rad(self.yaw_deg)
        cos, sin = np.cos(angle), np.sin(angle)
        # Rotation about the Y (vertical) axis.
        return np.array(
            [
                [cos, 0.0, sin],
                [0.0, 1.0, 0.0],
                [-sin, 0.0, cos],
            ]
        )

    # -- measurement -----------------------------------------------------------

    def joint_positions(self) -> Dict[str, np.ndarray]:
        """Return all joint positions in camera coordinates (mm)."""
        rotation = self._yaw_matrix()
        return {
            joint: self.position + rotation @ offset
            for joint, offset in self._offsets.items()
        }

    def measure(self) -> Dict[str, float]:
        """Return the flat ``<joint>_<axis>`` measurement dictionary (mm)."""
        positions = self.joint_positions()
        record: Dict[str, float] = {}
        for joint, vector in positions.items():
            for axis_index, axis in enumerate(TRACKED_AXES):
                record[joint_field(joint, axis)] = float(vector[axis_index])
        return record

    def forearm_length(self, side: str = "right") -> float:
        """Euclidean distance between elbow and hand (the paper's scale factor)."""
        if side not in ("right", "left"):
            raise ValueError("side must be 'right' or 'left'")
        prefix = "r" if side == "right" else "l"
        elbow = self._offsets[f"{prefix}elbow"]
        hand = self._offsets[f"{prefix}hand"]
        return float(np.linalg.norm(elbow - hand))

    def __repr__(self) -> str:
        return (
            f"Skeleton(scale={self.scale:.2f}, position={tuple(self.position)}, "
            f"yaw={self.yaw_deg:.1f})"
        )
