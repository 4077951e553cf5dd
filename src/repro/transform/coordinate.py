"""Position and scale normalisation of skeleton frames.

Implements the two per-frame normalisations of paper Sec. 3.2:

* shifting all joints by the torso position (position invariance), and
* dividing by the right-forearm length (scale invariance), optionally
  re-expressed in "reference millimetres" so transformed coordinates remain
  in a familiar range (the paper's Fig. 1 windows such as ``(800, 150, -120)``
  with width 50 are in this range).

:func:`shift_to_torso` and :func:`scale_coordinates` are the executable
reference of these steps: :class:`~repro.transform.pipeline.KinectTransformer`
fuses them into one pass and is tested bit for bit against their composition.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.kinect.skeleton import JOINTS, TRACKED_AXES, joint_field

#: Forearm length (hand–elbow distance) of the reference 1.75 m adult in mm.
#: Dividing by the measured forearm length and multiplying by this constant
#: maps every user onto the reference user's proportions.
REFERENCE_FOREARM_MM = 243.0

#: Minimum plausible forearm length; measurements below this are treated as
#: tracking glitches and replaced by the last valid value (or the reference).
_MIN_FOREARM_MM = 40.0

#: Hand and elbow field names per side, resolved once (this runs per frame).
_RIGHT_FOREARM_FIELDS = tuple(
    joint_field(joint, axis) for joint in ("rhand", "relbow") for axis in TRACKED_AXES
)
_LEFT_FOREARM_FIELDS = tuple(
    joint_field(joint, axis) for joint in ("lhand", "lelbow") for axis in TRACKED_AXES
)


def forearm_scale(
    frame: Mapping[str, float],
    side: str = "right",
    fallback: float = REFERENCE_FOREARM_MM,
) -> float:
    """Return the user's forearm length (mm) measured from one frame.

    The paper uses the Euclidean distance between the right hand and the
    right elbow as the body-size scale factor; it is constant regardless of
    the user's orientation toward the camera.

    Parameters
    ----------
    frame:
        A raw sensor tuple.
    side:
        ``"right"`` (paper default) or ``"left"``.
    fallback:
        Value returned when the required joints are missing or the measured
        distance is implausibly small (lost tracking) or not finite (a
        ``NaN``/``inf`` coordinate, which the gateway's JSON decoder accepts).
    """
    hand_x, hand_y, hand_z, elbow_x, elbow_y, elbow_z = (
        _RIGHT_FOREARM_FIELDS if side == "right" else _LEFT_FOREARM_FIELDS
    )
    try:
        dx = frame[hand_x] - frame[elbow_x]
        dy = frame[hand_y] - frame[elbow_y]
        dz = frame[hand_z] - frame[elbow_z]
    except KeyError:
        return fallback
    length = math.sqrt(dx * dx + dy * dy + dz * dz)
    # A NaN or inf coordinate gives a NaN or inf length; ``length < minimum``
    # is false for both, and a NaN smoothed into a player's scale never
    # leaves it.  Only a finite plausible length passes this test.
    if not _MIN_FOREARM_MM <= length < math.inf:
        return fallback
    return length


def present_joints(frame: Mapping[str, float]) -> Tuple[str, ...]:
    """Return the joints for which the frame carries all three coordinates."""
    joints = []
    for joint in JOINTS:
        if all(joint_field(joint, axis) in frame for axis in TRACKED_AXES):
            joints.append(joint)
    return tuple(joints)


def shift_to_torso(
    frame: Mapping[str, float],
    joints: Optional[Iterable[str]] = None,
) -> Dict[str, float]:
    """Shift every joint by the torso position (torso becomes the origin).

    Non-joint fields (``ts``, ``player``) are copied through unchanged.

    Raises
    ------
    KeyError
        If the frame has no torso coordinates — without them position
        invariance is impossible.
    """
    tx = frame["torso_x"]
    ty = frame["torso_y"]
    tz = frame["torso_z"]
    selected = tuple(joints) if joints is not None else present_joints(frame)
    shifted: Dict[str, float] = {
        key: value
        for key, value in frame.items()
        if not _is_joint_field(key)
    }
    for joint in selected:
        shifted[joint_field(joint, "x")] = frame[joint_field(joint, "x")] - tx
        shifted[joint_field(joint, "y")] = frame[joint_field(joint, "y")] - ty
        shifted[joint_field(joint, "z")] = frame[joint_field(joint, "z")] - tz
    return shifted


def scale_coordinates(
    frame: Mapping[str, float],
    scale: float,
    reference: float = REFERENCE_FOREARM_MM,
) -> Dict[str, float]:
    """Scale all joint coordinates by ``reference / scale``.

    With ``scale`` equal to the user's forearm length this maps every user
    onto the reference adult's proportions: the same gesture performed by a
    child and a tall adult yields (approximately) the same numbers.

    Parameters
    ----------
    frame:
        A torso-relative frame (output of :func:`shift_to_torso`).
    scale:
        The user's measured forearm length in millimetres.
    reference:
        The target forearm length; pass ``1.0`` to obtain coordinates in
        forearm units (the formulation used verbatim in the paper's Fig. 3).
    """
    if scale <= 0:
        raise ValueError("scale factor must be positive")
    factor = reference / scale
    scaled: Dict[str, float] = {}
    for key, value in frame.items():
        if _is_joint_field(key):
            scaled[key] = value * factor
        else:
            scaled[key] = value
    return scaled


@lru_cache(maxsize=4096)
def _is_joint_field(key: str) -> bool:
    # Cached: streams carry the same few dozen field names on every frame.
    if "_" not in key:
        return False
    joint, _, axis = key.rpartition("_")
    return joint in JOINTS and axis in TRACKED_AXES
