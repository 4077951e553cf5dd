"""Data transformation into a user-independent coordinate frame (paper Sec. 3.2).

The raw Kinect stream reports joint positions in camera coordinates.  Before
learning or matching gesture patterns, every frame is transformed into a
coordinate system that is

* **position-invariant** — the torso becomes the origin, so the user may
  stand anywhere in front of the camera,
* **orientation-invariant** — the axes are rotated about the vertical so the
  user's viewing direction is fixed, regardless of how they are turned,
* **scale-invariant** — all coordinates are divided by the right-forearm
  length (hand–elbow distance), so children and adults produce comparable
  paths.

The transformation is :class:`KinectTransformer`, installed into the CEP
engine as the ``kinect_t`` view (:func:`repro.cep.views.install_kinect_view`),
mirroring the paper's on-the-fly view.
"""

from repro.transform.coordinate import (
    REFERENCE_FOREARM_MM,
    forearm_scale,
    shift_to_torso,
    scale_coordinates,
)
from repro.transform.rotation import (
    estimate_yaw_deg,
    roll_pitch_yaw,
    rotate_about_y,
)
from repro.transform.pipeline import KinectTransformer, TransformConfig
from repro.transform.angles import (
    DEFAULT_SEGMENTS,
    JointAngleTransformer,
    LimbSegment,
    install_angle_view,
)

__all__ = [
    "DEFAULT_SEGMENTS",
    "JointAngleTransformer",
    "LimbSegment",
    "install_angle_view",
    "REFERENCE_FOREARM_MM",
    "forearm_scale",
    "shift_to_torso",
    "scale_coordinates",
    "estimate_yaw_deg",
    "rotate_about_y",
    "roll_pitch_yaw",
    "KinectTransformer",
    "TransformConfig",
]
