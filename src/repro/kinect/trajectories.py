"""Parametric gesture trajectories.

A :class:`Trajectory` describes *what the user intends to do with their
body*: for each moving joint it gives a torso-relative target position (in
millimetres, at the reference body scale) as a function of the normalised
gesture phase ``t ∈ [0, 1]``.  The :class:`~repro.kinect.simulator.KinectSimulator`
renders a trajectory into camera-space measurements for a concrete user.

The catalogue mirrors the gestures used in the paper and its companion
demos: the ``swipe_right`` gesture of Fig. 1 (with its three characteristic
poses at x = 0, 400 and 800 mm), the circle gesture sketched in Fig. 2, the
wave used as the control gesture that starts recording, and the two-hand
swipe that finalises the learning phase (Sec. 3.1).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

Vector = np.ndarray


def _as_vec(point: Iterable[float]) -> Vector:
    vec = np.array(list(point), dtype=float)
    if vec.shape != (3,):
        raise ValueError(f"expected a 3D point, got {vec!r}")
    return vec


class Trajectory(ABC):
    """Base class for gesture trajectories.

    Parameters
    ----------
    name:
        Gesture name; used as the default label when learning.
    duration_s:
        Nominal duration of one performance in seconds.
    """

    def __init__(self, name: str, duration_s: float) -> None:
        if duration_s <= 0:
            raise ValueError("trajectory duration must be positive")
        self.name = name
        self.duration_s = float(duration_s)

    @property
    @abstractmethod
    def joints(self) -> Tuple[str, ...]:
        """Joints displaced by this trajectory."""

    @abstractmethod
    def positions(self, phase: float) -> Dict[str, Vector]:
        """Torso-relative positions (mm, reference scale) at ``phase`` ∈ [0, 1]."""

    def start_positions(self) -> Dict[str, Vector]:
        """Joint positions at the start pose (phase 0)."""
        return self.positions(0.0)

    def end_positions(self) -> Dict[str, Vector]:
        """Joint positions at the end pose (phase 1)."""
        return self.positions(1.0)

    def path_length(self, joint: str, samples: int = 100) -> float:
        """Approximate arc length of ``joint``'s path in millimetres."""
        if joint not in self.joints:
            return 0.0
        phases = np.linspace(0.0, 1.0, samples)
        points = np.array([self.positions(float(p))[joint] for p in phases])
        return float(np.sum(np.linalg.norm(np.diff(points, axis=0), axis=1)))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"duration={self.duration_s:.2f}s, joints={self.joints})"
        )


def _clamp_phase(phase: float) -> float:
    return min(1.0, max(0.0, float(phase)))


class WaypointTrajectory(Trajectory):
    """Piecewise-linear interpolation through per-joint waypoints.

    Parameters
    ----------
    waypoints:
        Mapping of joint name to an ordered sequence of torso-relative
        waypoints (each a 3-tuple in millimetres).  All joints must have the
        same number of waypoints.
    smooth:
        If true, the phase is eased with a cosine ramp so the simulated hand
        accelerates and decelerates like a human arm instead of moving at
        constant speed.
    """

    def __init__(
        self,
        name: str,
        duration_s: float,
        waypoints: Mapping[str, Sequence[Iterable[float]]],
        smooth: bool = True,
    ) -> None:
        super().__init__(name, duration_s)
        if not waypoints:
            raise ValueError("at least one joint with waypoints is required")
        self._waypoints: Dict[str, List[Vector]] = {
            joint: [_as_vec(p) for p in points] for joint, points in waypoints.items()
        }
        lengths = {len(points) for points in self._waypoints.values()}
        if len(lengths) != 1:
            raise ValueError("all joints must have the same number of waypoints")
        self._n_waypoints = lengths.pop()
        if self._n_waypoints < 2:
            raise ValueError("a trajectory needs at least two waypoints per joint")
        self.smooth = smooth

    @property
    def joints(self) -> Tuple[str, ...]:
        return tuple(self._waypoints)

    def waypoints(self, joint: str) -> List[Vector]:
        """Return a copy of the waypoints for ``joint``."""
        return [p.copy() for p in self._waypoints[joint]]

    def _eased(self, phase: float) -> float:
        phase = _clamp_phase(phase)
        if not self.smooth:
            return phase
        return 0.5 - 0.5 * math.cos(math.pi * phase)

    def positions(self, phase: float) -> Dict[str, Vector]:
        eased = self._eased(phase)
        segment_count = self._n_waypoints - 1
        scaled = eased * segment_count
        index = min(int(scaled), segment_count - 1)
        local = scaled - index
        result: Dict[str, Vector] = {}
        for joint, points in self._waypoints.items():
            start, end = points[index], points[index + 1]
            result[joint] = start + (end - start) * local
        return result

    def perturbed(
        self,
        rng: np.random.Generator,
        sigma_mm: float,
        name_suffix: str = "",
    ) -> "WaypointTrajectory":
        """Return a copy with every waypoint jittered by Gaussian noise.

        This models sample-to-sample variation: a human repeating the "same"
        gesture never hits exactly the same points, which is precisely what
        the window-merging step (paper Sec. 3.3.2) has to absorb.
        """
        jittered = {
            joint: [p + rng.normal(0.0, sigma_mm, size=3) for p in points]
            for joint, points in self._waypoints.items()
        }
        return WaypointTrajectory(
            name=self.name + name_suffix,
            duration_s=self.duration_s,
            waypoints=jittered,
            smooth=self.smooth,
        )


class SwipeTrajectory(WaypointTrajectory):
    """A horizontal hand swipe, matching Fig. 1 of the paper.

    The right-hand variant passes through the three poses used in the
    paper's generated query: (0, 150, -120) → (400, 150, -420) →
    (800, 150, -120), i.e. the hand sweeps laterally at chest height and
    bows out toward the camera in the middle of the movement.
    """

    def __init__(
        self,
        direction: str = "right",
        hand: str = "rhand",
        extent_mm: float = 800.0,
        height_mm: float = 150.0,
        depth_mm: float = -120.0,
        bow_mm: float = -300.0,
        duration_s: float = 1.2,
        name: Optional[str] = None,
    ) -> None:
        if direction not in ("right", "left"):
            raise ValueError("direction must be 'right' or 'left'")
        sign = 1.0 if direction == "right" else -1.0
        waypoints = {
            hand: [
                (0.0, height_mm, depth_mm),
                (sign * extent_mm / 2.0, height_mm, depth_mm + bow_mm),
                (sign * extent_mm, height_mm, depth_mm),
            ]
        }
        super().__init__(
            name=name or f"swipe_{direction}",
            duration_s=duration_s,
            waypoints=waypoints,
        )
        self.direction = direction
        self.hand = hand


class PushTrajectory(WaypointTrajectory):
    """A forward push: the hand moves from the chest straight toward the camera."""

    def __init__(
        self,
        hand: str = "rhand",
        reach_mm: float = 450.0,
        height_mm: float = 200.0,
        duration_s: float = 0.8,
        name: str = "push",
    ) -> None:
        waypoints = {
            hand: [
                (100.0, height_mm, -150.0),
                (100.0, height_mm, -150.0 - reach_mm),
            ]
        }
        super().__init__(name=name, duration_s=duration_s, waypoints=waypoints)
        self.hand = hand


class RaiseHandTrajectory(WaypointTrajectory):
    """Raising one hand from the hip to above the head."""

    def __init__(
        self,
        hand: str = "rhand",
        duration_s: float = 1.0,
        name: str = "raise_hand",
    ) -> None:
        waypoints = {
            hand: [
                (280.0, -120.0, -70.0),
                (300.0, 300.0, -150.0),
                (200.0, 700.0, -100.0),
            ]
        }
        super().__init__(name=name, duration_s=duration_s, waypoints=waypoints)
        self.hand = hand


class TwoHandSwipeTrajectory(WaypointTrajectory):
    """Both hands swipe outward simultaneously.

    Used in the paper as the control gesture that finalises the learning
    process and starts the testing phase (Sec. 3.1).
    """

    def __init__(
        self,
        extent_mm: float = 500.0,
        height_mm: float = 200.0,
        depth_mm: float = -200.0,
        duration_s: float = 1.0,
        name: str = "two_hand_swipe",
    ) -> None:
        waypoints = {
            "rhand": [
                (100.0, height_mm, depth_mm),
                (100.0 + extent_mm, height_mm, depth_mm),
            ],
            "lhand": [
                (-100.0, height_mm, depth_mm),
                (-100.0 - extent_mm, height_mm, depth_mm),
            ],
        }
        super().__init__(name=name, duration_s=duration_s, waypoints=waypoints)


class CircleTrajectory(Trajectory):
    """The hand draws a circle in the frontal (X-Y) plane.

    Matches the "Circle" gesture sketched in Fig. 2 of the paper: a large
    circular sweep at roughly constant depth in front of the body.
    """

    def __init__(
        self,
        hand: str = "rhand",
        center: Tuple[float, float, float] = (300.0, 225.0, -100.0),
        radius_mm: float = 450.0,
        duration_s: float = 2.0,
        clockwise: bool = True,
        name: str = "circle",
    ) -> None:
        super().__init__(name, duration_s)
        self.hand = hand
        self.center = _as_vec(center)
        if radius_mm <= 0:
            raise ValueError("radius must be positive")
        self.radius_mm = float(radius_mm)
        self.clockwise = clockwise

    @property
    def joints(self) -> Tuple[str, ...]:
        return (self.hand,)

    def positions(self, phase: float) -> Dict[str, Vector]:
        phase = _clamp_phase(phase)
        # Start at the top of the circle and sweep a full revolution.
        direction = -1.0 if self.clockwise else 1.0
        angle = math.pi / 2.0 + direction * 2.0 * math.pi * phase
        offset = np.array(
            [
                self.radius_mm * math.cos(angle),
                self.radius_mm * math.sin(angle),
                0.0,
            ]
        )
        return {self.hand: self.center + offset}


class WaveTrajectory(Trajectory):
    """Waving: the raised hand oscillates laterally above the shoulder.

    Used in the paper as the control gesture that starts recording a new
    sample (Sec. 3.1).
    """

    def __init__(
        self,
        hand: str = "rhand",
        cycles: int = 3,
        amplitude_mm: float = 180.0,
        height_mm: float = 450.0,
        depth_mm: float = -100.0,
        duration_s: float = 1.5,
        name: str = "wave",
    ) -> None:
        super().__init__(name, duration_s)
        if cycles < 1:
            raise ValueError("a wave needs at least one cycle")
        self.hand = hand
        self.cycles = cycles
        self.amplitude_mm = amplitude_mm
        self.height_mm = height_mm
        self.depth_mm = depth_mm

    @property
    def joints(self) -> Tuple[str, ...]:
        return (self.hand,)

    def positions(self, phase: float) -> Dict[str, Vector]:
        phase = _clamp_phase(phase)
        base_x = 250.0 if self.hand.startswith("r") else -250.0
        lateral = self.amplitude_mm * math.sin(2.0 * math.pi * self.cycles * phase)
        return {
            self.hand: np.array(
                [base_x + lateral, self.height_mm, self.depth_mm]
            )
        }


def standard_gesture_catalog() -> Dict[str, Trajectory]:
    """Return the gesture catalogue used by examples, tests and benchmarks.

    The catalogue contains the paper's running examples (``swipe_right``,
    ``circle``) plus additional gestures that make the selectivity and
    overlap experiments meaningful.
    """
    return {
        "swipe_right": SwipeTrajectory(direction="right"),
        "swipe_left": SwipeTrajectory(direction="left", hand="lhand"),
        "circle": CircleTrajectory(),
        "wave": WaveTrajectory(),
        "push": PushTrajectory(),
        "raise_hand": RaiseHandTrajectory(),
        "two_hand_swipe": TwoHandSwipeTrajectory(),
    }
