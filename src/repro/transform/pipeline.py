"""The ``kinect_t`` transformation pipeline.

Combines the three normalisations of paper Sec. 3.2 — torso shift,
orientation alignment and forearm scaling — into a single per-frame
transformation.  The paper stresses that "for applying all transformations,
only a single step needs to be performed on the incoming data stream" and
exposes it as a view (``kinect_t``); :class:`KinectTransformer` is that
single step, and :func:`repro.cep.views.install_kinect_view` registers it
with the CEP engine as a derived stream.

The transformer's only state is the exponentially smoothed forearm scale.
In a shared sensor space that state must never be shared between users — a
child and a tall adult in front of the same camera would otherwise blend
their scale factors — so it is kept *per partition*, keyed by the frame's
``player`` field (``TransformConfig.partition_field``).  Smoothing state of
players that left the scene is evicted after
``TransformConfig.partition_idle_seconds`` of inactivity, both to bound
memory and so a player who steps back in starts from a fresh measurement
(the eviction decision only looks at that player's own timestamps, which
keeps multi-user streams frame-for-frame identical to isolated ones).

One pass per frame
------------------
:meth:`KinectTransformer.transform` is a single fused pass: one output
dictionary, written once, driven by a **layout plan**.  A plan is derived
from nothing but the frame's key sequence (``tuple(frame)``) and the set of
joints to emit (``None``: all of them): which keys pass through unchanged
(in frame order), the ``(x, y, z)`` key triples of the emitted joints that
carry all three axes (in ``JOINTS`` order — a joint with an axis missing is
dropped from the output), and whether both shoulders are complete
(otherwise the yaw estimate falls back to 0°).  Sensor streams repeat the
same layout on every frame and a vocabulary changes only on a deploy, so
the plan is built once per (layout, joint set) and kept in one
module-level table shared by every transformer.

The joint set is how the ``kinect_t`` view pushes a projection into the
transform: :meth:`KinectTransformer.project` turns the fields the view's
readers declared into the joints to compute, so a vocabulary reading only
the hands costs two joints, not fifteen.  The smoothing state, the yaw
estimate and the scale read the raw frame and never depend on the joint
set, and each emitted value is computed as it is for the full frame: a
projected frame equals the full one restricted to its keys, bit for bit.

The table is **bounded** (an ``lru_cache`` of :data:`_MAX_LAYOUT_PLANS`
entries): the gateway hands us frames whose key sets a client chooses, so
an unbounded table would be a memory leak an outsider controls.  A client
churning through layouts evicts only the least recently used plans, and a
rebuild costs about what one frame used to.  Plans are pure functions of
the layout and joint set — not transformer state, never captured or restored — so tenant
threads racing on the table can at worst build the same plan twice.

**Bit-identity.**  The kernel keeps the arithmetic of the step-by-step
formulation in its association order, so its output equals ::

    scale_coordinates(rotate_about_y(shift_to_torso(f), -estimate_yaw_deg(...)), ...)

plus the trailing ``scale`` field — same keys, same key order, same float
bits, same ``KeyError`` on a torso-less frame and ``ValueError`` on a
non-positive scale.  :func:`~repro.transform.coordinate.shift_to_torso`,
:func:`~repro.transform.rotation.estimate_yaw_deg`,
:func:`~repro.transform.rotation.rotate_about_y` and
:func:`~repro.transform.coordinate.scale_coordinates` are no longer on the
data path; they stay public as the executable reference the property test
in ``tests/test_transform.py`` compares the kernel against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import AbstractSet, Any, Callable, Dict, FrozenSet, Mapping, NamedTuple, Optional, Tuple

from repro.kinect.skeleton import JOINTS, TRACKED_AXES, all_joint_fields, joint_field
from repro.transform.coordinate import REFERENCE_FOREARM_MM, forearm_scale

#: How many frames pass between sweeps that evict idle partitions' smoothing
#: state.  Output-neutral: a partition idle past the TTL is reset on its next
#: own frame anyway; the sweep only reclaims memory earlier.
_EVICTION_SWEEP_FRAMES = 256

#: Upper bound of the layout-plan table.  A deployment sees a handful of
#: layouts (full skeleton, with/without ``player``, a few partial-tracking
#: shapes); the bound only matters against a client inventing key sets.
_MAX_LAYOUT_PLANS = 64


class _LayoutPlan(NamedTuple):
    """Everything :meth:`KinectTransformer.transform` derives from key names."""

    passthrough: Tuple[str, ...]
    triples: Tuple[Tuple[str, str, str], ...]
    shoulders_complete: bool


#: Each tracked joint with the ``(x, y, z)`` names of its fields, in ``JOINTS`` order.
_JOINT_TRIPLES: Tuple[Tuple[str, Tuple[str, str, str]], ...] = tuple(
    (joint, (joint_field(joint, "x"), joint_field(joint, "y"), joint_field(joint, "z")))
    for joint in JOINTS
)
_JOINT_FIELDS = frozenset(all_joint_fields())
#: The yaw estimate needs both shoulders, and a joint missing an axis is dropped.
_SHOULDER_FIELDS = frozenset(
    joint_field(joint, axis) for joint in ("lshoulder", "rshoulder") for axis in TRACKED_AXES
)
#: Joints a projected frame keeps whatever its readers read: a detection's
#: ``GestureEvent.measures`` reports both hands of the last matched tuple.
_ALWAYS_EMITTED = frozenset({"rhand", "lhand"})


@lru_cache(maxsize=_MAX_LAYOUT_PLANS)
def _layout_plan(layout: Tuple[str, ...], joints: Optional[FrozenSet[str]]) -> _LayoutPlan:
    """The plan of one key sequence (``tuple(frame)``) emitting ``joints``
    (``None``: every joint), built once and remembered."""
    present = set(layout)
    return _LayoutPlan(
        passthrough=tuple(key for key in layout if key not in _JOINT_FIELDS),
        triples=tuple(
            triple
            for joint, triple in _JOINT_TRIPLES
            if (joints is None or joint in joints) and present.issuperset(triple)
        ),
        shoulders_complete=present.issuperset(_SHOULDER_FIELDS),
    )


@dataclass(frozen=True)
class TransformConfig:
    """Configuration of the user-independent transformation.

    Attributes
    ----------
    align_orientation:
        Rotate the frame so the user's heading is cancelled.  The paper's
        demos assume the user roughly faces the camera; turning this on
        makes detection robust to the user being rotated.
    scale_side:
        Which forearm provides the scale factor (paper: right).
    scale_reference_mm:
        Transformed coordinates are expressed as if the user had a forearm
        of this length.  ``REFERENCE_FOREARM_MM`` keeps values in familiar
        millimetre ranges; ``1.0`` yields pure forearm units as in Fig. 3.
    smooth_scale:
        Exponential smoothing factor in ``[0, 1)`` applied to the per-frame
        forearm measurement; sensor noise on two joints otherwise makes the
        scale factor itself jitter.  ``0`` disables smoothing.
    partition_field:
        Frame field that keys the smoothing state (default ``"player"``).
        Each tracked player smooths against their own history only.  Frames
        missing the field share one slot; ``None`` keeps a single shared
        smoothing state for the whole stream (the single-user behaviour).
    partition_idle_seconds:
        Evict a player's smoothing state after this many seconds without a
        frame from them; their next frame starts from a fresh measurement.
        ``None`` keeps state forever (single long-lived user).
    timestamp_field:
        Frame field carrying the event time used for idle eviction.
    """

    align_orientation: bool = True
    scale_side: str = "right"
    scale_reference_mm: float = REFERENCE_FOREARM_MM
    smooth_scale: float = 0.8
    partition_field: Optional[str] = "player"
    partition_idle_seconds: Optional[float] = 30.0
    timestamp_field: str = "ts"

    def __post_init__(self) -> None:
        if self.scale_side not in ("right", "left"):
            raise ValueError("scale_side must be 'right' or 'left'")
        if not 0.0 <= self.smooth_scale < 1.0:
            raise ValueError("smooth_scale must be in [0, 1)")
        if self.scale_reference_mm <= 0:
            raise ValueError("scale_reference_mm must be positive")
        if self.partition_idle_seconds is not None and self.partition_idle_seconds <= 0:
            raise ValueError("partition_idle_seconds must be positive when given")


class KinectTransformer:
    """Stateful per-frame transformation into user-independent coordinates.

    The transformer is stateful only for scale smoothing — kept separately
    per tracked player (see :class:`TransformConfig`).  Two transformers
    with the same configuration and state, fed the same frames, emit the
    same bits, which is how the learning workflow records with a copy of
    the view's transformer (:meth:`capture_state` / :meth:`restore_state`)
    without ever advancing the view's own state.

    Examples
    --------
    >>> from repro.kinect import KinectSimulator
    >>> from repro.streams import SimulatedClock
    >>> sim = KinectSimulator(clock=SimulatedClock())
    >>> frame = sim.measure_rest()
    >>> transformer = KinectTransformer()
    >>> transformed = transformer.transform(frame)
    >>> abs(transformed["torso_x"]) < 1e-6
    True
    """

    def __init__(self, config: Optional[TransformConfig] = None) -> None:
        self.config = config or TransformConfig()
        self._scales: Dict[Any, float] = {}
        self._last_seen: Dict[Any, float] = {}
        self.frames_transformed = 0

    def reset(self) -> None:
        """Forget all smoothed scales (e.g. when the scene is re-populated)."""
        self._scales.clear()
        self._last_seen.clear()
        self.frames_transformed = 0

    def reset_partition(self, partition: Any) -> None:
        """Forget one player's smoothed scale (when a new user takes the id)."""
        self._scales.pop(partition, None)
        self._last_seen.pop(partition, None)

    @property
    def active_partitions(self) -> int:
        """Number of players currently holding smoothing state."""
        return len(self._scales)

    def smoothed_scale(self, partition: Any = None) -> Optional[float]:
        """Current smoothed forearm scale of one player (``None`` if unseen)."""
        return self._scales.get(partition)

    # -- state capture / restore --------------------------------------------------------

    def capture_state(self) -> Dict[str, Any]:
        """Snapshot the smoothing state as a JSON-serialisable dictionary.

        Partition keys are stored as ``[key, value]`` pairs (JSON objects
        only allow string keys, player ids are usually ints); the eviction
        sweep phase rides along in ``frames_transformed`` so a restored
        transformer sweeps on exactly the frames the original would have.
        """
        return {
            "kind": "kinect-transformer",
            "scales": [[key, scale] for key, scale in self._scales.items()],
            "last_seen": [[key, seen] for key, seen in self._last_seen.items()],
            "frames_transformed": self.frames_transformed,
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Replace the smoothing state with a :meth:`capture_state` snapshot."""
        if state.get("kind") != "kinect-transformer":
            from repro.errors import SerializationError

            raise SerializationError(
                f"cannot restore a KinectTransformer from a "
                f"{state.get('kind')!r} state blob"
            )
        self._scales = {key: float(scale) for key, scale in state["scales"]}
        self._last_seen = {key: float(seen) for key, seen in state["last_seen"]}
        self.frames_transformed = int(state["frames_transformed"])

    def _current_scale(self, frame: Mapping[str, float]) -> float:
        cfg = self.config
        key = frame.get(cfg.partition_field) if cfg.partition_field is not None else None
        timestamp = frame.get(cfg.timestamp_field)
        if timestamp is not None:
            timestamp = float(timestamp)
            ttl = cfg.partition_idle_seconds
            if ttl is not None:
                last = self._last_seen.get(key)
                if last is not None and timestamp - last > ttl:
                    # The player left and came back: their body may have
                    # changed (a different person took the id) — re-measure.
                    self._scales.pop(key, None)
                if self.frames_transformed % _EVICTION_SWEEP_FRAMES == 0:
                    self._evict_idle(timestamp, ttl)
            self._last_seen[key] = timestamp
        measured = forearm_scale(frame, side=cfg.scale_side)
        alpha = cfg.smooth_scale
        previous = self._scales.get(key)
        if alpha <= 0 or previous is None:
            smoothed = measured
        else:
            smoothed = alpha * previous + (1 - alpha) * measured
        self._scales[key] = smoothed
        return smoothed

    def _evict_idle(self, now: float, ttl: float) -> None:
        """Reclaim smoothing state of players idle longer than ``ttl``."""
        idle = [key for key, last in self._last_seen.items() if now - last > ttl]
        for key in idle:
            self._scales.pop(key, None)
            self._last_seen.pop(key, None)

    def project(
        self, reads: Optional[AbstractSet[str]]
    ) -> Callable[[Mapping[str, float]], Dict[str, float]]:
        """The transform a reader of the fields ``reads`` needs (``None``: all).

        The ``kinect_t`` view calls this when its readers change (see
        :class:`repro.cep.views.View`).  The returned function emits every
        non-joint field, ``scale``, both hands and each joint one of whose
        fields is in ``reads``, and advances this transformer's smoothing
        state exactly as :meth:`transform` does.
        """
        if reads is None:
            return self.transform
        joints = frozenset(
            joint
            for joint, triple in _JOINT_TRIPLES
            if joint in _ALWAYS_EMITTED or not reads.isdisjoint(triple)
        )
        if len(joints) == len(JOINTS):
            return self.transform
        transform = self.transform
        return lambda frame: transform(frame, joints)

    def transform(
        self, frame: Mapping[str, float], joints: Optional[FrozenSet[str]] = None
    ) -> Dict[str, float]:
        """Transform one raw sensor frame into the ``kinect_t`` frame.

        ``joints`` restricts the output to those joints' fields (plus every
        non-joint field and ``scale``); ``None`` emits every joint.  Raises
        ``KeyError`` when the frame has no torso coordinates and
        ``ValueError`` when the scale factor is not positive.
        """
        scale = self._current_scale(frame)
        passthrough, triples, shoulders_complete = _layout_plan(tuple(frame), joints)
        tx = frame["torso_x"]
        ty = frame["torso_y"]
        tz = frame["torso_z"]
        if scale <= 0:
            raise ValueError("scale factor must be positive")
        factor = self.config.scale_reference_mm / scale
        transformed: Dict[str, float] = {key: frame[key] for key in passthrough}
        if self.config.align_orientation:
            yaw = 0.0
            if shoulders_complete:
                dx = (frame["rshoulder_x"] - tx) - (frame["lshoulder_x"] - tx)
                dz = (frame["rshoulder_z"] - tz) - (frame["lshoulder_z"] - tz)
                if not (abs(dx) < 1e-9 and abs(dz) < 1e-9):
                    yaw = math.degrees(math.atan2(-dz, dx))
            # Rotate by ``-yaw`` even when it is 0: ``x + -0.0 * z`` is not
            # always the bit pattern of ``x``.
            angle = math.radians(-yaw)
            cos_a, sin_a = math.cos(angle), math.sin(angle)
            neg_sin_a = -sin_a
            for x_key, y_key, z_key in triples:
                x = frame[x_key] - tx
                z = frame[z_key] - tz
                transformed[x_key] = (cos_a * x + sin_a * z) * factor
                transformed[y_key] = (frame[y_key] - ty) * factor
                transformed[z_key] = (neg_sin_a * x + cos_a * z) * factor
        else:
            for x_key, y_key, z_key in triples:
                transformed[x_key] = (frame[x_key] - tx) * factor
                transformed[y_key] = (frame[y_key] - ty) * factor
                transformed[z_key] = (frame[z_key] - tz) * factor
        transformed["scale"] = scale
        self.frames_transformed += 1
        return transformed

    def __call__(self, frame: Mapping[str, float]) -> Dict[str, float]:
        return self.transform(frame)
