"""Window merging across samples (paper Sec. 3.3.2).

Repetitions of the same gesture never produce identical paths, so the
characteristic points mined from each sample must be merged into one
description "general enough to detect all of them".  The paper does this by
computing minimal bounding rectangles (MBRs) around all cluster centroids
with the same sequence number, incrementally as samples arrive, and warns
"where a new sample differs too much from previously recorded ones".

Samples may also yield *different numbers* of characteristic points (a
slightly faster performance produces fewer clusters); before MBRs can be
computed per sequence position the point sequences are aligned by linear
resampling onto a common length — the pose count of the first sample, which
acts as the reference.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.description import GestureDescription
from repro.core.sampling import SampledPath
from repro.core.windows import PoseWindow, Window
from repro.errors import IncompatibleSampleError, SampleDeviationWarning


@dataclass
class MergeConfig:
    """Configuration of the incremental window merger.

    Attributes
    ----------
    min_width_mm:
        Lower bound on window widths.  Even if all samples agree perfectly,
        sensor noise requires a minimum tolerance (the paper's example
        queries use 50 mm windows).
    padding_mm:
        Extra width added to every dimension after the MBR is computed,
        absorbing sensor noise beyond what the samples themselves showed.
    scale_factor:
        Multiplier applied to all window widths as the generalisation step
        ("another scaling step can be performed by increasing the
        rectangles' width") — the knob whose excess causes the overlapping
        problem studied in the validation benchmarks.
    deviation_warning_factor:
        A new sample whose characteristic points lie further outside the
        current windows than this many window-widths triggers a
        :class:`~repro.errors.SampleDeviationWarning`.
    emit_warnings:
        Whether deviation warnings are raised through the ``warnings``
        module (they are always recorded in the :class:`MergeResult`).
    """

    min_width_mm: float = 50.0
    padding_mm: float = 10.0
    scale_factor: float = 1.0
    deviation_warning_factor: float = 1.5
    emit_warnings: bool = True

    def __post_init__(self) -> None:
        if self.min_width_mm <= 0:
            raise ValueError("min_width_mm must be positive")
        if self.padding_mm < 0:
            raise ValueError("padding_mm must be non-negative")
        if self.scale_factor <= 0:
            raise ValueError("scale_factor must be positive")
        if self.deviation_warning_factor <= 0:
            raise ValueError("deviation_warning_factor must be positive")


@dataclass
class MergeResult:
    """Outcome of adding one sample to the merged description."""

    sample_index: int
    pose_count: int
    deviation: float
    warnings: List[str] = field(default_factory=list)

    @property
    def accepted(self) -> bool:
        """Merging never rejects a sample; warnings signal review is needed."""
        return True


class WindowMerger:
    """Incrementally merges sampled gesture paths into pose windows."""

    def __init__(self, name: str, config: Optional[MergeConfig] = None) -> None:
        if not name:
            raise ValueError("the merger needs a gesture name")
        self.name = name
        self.config = config or MergeConfig()
        self._samples: List[SampledPath] = []
        self._aligned_centers: List[List[Dict[str, float]]] = []
        self._fields: Optional[Tuple[str, ...]] = None
        self._reference_length: Optional[int] = None

    # -- properties ----------------------------------------------------------------

    @property
    def sample_count(self) -> int:
        return len(self._samples)

    @property
    def reference_length(self) -> Optional[int]:
        """Pose count of the reference (first) sample."""
        return self._reference_length

    # -- merging --------------------------------------------------------------------

    def add_sample(self, path: SampledPath) -> MergeResult:
        """Merge one sampled path into the gesture description.

        Raises
        ------
        IncompatibleSampleError
            If the sample constrains different fields than earlier samples
            or contains no characteristic points.
        """
        if not path.points:
            raise IncompatibleSampleError("sample produced no characteristic points")
        if self._fields is None:
            self._fields = path.fields
            self._reference_length = path.pose_count
        elif set(path.fields) != set(self._fields):
            raise IncompatibleSampleError(
                f"sample tracks fields {sorted(path.fields)} but the gesture "
                f"'{self.name}' was started with {sorted(self._fields)}"
            )

        assert self._reference_length is not None
        aligned = align_centers(path.centers(), self._reference_length)

        result = MergeResult(
            sample_index=len(self._samples),
            pose_count=self._reference_length,
            deviation=0.0,
        )
        if self._samples:
            deviation = self._measure_deviation(aligned)
            result.deviation = deviation
            if deviation > self.config.deviation_warning_factor:
                message = (
                    f"sample {result.sample_index} of gesture '{self.name}' deviates "
                    f"{deviation:.2f} window-widths from the learned windows; "
                    "consider re-recording it"
                )
                result.warnings.append(message)
                if self.config.emit_warnings:
                    warnings.warn(message, SampleDeviationWarning, stacklevel=2)

        self._samples.append(path)
        self._aligned_centers.append(aligned)
        return result

    def _measure_deviation(self, aligned: Sequence[Mapping[str, float]]) -> float:
        """Worst-case distance of the new sample's points from current windows."""
        current = self._build_windows()
        worst = 0.0
        for pose, point in zip(current, aligned):
            worst = max(worst, pose.window.distance_from(point))
        return worst

    # -- description construction -----------------------------------------------------

    def _build_windows(self) -> List[PoseWindow]:
        assert self._fields is not None and self._reference_length is not None
        poses: List[PoseWindow] = []
        for index in range(self._reference_length):
            points = [centers[index] for centers in self._aligned_centers]
            spreads = self._spreads_for(index)
            window = Window.from_points(
                points, fields=self._fields, min_width=self.config.min_width_mm
            )
            window = window.expanded(
                {
                    name: spreads.get(name, 0.0) + self.config.padding_mm
                    for name in self._fields
                }
            )
            if self.config.scale_factor != 1.0:
                window = window.scaled(self.config.scale_factor)
            poses.append(
                PoseWindow(
                    sequence_index=index,
                    window=window,
                    support=len(self._aligned_centers),
                )
            )
        return poses

    def _spreads_for(self, index: int) -> Dict[str, float]:
        """Largest in-cluster spread observed at this sequence position.

        Aligned positions may fall between two characteristic points of a
        sample; the nearest original point's spread is used.
        """
        assert self._fields is not None and self._reference_length is not None
        spreads: Dict[str, float] = {name: 0.0 for name in self._fields}
        for path in self._samples:
            source_index = _nearest_source_index(
                index, self._reference_length, path.pose_count
            )
            point = path.points[source_index]
            for name in self._fields:
                spreads[name] = max(spreads[name], point.spread.get(name, 0.0))
        return spreads

    def description(self) -> GestureDescription:
        """Return the merged gesture description (current snapshot)."""
        if not self._samples:
            raise IncompatibleSampleError(
                f"gesture '{self.name}' has no samples to describe"
            )
        durations = [path.duration_s for path in self._samples if path.duration_s > 0]
        mean_duration = sum(durations) / len(durations) if durations else 0.0
        max_duration = max(durations) if durations else 0.0
        joints = sorted({name.rsplit("_", 1)[0] for name in (self._fields or ())})
        return GestureDescription(
            name=self.name,
            poses=self._build_windows(),
            joints=joints,
            sample_count=len(self._samples),
            mean_duration_s=mean_duration,
            max_duration_s=max_duration,
            metadata={
                "min_width_mm": self.config.min_width_mm,
                "padding_mm": self.config.padding_mm,
                "scale_factor": self.config.scale_factor,
            },
        )

    def reset(self) -> None:
        """Forget all samples (start the gesture over)."""
        self._samples.clear()
        self._aligned_centers.clear()
        self._fields = None
        self._reference_length = None


# ---------------------------------------------------------------------------
# Alignment helpers
# ---------------------------------------------------------------------------


def align_centers(
    centers: Sequence[Mapping[str, float]],
    target_length: int,
) -> List[Dict[str, float]]:
    """Resample a centroid sequence onto ``target_length`` positions.

    Linear interpolation along the normalised sequence position maps a
    sample with more or fewer characteristic points onto the reference
    sample's pose count, so MBRs can be computed per position.
    """
    if target_length < 1:
        raise ValueError("target length must be at least 1")
    if not centers:
        raise ValueError("cannot align an empty centroid sequence")
    source_length = len(centers)
    if source_length == target_length:
        return [dict(center) for center in centers]
    if source_length == 1:
        return [dict(centers[0]) for _ in range(target_length)]

    aligned: List[Dict[str, float]] = []
    for index in range(target_length):
        if target_length == 1:
            position = 0.0
        else:
            position = index * (source_length - 1) / (target_length - 1)
        low = int(position)
        high = min(low + 1, source_length - 1)
        fraction = position - low
        point: Dict[str, float] = {}
        for name in centers[0]:
            low_value = float(centers[low][name])
            high_value = float(centers[high][name])
            point[name] = low_value + (high_value - low_value) * fraction
        aligned.append(point)
    return aligned


def _nearest_source_index(index: int, target_length: int, source_length: int) -> int:
    """Index into the source closest to aligned position ``index``."""
    if target_length <= 1 or source_length <= 1:
        return 0
    position = index * (source_length - 1) / (target_length - 1)
    return min(source_length - 1, int(round(position)))
