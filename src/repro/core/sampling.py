"""Distance-based sampling of gesture paths (paper Sec. 3.3.1).

The Kinect delivers 30 frames per second, so a two-second gesture is ~60
measurements.  Using each of them as a pose would both blow up the CEP
pattern and overfit the specific training performance.  The paper therefore
extracts only *characteristic points* with a technique "comparable to
density-based clustering":

* the first tuple becomes the initial cluster centroid and the reference
  for distance computations,
* subsequent tuples are assigned to the current cluster,
* as soon as a tuple's distance from the reference exceeds ``max_dist``, a
  new cluster is started with that tuple as the new reference,
* the distance threshold can be given absolutely or relative to the total
  deviation observed along the whole path ("at least x% of the total
  deviation observed").

The output is a :class:`SampledPath` — an ordered list of
:class:`CharacteristicPoint` objects, each recording its centroid, extent,
support and time span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.distance import DistanceMetric, EuclideanDistance
from repro.errors import EmptySampleError


@dataclass
class SamplingConfig:
    """Configuration of the distance-based sampler.

    Attributes
    ----------
    fields:
        Coordinate fields the distance is computed over (typically the
        coordinates of the gesture's moving joints).
    max_dist:
        Absolute distance threshold.  When ``None`` the threshold is derived
        from the path: ``relative_threshold × total path deviation``.
    relative_threshold:
        Fraction of the total observed deviation used when ``max_dist`` is
        not given.  The paper's "at least x% of the total deviation".
    metric:
        Distance metric; defaults to Euclidean distance over ``fields``.
    min_cluster_size:
        Clusters with fewer frames are dropped (isolated outliers).  The
        first and last cluster are always kept — they anchor the gesture's
        start and end pose.
    timestamp_field:
        Name of the field carrying the frame time.
    """

    fields: Tuple[str, ...] = ()
    max_dist: Optional[float] = None
    relative_threshold: float = 0.12
    metric: Optional[DistanceMetric] = None
    min_cluster_size: int = 1
    timestamp_field: str = "ts"

    def __post_init__(self) -> None:
        if self.max_dist is not None and self.max_dist <= 0:
            raise ValueError("max_dist must be positive when given")
        if not 0.0 < self.relative_threshold <= 1.0:
            raise ValueError("relative_threshold must be in (0, 1]")
        if self.min_cluster_size < 1:
            raise ValueError("min_cluster_size must be at least 1")

    def resolve_metric(self) -> DistanceMetric:
        if self.metric is not None:
            return self.metric
        if not self.fields:
            raise ValueError("either a metric or a field list must be provided")
        return EuclideanDistance(self.fields)


@dataclass
class CharacteristicPoint:
    """One cluster of the sampled gesture path.

    Attributes
    ----------
    sequence_index:
        Position of the cluster along the gesture (0-based).
    center:
        Per-field mean of the frames assigned to the cluster.
    spread:
        Per-field half-extent (max deviation of cluster members from the
        centre); gives the merger a lower bound on window widths.
    count:
        Number of frames in the cluster.
    first_ts / last_ts:
        Time span covered by the cluster.
    """

    sequence_index: int
    center: Dict[str, float]
    spread: Dict[str, float]
    count: int
    first_ts: float
    last_ts: float

    def __repr__(self) -> str:
        coords = ", ".join(f"{k}={v:.0f}" for k, v in sorted(self.center.items()))
        return f"CharacteristicPoint(#{self.sequence_index}, {coords}, n={self.count})"


@dataclass
class SampledPath:
    """The result of sampling one recorded gesture sample."""

    points: List[CharacteristicPoint]
    fields: Tuple[str, ...]
    total_deviation: float
    threshold_used: float
    frame_count: int
    duration_s: float

    @property
    def pose_count(self) -> int:
        return len(self.points)

    def centers(self) -> List[Dict[str, float]]:
        """The centroid sequence (used for alignment and merging)."""
        return [dict(point.center) for point in self.points]

    def __repr__(self) -> str:
        return (
            f"SampledPath(poses={self.pose_count}, frames={self.frame_count}, "
            f"deviation={self.total_deviation:.0f}, threshold={self.threshold_used:.0f})"
        )


class DistanceBasedSampler:
    """Extracts characteristic points from one gesture sample."""

    def __init__(self, config: SamplingConfig) -> None:
        self.config = config
        self.metric = config.resolve_metric()

    # -- public API ----------------------------------------------------------------

    def total_deviation(self, frames: Sequence[Mapping[str, float]]) -> float:
        """Sum of successive distances along the path (its "total deviation")."""
        if len(frames) < 2:
            return 0.0
        return sum(
            self.metric.distance(frames[index - 1], frames[index])
            for index in range(1, len(frames))
        )

    def resolve_threshold(self, frames: Sequence[Mapping[str, float]]) -> float:
        """The distance threshold used for ``frames``.

        Either the configured absolute ``max_dist`` or the relative fraction
        of the total path deviation.
        """
        if self.config.max_dist is not None:
            return self.config.max_dist
        deviation = self.total_deviation(frames)
        if deviation <= 0:
            # A degenerate (stationary) sample: any positive threshold works.
            return 1.0
        return self.config.relative_threshold * deviation

    def sample(self, frames: Sequence[Mapping[str, float]]) -> SampledPath:
        """Run distance-based sampling over one recorded sample.

        Raises
        ------
        EmptySampleError
            If ``frames`` is empty.
        """
        if not frames:
            raise EmptySampleError("cannot sample an empty recording")
        threshold = self.resolve_threshold(frames)
        ts_field = self.config.timestamp_field

        clusters: List[List[Mapping[str, float]]] = []
        reference = frames[0]
        current: List[Mapping[str, float]] = [frames[0]]
        for frame in frames[1:]:
            if self.metric.distance(reference, frame) > threshold:
                clusters.append(current)
                reference = frame
                current = [frame]
            else:
                current.append(frame)
        clusters.append(current)

        clusters = self._drop_small_clusters(clusters)
        points = [
            self._summarise(index, cluster, ts_field)
            for index, cluster in enumerate(clusters)
        ]
        duration = 0.0
        if len(frames) > 1 and ts_field in frames[0] and ts_field in frames[-1]:
            duration = float(frames[-1][ts_field]) - float(frames[0][ts_field])
        return SampledPath(
            points=points,
            fields=tuple(self.metric.fields),
            total_deviation=self.total_deviation(frames),
            threshold_used=threshold,
            frame_count=len(frames),
            duration_s=duration,
        )

    # -- internals ------------------------------------------------------------------

    def _drop_small_clusters(
        self, clusters: List[List[Mapping[str, float]]]
    ) -> List[List[Mapping[str, float]]]:
        if self.config.min_cluster_size <= 1 or len(clusters) <= 2:
            return clusters
        kept: List[List[Mapping[str, float]]] = []
        last_index = len(clusters) - 1
        for index, cluster in enumerate(clusters):
            if index in (0, last_index) or len(cluster) >= self.config.min_cluster_size:
                kept.append(cluster)
        return kept

    def _summarise(
        self,
        index: int,
        cluster: Sequence[Mapping[str, float]],
        ts_field: str,
    ) -> CharacteristicPoint:
        center: Dict[str, float] = {}
        spread: Dict[str, float] = {}
        for name in self.metric.fields:
            values = [float(frame[name]) for frame in cluster if name in frame]
            if not values:
                continue
            mean = sum(values) / len(values)
            center[name] = mean
            spread[name] = max(abs(value - mean) for value in values)
        timestamps = [float(frame[ts_field]) for frame in cluster if ts_field in frame]
        first_ts = min(timestamps) if timestamps else 0.0
        last_ts = max(timestamps) if timestamps else 0.0
        return CharacteristicPoint(
            sequence_index=index,
            center=center,
            spread=spread,
            count=len(cluster),
            first_ts=first_ts,
            last_ts=last_ts,
        )
