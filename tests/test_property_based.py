"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.cep.expressions import abs_diff_predicate
from repro.cep.parser import parse_expression, parse_query
from repro.core.distance import EuclideanDistance, ManhattanDistance
from repro.core.merging import align_centers
from repro.core.sampling import DistanceBasedSampler, SamplingConfig
from repro.core.windows import Window
from repro.evaluation.metrics import f1_score, precision, recall
from repro.observability.histogram import LatencyHistogram
from repro.transform.coordinate import scale_coordinates, shift_to_torso
from repro.transform.rotation import rotate_about_y

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

coordinate = st.floats(min_value=-2000.0, max_value=2000.0,
                       allow_nan=False, allow_infinity=False)
positive_width = st.floats(min_value=1.0, max_value=500.0,
                           allow_nan=False, allow_infinity=False)

point_xyz = st.fixed_dictionaries(
    {"rhand_x": coordinate, "rhand_y": coordinate, "rhand_z": coordinate}
)


@st.composite
def windows(draw):
    fields = draw(st.lists(st.sampled_from(["rhand_x", "rhand_y", "rhand_z", "lhand_x"]),
                           min_size=1, max_size=4, unique=True))
    center = {name: draw(coordinate) for name in fields}
    width = {name: draw(positive_width) for name in fields}
    return Window(center=center, width=width)


@st.composite
def paths(draw):
    """A monotone 1D movement path with timestamps at 30 Hz."""
    steps = draw(st.lists(st.floats(min_value=0.0, max_value=60.0,
                                    allow_nan=False, allow_infinity=False),
                          min_size=2, max_size=120))
    frames = []
    position = 0.0
    for index, step in enumerate(steps):
        position += step
        frames.append({"rhand_x": position, "rhand_y": 0.0, "rhand_z": 0.0,
                       "ts": index / 30.0})
    return frames


# ---------------------------------------------------------------------------
# Window invariants
# ---------------------------------------------------------------------------


@given(windows())
def test_window_center_is_always_contained(window):
    assert window.contains(window.center)


@given(windows(), st.floats(min_value=1.01, max_value=5.0))
def test_scaling_up_never_loses_points(window, factor):
    scaled = window.scaled(factor)
    # Any point inside the original window stays inside the scaled window.
    assert scaled.contains(window.center)
    for name in window.center:
        edge_point = dict(window.center)
        edge_point[name] = window.center[name] + 0.99 * window.width[name]
        assert scaled.contains(edge_point)


@given(windows(), windows())
def test_merged_window_covers_both_extents(first, second):
    merged = first.merged_with(second)
    for window in (first, second):
        for name in window.center:
            assert merged.lower(name) <= window.lower(name) + 1e-9
            assert merged.upper(name) >= window.upper(name) - 1e-9
            assert merged.lower(name) < window.center[name] < merged.upper(name)


@given(windows())
def test_intersection_with_self_is_full(window):
    assert window.intersects(window)
    assert window.intersection_volume_ratio(window) == 1.0


@given(windows(), windows())
def test_intersects_is_symmetric(first, second):
    assert first.intersects(second) == second.intersects(first)


@given(st.lists(point_xyz, min_size=1, max_size=30))
def test_mbr_from_points_contains_midpoints(points):
    window = Window.from_points(points, fields=["rhand_x", "rhand_y", "rhand_z"],
                                min_width=1.0)
    for point in points:
        # from_points uses half-extents; every source point is within the MBR
        # bounds (inclusive), so distance_from must report (near) zero excess.
        assert window.distance_from(point) <= 1e-9


@given(windows(), point_xyz)
def test_distance_from_zero_iff_contained(window, point):
    point = {name: point.get(name, 0.0) for name in window.center}
    if window.contains(point):
        assert window.distance_from(point) == 0.0
    else:
        assert window.distance_from(point) >= 0.0


# ---------------------------------------------------------------------------
# Predicate generation invariants
# ---------------------------------------------------------------------------


@given(coordinate, positive_width, coordinate)
def test_abs_diff_predicate_equivalent_to_window_check(center, width, value):
    expression = abs_diff_predicate("rhand_x", center, width)
    expected = abs(value - center) < width
    assert expression.evaluate({"rhand_x": value}) == expected


@given(coordinate, positive_width)
def test_generated_predicate_text_parses_back(center, width):
    expression = abs_diff_predicate("rhand_x", round(center, 3), round(width, 3) + 1.0)
    reparsed = parse_expression(expression.to_query())
    for value in (center - width, center, center + width / 2.0):
        assert reparsed.evaluate({"rhand_x": value}) == expression.evaluate({"rhand_x": value})


# ---------------------------------------------------------------------------
# Distance metric invariants
# ---------------------------------------------------------------------------


@given(point_xyz, point_xyz)
def test_euclidean_is_symmetric_and_nonnegative(first, second):
    metric = EuclideanDistance(["rhand_x", "rhand_y", "rhand_z"])
    assert metric(first, second) >= 0.0
    assert math.isclose(metric(first, second), metric(second, first), rel_tol=1e-9)


@given(point_xyz)
def test_distance_to_self_is_zero(point):
    metric = EuclideanDistance(["rhand_x", "rhand_y", "rhand_z"])
    assert metric(point, point) == 0.0


@given(point_xyz, point_xyz, point_xyz)
def test_euclidean_triangle_inequality(a, b, c):
    metric = EuclideanDistance(["rhand_x", "rhand_y", "rhand_z"])
    assert metric(a, c) <= metric(a, b) + metric(b, c) + 1e-6


@given(point_xyz, point_xyz)
def test_manhattan_upper_bounds_euclidean(first, second):
    fields = ["rhand_x", "rhand_y", "rhand_z"]
    assert ManhattanDistance(fields)(first, second) >= EuclideanDistance(fields)(first, second) - 1e-9


# ---------------------------------------------------------------------------
# Sampling invariants
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(paths(), st.floats(min_value=0.05, max_value=0.5))
def test_sampling_pose_count_bounds(frames, threshold):
    sampler = DistanceBasedSampler(
        SamplingConfig(fields=("rhand_x", "rhand_y", "rhand_z"),
                       relative_threshold=threshold)
    )
    sampled = sampler.sample(frames)
    assert 1 <= sampled.pose_count <= len(frames)
    # Sequence indices are consecutive and ordered.
    assert [p.sequence_index for p in sampled.points] == list(range(sampled.pose_count))
    # Pose centres never leave the observed coordinate range.
    xs = [frame["rhand_x"] for frame in frames]
    for point in sampled.points:
        assert min(xs) - 1e-6 <= point.center["rhand_x"] <= max(xs) + 1e-6


@settings(max_examples=50, deadline=None)
@given(paths())
def test_sampling_threshold_monotonicity(frames):
    """A larger threshold never yields more characteristic points."""
    fields = ("rhand_x", "rhand_y", "rhand_z")
    fine = DistanceBasedSampler(SamplingConfig(fields=fields, relative_threshold=0.05))
    coarse = DistanceBasedSampler(SamplingConfig(fields=fields, relative_threshold=0.4))
    assert coarse.sample(frames).pose_count <= fine.sample(frames).pose_count


@given(st.lists(st.fixed_dictionaries({"x": coordinate}), min_size=1, max_size=20),
       st.integers(min_value=1, max_value=25))
def test_align_centers_length_and_endpoints(centers, target):
    aligned = align_centers(centers, target)
    assert len(aligned) == target
    assert aligned[0]["x"] == centers[0]["x"]
    if target >= 2:
        # With at least two target positions the last aligned point must land
        # on the last source centroid (target == 1 keeps only the first).
        assert math.isclose(aligned[-1]["x"], centers[-1]["x"], rel_tol=1e-9, abs_tol=1e-9)
    # Aligned values never leave the source range (linear interpolation).
    xs = [c["x"] for c in centers]
    for point in aligned:
        assert min(xs) - 1e-9 <= point["x"] <= max(xs) + 1e-9


# ---------------------------------------------------------------------------
# Transformation invariants
# ---------------------------------------------------------------------------


@given(point_xyz, coordinate, coordinate, coordinate)
def test_torso_shift_is_translation_invariant(hand, dx, dy, dz):
    frame = {
        "torso_x": 0.0, "torso_y": 0.0, "torso_z": 0.0,
        "rhand_x": hand["rhand_x"], "rhand_y": hand["rhand_y"], "rhand_z": hand["rhand_z"],
    }
    moved = {key: value + {"_x": dx, "_y": dy, "_z": dz}[key[-2:]] for key, value in frame.items()}
    original = shift_to_torso(frame)
    shifted = shift_to_torso(moved)
    for axis in ("x", "y", "z"):
        assert math.isclose(
            original[f"rhand_{axis}"], shifted[f"rhand_{axis}"], rel_tol=1e-9, abs_tol=1e-6
        )


@given(point_xyz, st.floats(min_value=-180.0, max_value=180.0,
                            allow_nan=False, allow_infinity=False))
def test_rotation_preserves_distance_from_origin(point, angle):
    rotated = rotate_about_y(point, angle)
    original_norm = math.sqrt(sum(value * value for value in point.values()))
    rotated_norm = math.sqrt(sum(rotated[k] ** 2 for k in point))
    assert math.isclose(original_norm, rotated_norm, rel_tol=1e-9, abs_tol=1e-6)


@given(point_xyz, st.floats(min_value=50.0, max_value=500.0))
def test_scaling_preserves_ratios(point, scale):
    scaled = scale_coordinates(point, scale, reference=100.0)
    for key, value in point.items():
        assert math.isclose(scaled[key], value * 100.0 / scale, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# Metric invariants
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=1000),
       st.integers(min_value=0, max_value=1000))
def test_precision_recall_f1_ranges(tp, fp, fn):
    p = precision(tp, fp)
    r = recall(tp, fn)
    f = f1_score(p, r)
    assert 0.0 <= p <= 1.0
    assert 0.0 <= r <= 1.0
    assert 0.0 <= f <= 1.0
    assert f <= max(p, r) + 1e-9


@given(st.lists(st.floats(min_value=0.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False), min_size=1, max_size=200))
def test_histogram_percentiles_are_ordered(samples):
    histogram = LatencyHistogram()
    for sample in samples:
        histogram.record(sample)
    p50, p95, p99 = (histogram.percentile(q) for q in (0.50, 0.95, 0.99))
    assert min(samples) <= histogram.max
    assert p50 <= p95 <= p99 <= histogram.max == max(samples)
    assert histogram.percentile(1.0) == histogram.max
    assert histogram.count == len(samples)
    assert histogram.sum / histogram.count <= histogram.max + 1e-9


# ---------------------------------------------------------------------------
# Parser round-trip on generated queries
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(coordinate, positive_width), min_size=1, max_size=5),
       st.floats(min_value=0.5, max_value=5.0))
def test_query_round_trip_preserves_structure(poses, within):
    from repro.cep.expressions import BooleanOp
    from repro.cep.query import EventPattern, Query, SequencePattern

    events = [
        EventPattern(
            stream="kinect_t",
            predicate=BooleanOp.conjunction([
                abs_diff_predicate("rhand_x", round(center, 1), round(width, 1) + 1.0),
                abs_diff_predicate("rhand_y", round(center / 2, 1), round(width, 1) + 1.0),
            ]),
        )
        for center, width in poses
    ]
    query = Query(output="gesture", pattern=SequencePattern(
        elements=tuple(events), within_seconds=round(within, 2)))
    reparsed = parse_query(query.to_query())
    assert reparsed.event_count() == len(poses)
    assert reparsed.predicate_count() == 2 * len(poses)
    assert math.isclose(reparsed.pattern.within_seconds, round(within, 2), rel_tol=1e-9)
