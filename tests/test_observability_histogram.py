"""Property tests of the mergeable log-linear latency histogram.

The load-bearing properties: the boundary ladder is fixed and shared, so
merge is associative, commutative and lossless (a merged histogram is
identical to the one a single observer would have recorded); percentile
estimates stay within the bucket edges of the true value; the Prometheus
rendering is a well-formed cumulative ``_bucket``/``_sum``/``_count``
family ending at ``le="+Inf"``.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left

import pytest

from repro.observability.histogram import BUCKET_BOUNDS, LatencyHistogram
from repro.observability.registry import Family, exposition
from repro.runtime.metrics import MetricsRegistry


def sample_batches(seed: int, batches: int = 4, size: int = 200):
    """Deterministic latency batches spanning the whole ladder."""
    rng = random.Random(seed)
    return [
        [rng.uniform(0.0, 60.0) * 10.0 ** rng.randint(-7, 0) for _ in range(size)]
        for _ in range(batches)
    ]


def recorded(samples) -> LatencyHistogram:
    histogram = LatencyHistogram()
    for value in samples:
        histogram.record(value)
    return histogram


class TestLadder:
    def test_ladder_is_1_2_5_per_decade(self):
        assert BUCKET_BOUNDS[0] == pytest.approx(1e-6)
        assert BUCKET_BOUNDS[-1] == pytest.approx(50.0)
        assert len(BUCKET_BOUNDS) == 24
        assert list(BUCKET_BOUNDS) == sorted(BUCKET_BOUNDS)

    def test_record_updates_count_sum_max(self):
        histogram = recorded([0.001, 0.002, 0.5])
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(0.503)
        assert histogram.max == pytest.approx(0.5)

    def test_negative_sample_clamps_to_zero(self):
        histogram = recorded([-1.0])
        assert histogram.count == 1
        assert histogram.sum == 0.0
        assert histogram.percentile(1.0) == 0.0

    def test_overflow_bucket_catches_beyond_ladder(self):
        histogram = recorded([120.0])
        assert histogram.bucket_pairs()[-1] == ("+Inf", 1)
        assert histogram.bucket_pairs()[-2][1] == 0


class TestPercentiles:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("quantile", [0.5, 0.9, 0.95, 0.99, 1.0])
    def test_estimate_within_true_values_bucket(self, seed, quantile):
        samples = [value for batch in sample_batches(seed) for value in batch]
        histogram = recorded(samples)
        ordered = sorted(samples)
        true_value = ordered[math.ceil(quantile * len(ordered)) - 1]
        estimate = histogram.percentile(quantile)
        assert estimate >= true_value
        index = bisect_left(BUCKET_BOUNDS, true_value)
        upper = BUCKET_BOUNDS[index] if index < len(BUCKET_BOUNDS) else histogram.max
        assert estimate <= upper

    def test_p100_is_clamped_to_exact_max(self):
        histogram = recorded([0.0011, 0.0013])
        assert histogram.percentile(1.0) == pytest.approx(0.0013)

    def test_empty_histogram_percentile_is_zero(self):
        assert LatencyHistogram().percentile(0.99) == 0.0

    @pytest.mark.parametrize("quantile", [0.0, -0.5, 1.5])
    def test_out_of_range_quantile_rejected(self, quantile):
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(quantile)


class TestMerge:
    def test_merge_is_commutative(self):
        a, b, *_ = (recorded(batch) for batch in sample_batches(7))
        assert LatencyHistogram.merged([a, b]) == LatencyHistogram.merged([b, a])

    def test_merge_is_associative(self):
        a, b, c, _ = (recorded(batch) for batch in sample_batches(11))
        left = LatencyHistogram.merged([LatencyHistogram.merged([a, b]), c])
        right = LatencyHistogram.merged([a, LatencyHistogram.merged([b, c])])
        assert left == right

    def test_merge_is_lossless_against_single_observer(self):
        batches = sample_batches(13)
        single = recorded([value for batch in batches for value in batch])
        merged = LatencyHistogram.merged([recorded(batch) for batch in batches])
        # Bucket counts and max merge exactly; the sum is float addition,
        # so grouping may differ in the last ulp.
        assert merged.to_state()["counts"] == single.to_state()["counts"]
        assert merged.max == single.max
        assert merged.sum == pytest.approx(single.sum, rel=1e-12)
        for quantile in (0.5, 0.95, 0.99, 1.0):
            assert merged.percentile(quantile) == single.percentile(quantile)

    def test_merge_accepts_states_from_json(self):
        a, b, *_ = (recorded(batch) for batch in sample_batches(17))
        state = json.loads(json.dumps(b.to_state()))
        merged = LatencyHistogram.merged([a, state])
        assert merged == LatencyHistogram.merged([a, b])

    def test_state_round_trip(self):
        original = recorded(sample_batches(19)[0])
        restored = LatencyHistogram.from_state(original.to_state())
        assert restored == original

    def test_state_from_other_ladder_rejected(self):
        state = recorded([0.1]).to_state()
        state["buckets"] = 12
        with pytest.raises(ValueError):
            LatencyHistogram.from_state(state)

    def test_state_with_torn_counts_rejected(self):
        state = recorded([0.1]).to_state()
        state["counts"] = state["counts"][:-1]
        with pytest.raises(ValueError):
            LatencyHistogram.from_state(state)

    def test_state_with_negative_count_rejected(self):
        state = recorded([0.1]).to_state()
        state["counts"][0] = -1
        with pytest.raises(ValueError):
            LatencyHistogram.from_state(state)



class TestSince:
    def test_since_is_the_later_samples_exactly(self):
        earlier_batch, later_batch, *_ = sample_batches(23)
        earlier = recorded(earlier_batch)
        total = recorded(earlier_batch + later_batch)
        recent = total.since(earlier)
        assert recent.to_state()["counts"] == recorded(later_batch).to_state()["counts"]
        assert recent.sum == pytest.approx(sum(later_batch), rel=1e-9)
        assert recent.percentile(0.99) >= recorded(later_batch).percentile(0.99)

    def test_max_is_the_top_grown_edge_not_an_old_burst(self):
        earlier = recorded([5.0])
        total = recorded([5.0, 0.0015])
        recent = total.since(earlier)
        assert recent.count == 1
        assert recent.max == 0.002
        assert recent.percentile(0.99) == 0.002

    def test_nothing_new_is_empty(self):
        total = recorded([0.1, 0.2])
        recent = total.since(recorded([0.1, 0.2]))
        assert recent.count == 0 and recent.max == 0.0

    def test_a_reset_source_yields_the_whole_histogram(self):
        assert recorded([0.1]).since(recorded([0.1, 0.2])) == recorded([0.1])
        assert recorded([0.1]).since(None) == recorded([0.1])


def parse_exposition(lines):
    """Parse histogram exposition lines into (buckets, sum, count)."""
    buckets, total_sum, count = [], None, None
    for line in lines:
        if line.startswith("#"):
            continue
        name_part, value = line.rsplit(" ", 1)
        name = name_part.split("{", 1)[0]
        if name.endswith("_bucket"):
            le = name_part.split('le="', 1)[1].split('"')[0]
            buckets.append((le, int(value)))
        elif name.endswith("_sum"):
            total_sum = float(value)
        elif name.endswith("_count"):
            count = int(value)
    return buckets, total_sum, count


class TestPrometheusRendering:
    def test_bucket_pairs_are_cumulative_and_end_at_inf(self):
        histogram = recorded(sample_batches(23)[0])
        pairs = histogram.bucket_pairs()
        counts = [count for _, count in pairs]
        assert counts == sorted(counts)
        assert pairs[-1] == ("+Inf", histogram.count)

    def test_exposition_parses_and_reconciles(self):
        histogram = recorded(sample_batches(29)[0])
        family = Family("test", "repro_test_seconds", "histogram", "A test histogram.")
        lines = exposition([(family, {"shard": "0"}, histogram)]).splitlines()
        assert "# TYPE repro_test_seconds histogram" in lines
        buckets, total_sum, count = parse_exposition(lines)
        assert buckets[-1][0] == "+Inf"
        assert buckets[-1][1] == count == histogram.count
        assert [c for _, c in buckets] == sorted(c for _, c in buckets)
        assert total_sum == pytest.approx(histogram.sum, rel=1e-6)
        # Every finite edge parses as a float and the list ascends.
        edges = [float(le) for le, _ in buckets[:-1]]
        assert edges == sorted(edges)

    def test_registry_renders_all_pipeline_families(self):
        registry = MetricsRegistry()
        registry.shard(0).observe("queue_wait", 0.002)
        registry.shard(0).observe("batch_processing", 0.004)
        registry.histogram("ingest_to_detection").record(0.006)
        registry.durability.observe("fsync", 0.001)
        text = registry.to_prometheus()
        for family in (
            "repro_queue_wait_seconds",
            "repro_batch_processing_seconds",
            "repro_ingest_to_detection_seconds",
            "repro_fsync_seconds",
        ):
            assert f"{family}_bucket" in text
            assert f"{family}_sum" in text
            assert f"{family}_count" in text
        assert 'le="+Inf"' in text

    def test_snapshot_histograms_survive_json(self):
        registry = MetricsRegistry()
        registry.shard(0).observe("queue_wait", 0.002)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert snapshot["histograms"]["queue_wait"]["count"] == 1
