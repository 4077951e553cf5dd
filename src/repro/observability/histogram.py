"""Mergeable log-linear latency histograms with fixed bucket boundaries.

Every histogram in the repository shares one immutable boundary ladder: a
1–2–5 log-linear progression from 1 µs to 50 s (24 finite upper edges
plus the overflow bucket).  Fixing the boundaries is the whole design:
two histograms recorded independently — on different threads, or on the
two sides of the process-shard pickle boundary — merge by element-wise
addition of their bucket counts, with no re-bucketing and no loss.  Merge
is therefore associative and commutative, and a merged histogram is
byte-identical to the histogram that a single observer would have
recorded (property-tested in ``tests/test_observability_histogram.py``).

Counts are exact; percentiles are estimated as the upper edge of the
bucket containing the requested rank, clamped to the observed maximum —
so an estimate is always within the edges of the true value's bucket.

Instances are *not* internally locked: each hot-path writer owns its own
histogram (one per shard worker, one per event log, one per gateway
loop), and readers take :meth:`to_state` copies which are atomic enough
under the GIL (the counts list is copied in one C-level operation; a
reader can at worst observe a count that lags ``sum`` by one in-flight
sample, never a torn bucket list).
"""

from __future__ import annotations

from bisect import bisect_left
from math import ceil, inf
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = ["BUCKET_BOUNDS", "LatencyHistogram"]

#: Finite upper bucket edges, seconds: 1-2-5 per decade, 1 µs .. 50 s.
BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    round(base * 10.0**exponent, 9)
    for exponent in range(-6, 2)
    for base in (1, 2, 5)
)

_N_BUCKETS = len(BUCKET_BOUNDS) + 1  # + overflow (le="+Inf")

State = Mapping[str, object]


class LatencyHistogram:
    """One latency distribution: exact bucket counts, sum, and max."""

    __slots__ = ("_counts", "_sum", "_max")

    def __init__(self) -> None:
        self._counts: List[int] = [0] * _N_BUCKETS
        self._sum = 0.0
        self._max = 0.0

    # -- recording ---------------------------------------------------------------------

    def record(self, seconds: float) -> None:
        """Record one latency sample (negative samples clamp to zero)."""
        if seconds < 0.0:
            seconds = 0.0
        self._counts[bisect_left(BUCKET_BOUNDS, seconds)] += 1
        self._sum += seconds
        if seconds > self._max:
            self._max = seconds

    # -- readers -----------------------------------------------------------------------

    @property
    def count(self) -> int:
        return sum(self._counts)

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def max(self) -> float:
        return self._max

    def percentile(self, quantile: float) -> float:
        """Upper-edge estimate of the given quantile (0 < q <= 1).

        Returns the upper boundary of the bucket holding the sample of
        rank ``ceil(q * count)``, clamped to the observed maximum (which
        is exact).  Zero when the histogram is empty.
        """
        if not 0.0 < quantile <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {quantile!r}")
        total = sum(self._counts)
        if total == 0:
            return 0.0
        rank = ceil(quantile * total)
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if index < len(BUCKET_BOUNDS):
                    return min(BUCKET_BOUNDS[index], self._max)
                return self._max
        return self._max  # unreachable; keeps the checker honest

    def summary(self) -> Dict[str, float]:
        """Plain-number digest for JSON snapshots and log lines."""
        total = sum(self._counts)
        return {
            "count": total,
            "sum_seconds": round(self._sum, 9),
            "p50_seconds": round(self.percentile(0.50), 9),
            "p95_seconds": round(self.percentile(0.95), 9),
            "p99_seconds": round(self.percentile(0.99), 9),
            "max_seconds": round(self._max, 9),
        }

    def bucket_pairs(self) -> List[Tuple[str, int]]:
        """Cumulative ``(le, count)`` pairs, ending with ``("+Inf", count)``.

        This is exactly the series a Prometheus ``_bucket`` family wants;
        the caller renders the label and adds ``_sum`` / ``_count``.
        """
        pairs: List[Tuple[str, int]] = []
        cumulative = 0
        for bound, bucket_count in zip(BUCKET_BOUNDS, self._counts):
            cumulative += bucket_count
            pairs.append((_format_bound(bound), cumulative))
        cumulative += self._counts[-1]
        pairs.append(("+Inf", cumulative))
        return pairs

    def since(self, earlier: Optional["LatencyHistogram"]) -> "LatencyHistogram":
        """The samples recorded after ``earlier``, an older reading of this
        distribution (``None``: every sample).

        Bucket counts and sum are exact differences, since the edges are
        fixed; the max is the upper edge of the highest bucket that grew,
        clamped to :attr:`max`.  A reading whose counts went down (its
        source restarted) yields the whole histogram, as a counter reset
        does.
        """
        recent = LatencyHistogram.merged([self])
        if earlier is not None:
            counts = [now - before for now, before in zip(self._counts, earlier._counts)]
            if min(counts) >= 0:
                recent._counts = counts
                recent._sum -= earlier._sum
        grown = [index for index, bucket_count in enumerate(recent._counts) if bucket_count]
        if not grown:
            recent._max = 0.0
        elif grown[-1] < len(BUCKET_BOUNDS):
            recent._max = min(BUCKET_BOUNDS[grown[-1]], self._max)
        return recent

    # -- merge / serialisation ---------------------------------------------------------

    def merge(self, other: Union["LatencyHistogram", State]) -> "LatencyHistogram":
        """Fold another histogram (or its :meth:`to_state`) into this one."""
        if isinstance(other, LatencyHistogram):
            counts: Sequence[int] = other._counts
            other_sum, other_max = other._sum, other._max
        else:
            counts, other_sum, other_max = _validate_state(other)
        for index, bucket_count in enumerate(counts):
            self._counts[index] += bucket_count
        self._sum += other_sum
        if other_max > self._max:
            self._max = other_max
        return self

    @classmethod
    def merged(
        cls, parts: Iterable[Union["LatencyHistogram", State]]
    ) -> "LatencyHistogram":
        """A fresh histogram equal to the lossless union of ``parts``."""
        result = cls()
        for part in parts:
            result.merge(part)
        return result

    def to_state(self) -> Dict[str, object]:
        """A JSON- and pickle-safe snapshot (survives ``json.dumps``)."""
        return {
            "buckets": len(BUCKET_BOUNDS),
            "counts": list(self._counts),
            "sum": self._sum,
            "max": self._max,
        }

    @classmethod
    def from_state(cls, state: State) -> "LatencyHistogram":
        histogram = cls()
        counts, total_sum, maximum = _validate_state(state)
        histogram._counts = list(counts)
        histogram._sum = total_sum
        histogram._max = maximum
        return histogram

    def reset(self) -> None:
        self._counts = [0] * _N_BUCKETS
        self._sum = 0.0
        self._max = 0.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyHistogram):
            return NotImplemented
        return (
            self._counts == other._counts
            and self._sum == other._sum
            and self._max == other._max
        )

    def __repr__(self) -> str:
        digest = self.summary()
        return (
            f"LatencyHistogram(count={digest['count']}, "
            f"p50={digest['p50_seconds']}, p99={digest['p99_seconds']}, "
            f"max={digest['max_seconds']})"
        )


def _format_bound(bound: float) -> str:
    """Render a bucket edge the way Prometheus clients expect (``0.001``)."""
    text = f"{bound:.9f}".rstrip("0")
    return text + "0" if text.endswith(".") else text


def _validate_state(state: State) -> Tuple[Sequence[int], float, float]:
    buckets = state.get("buckets")
    counts = state.get("counts")
    if buckets != len(BUCKET_BOUNDS) or not isinstance(counts, (list, tuple)):
        raise ValueError(
            f"histogram state has {buckets!r} bucket edges; this build "
            f"expects {len(BUCKET_BOUNDS)} — states from a different "
            f"boundary ladder cannot merge losslessly"
        )
    if len(counts) != _N_BUCKETS:
        raise ValueError(
            f"histogram state carries {len(counts)} counts, expected {_N_BUCKETS}"
        )
    total_sum = float(state.get("sum", 0.0))
    maximum = float(state.get("max", 0.0))
    if any((not isinstance(c, int)) or c < 0 for c in counts):
        raise ValueError("histogram bucket counts must be non-negative integers")
    if total_sum in (inf, -inf) or total_sum != total_sum:
        raise ValueError("histogram sum must be finite")
    return counts, total_sum, maximum
