"""Ring-buffer time series and the background metrics sampler.

The counters and histograms of :class:`~repro.runtime.metrics.MetricsRegistry`
answer *"how much so far"*; the control plane (SLO burn rates, the health
rules) needs *"how fast right now"* and *"still moving?"*.  This module
adds the windowed layer:

* :class:`TimeSeries` — a fixed-capacity ring buffer of
  ``(monotonic_seconds, value)`` points with windowed ``rate()`` /
  ``delta()`` queries.
* :class:`MetricsSampler` — the control plane's one polling thread: it
  reads every registered source (a :class:`MetricsRegistry` — shard
  totals, durability counters, per-tick histogram digests — or any
  callable returning a flat ``{name: number}`` mapping) into one series
  per metric, then hands the tick to its evaluators
  (:class:`~repro.observability.slo.SLOEvaluator`,
  :class:`~repro.observability.health.HealthWatchdog`).

The sampler reads only parent-visible state (``totals()``,
``merged_histograms()``, plain snapshots); it never broadcasts controls
to process shards, so a tick costs a few lock acquisitions and dict
copies and can never block behind queued work.  Everything here is
off-by-default: nothing starts unless a session (or test) starts it.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.observability.clock import monotonic_time
from repro.observability.histogram import LatencyHistogram

__all__ = ["TimeSeries", "MetricsSampler", "flatten_registry"]

#: Default per-series capacity: at the default 0.5 s interval this holds
#: ~4 minutes of history — enough for the widest default burn-rate window.
DEFAULT_CAPACITY = 512

#: Histogram-digest keys read from the samples of one tick only.
_RECENT_DIGEST_KEYS = ("p50_seconds", "p99_seconds", "max_seconds")


class TimeSeries:
    """A bounded series of ``(timestamp, value)`` points.  Thread-safe.

    A series of monotonically increasing totals is queried with
    :meth:`rate` / :meth:`delta`, one of point-in-time levels with
    :meth:`latest`; storage is the same capacity-bounded ring buffer
    either way.
    """

    __slots__ = ("name", "capacity", "_times", "_values", "_lock")

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 2:
            raise ValueError("a TimeSeries needs capacity >= 2 to answer windowed queries")
        self.name = name
        self.capacity = capacity
        # Parallel lists kept sorted by time; cheaper than a deque of
        # tuples for the bisect-based window queries below.
        self._times: List[float] = []
        self._values: List[float] = []
        self._lock = threading.Lock()

    def append(self, value: float, timestamp: Optional[float] = None) -> None:
        """Record one point (``timestamp`` defaults to monotonic now)."""
        stamp = monotonic_time() if timestamp is None else float(timestamp)
        with self._lock:
            if self._times and stamp < self._times[-1]:
                # Out-of-order insert: keep the buffer sorted.
                index = bisect_right(self._times, stamp)
                self._times.insert(index, stamp)
                self._values.insert(index, float(value))
            else:
                self._times.append(stamp)
                self._values.append(float(value))
            if len(self._times) > self.capacity:
                del self._times[: len(self._times) - self.capacity]
                del self._values[: len(self._values) - self.capacity]

    def __len__(self) -> int:
        with self._lock:
            return len(self._times)

    def latest(self) -> Optional[float]:
        with self._lock:
            return self._values[-1] if self._values else None

    def points(self, window_seconds: Optional[float] = None, now: Optional[float] = None) -> List[Tuple[float, float]]:
        """The buffered points, optionally restricted to the last window."""
        with self._lock:
            times, values = list(self._times), list(self._values)
        if window_seconds is None or not times:
            return list(zip(times, values))
        cutoff = (monotonic_time() if now is None else now) - window_seconds
        start = bisect_left(times, cutoff)
        return list(zip(times[start:], values[start:]))

    # -- windowed queries ----------------------------------------------------------------

    def delta(self, window_seconds: float, now: Optional[float] = None) -> float:
        """Counter increase over the window (0.0 with <2 points).

        A value drop (a restarted shard resetting its counter) clamps to
        the newest value rather than going negative, mirroring how
        Prometheus ``increase()`` treats counter resets.
        """
        window = self.points(window_seconds, now=now)
        if len(window) < 2:
            return 0.0
        increase = window[-1][1] - window[0][1]
        return window[-1][1] if increase < 0 else increase

    def rate(self, window_seconds: float, now: Optional[float] = None) -> float:
        """Per-second increase over the window (0.0 when undefined)."""
        window = self.points(window_seconds, now=now)
        if len(window) < 2:
            return 0.0
        elapsed = window[-1][0] - window[0][0]
        if elapsed <= 0:
            return 0.0
        increase = window[-1][1] - window[0][1]
        if increase < 0:
            increase = window[-1][1]
        return increase / elapsed

    def __repr__(self) -> str:
        return f"TimeSeries({self.name!r}, points={len(self)}/{self.capacity})"


def flatten_registry(
    registry, previous: Optional[Dict[str, LatencyHistogram]] = None
) -> Dict[str, float]:
    """One flat ``{series_name: value}`` reading of a metrics registry.

    Covers every shard-counter family (summed totals), every durability
    counter, and a digest of every merged histogram family.  The digest's
    ``count`` and ``sum_seconds`` are cumulative, so ratio SLOs take their
    ``delta()``; its ``p50`` / ``p99`` / ``max`` describe only the samples
    recorded since the histograms kept in ``previous`` (updated in place,
    one entry per family), and are left out of a reading that has none —
    a burst leaves a percentile gauge once it has passed.  Reads only
    parent-visible state — no process-shard broadcast — so it is safe and
    cheap from a background thread.
    """
    reading: Dict[str, float] = {}
    for key, value in registry.totals().items():
        reading[f"shard.{key}"] = float(value)
    for key, value in registry.durability.snapshot().items():
        reading[f"durability.{key}"] = float(value)
    previous = {} if previous is None else previous
    for family, histogram in registry.merged_histograms().items():
        recent = histogram.since(previous.get(family))
        previous[family] = histogram
        digest = histogram.summary()
        reading[f"hist.{family}.count"] = float(digest["count"])
        reading[f"hist.{family}.sum_seconds"] = float(digest["sum_seconds"])
        if recent.count:
            digest = recent.summary()
            for key in _RECENT_DIGEST_KEYS:
                reading[f"hist.{family}.{key}"] = float(digest[key])
    return reading


class MetricsSampler:
    """Polls registered sources into ring-buffer series on a fixed beat.

    Sources are ``(prefix, callable)`` pairs; each callable returns a flat
    mapping of metric name → number and its readings land in series named
    ``prefix + name``.  :meth:`sample_once` is public so tests (and the
    one-shot health path) can drive the clock deterministically; the
    background thread — constructed with a ``name=`` as repo-lint RL004
    demands — simply calls it every ``interval_seconds``.

    ``evaluators`` (duck-typed: ``evaluate(sampler, now)``) run after
    every tick, in order, and read the tick's flat :attr:`reading` or the
    windowed series.  The session installs its
    :class:`~repro.observability.slo.SLOEvaluator` and
    :class:`~repro.observability.health.HealthWatchdog` here, so burn-rate
    alerting and health share this thread instead of adding their own.
    """

    def __init__(
        self,
        interval_seconds: float = 0.5,
        capacity: int = DEFAULT_CAPACITY,
        evaluators: Tuple[object, ...] = (),
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        self.interval_seconds = interval_seconds
        self.capacity = capacity
        self.evaluators = tuple(evaluators)
        self._sources: List[Tuple[str, Callable[[], Mapping[str, float]]]] = []
        self._series: Dict[str, TimeSeries] = {}
        self._lock = threading.Lock()
        # One tick at a time: the background beat and a caller's
        # sample_once() never interleave their readings or evaluations.
        self._tick_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        #: The newest tick's flat reading, ``{prefix + name: value}``.
        self.reading: Dict[str, float] = {}
        self.ticks = 0
        self.source_errors = 0

    # -- sources -------------------------------------------------------------------------

    def add_source(self, prefix: str, reader: Callable[[], Mapping[str, float]]) -> None:
        with self._lock:
            self._sources.append((prefix, reader))

    def add_registry(self, registry, prefix: str = "") -> None:
        """Poll every counter and histogram family of a metrics registry;
        percentile gauges cover the samples of each tick."""
        previous: Dict[str, LatencyHistogram] = {}
        self.add_source(prefix, lambda: flatten_registry(registry, previous))

    # -- sampling ------------------------------------------------------------------------

    def sample_once(self, now: Optional[float] = None) -> None:
        """Poll every source once; then run the evaluators.

        A raising source is counted and skipped — sampling must keep
        working while the pipeline it observes winds down.
        """
        stamp = monotonic_time() if now is None else now
        with self._lock:
            sources = list(self._sources)
        with self._tick_lock:
            reading: Dict[str, float] = {}
            for prefix, reader in sources:
                try:
                    values = reader()
                except Exception:  # noqa: BLE001 — a dying source must not kill the beat
                    self.source_errors += 1
                    continue
                for name, value in values.items():
                    reading[prefix + name] = float(value)
            for name, value in reading.items():
                self.series(name).append(value, timestamp=stamp)
            self.reading = reading
            self.ticks += 1
            for evaluator in self.evaluators:
                evaluator.evaluate(self, now=stamp)  # type: ignore[attr-defined]

    def series(self, name: str) -> TimeSeries:
        """The series for ``name`` (created on first use)."""
        with self._lock:
            series = self._series.get(name)
            if series is None:
                series = self._series[name] = TimeSeries(name, capacity=self.capacity)
            return series

    def get(self, name: str) -> Optional[TimeSeries]:
        with self._lock:
            return self._series.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._series)

    def latest(self) -> Dict[str, float]:
        """Newest value of every series (series yet without points skip)."""
        with self._lock:
            entries = list(self._series.items())
        reading = {}
        for name, series in entries:
            value = series.latest()
            if value is not None:
                reading[name] = value
        return reading

    # -- lifecycle -----------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "MetricsSampler":
        """Start the background beat (idempotent)."""
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-metrics-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        """Stop and join the beat; takes one final sample so short runs
        (shorter than one interval) still leave a window behind."""
        thread = self._thread
        self._stop.set()
        if thread is not None:
            thread.join(timeout=timeout)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval_seconds):
            self.sample_once()
        # Final reading on the way out: a feed that finished within one
        # interval is still observed, and stop() callers read fresh state.
        self.sample_once()

    def __repr__(self) -> str:
        return (
            f"MetricsSampler(interval={self.interval_seconds}s, "
            f"series={len(self._series)}, ticks={self.ticks}, running={self.running})"
        )
