"""Slices, segments and the estimators every metric goes through.

A measured phase is cut into **slices** of 20-500 ms.  The reference kernel
(:mod:`refclock`) runs before and after each slice while the system under
test is quiescent; the slice's wall and CPU time are multiplied by the
machine speed the two kernel timings imply.  This box flips between full and
~60 % speed every few seconds, so the slices are short: a flip inside a slice
shows as two kernel timings that disagree, the slice is *torn*, and it is
left out.

Not all code slows down as much as the kernel does.  Pure-Python work on one
core follows it closely; JSON, pickling, sockets, pipes and file writes slow
down less, and a paced phase that idles most of the time hardly at all.  Each
phase therefore has a **sensitivity** — the exponent ``b`` in ``time ~
kernel_time ** b``, calibrated once from runs that saw both machine states
(``calibrate.py``) — and a slice is normalised by ``speed ** b``.

Two estimators turn slices into a metric:

* **positional** (throughput, CPU, learn, recover, set-up) — a phase repeats
  the same work over and over (the stream is one tile, re-stamped), so slice
  *j* of every repeat is the same work.  The estimate of that work is the
  median over the clean repeats of slice *j*; a phase's time is the sum over
  positions.  Every clean slice is used and a torn one costs only itself.
* **segment-wise** (latency percentiles) — samples of the clean slices of a
  ~2 s segment are normalised and pooled, the percentile is taken inside
  the segment, and the metric is the median across segments.

Units stay s / ms / us / 1/s, read as "at nominal machine speed".
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy

from . import refclock

perf = time.perf_counter

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class RefClock:
    """Reads the reference kernel, sharing one reading between adjacent slices."""

    #: A reading this fresh still describes "now": the slice that just ended
    #: and the one about to start share it.
    REUSE_S = 0.002

    def __init__(self) -> None:
        self.readings: List[float] = []
        #: Read the kernel on every core and keep the slowest.  For a shape
        #: whose work runs in worker processes pinned one to a core: the host
        #: slows cores independently, the slice waits for the slowest worker,
        #: and a reading on whichever core this thread happens to sit on
        #: predicted the slice's time less than half as well (exponent 0.35
        #: against 0.8).
        self.every_core = False
        self._last = 0.0
        self._last_end = float("-inf")

    def read(self) -> float:
        if perf() - self._last_end < self.REUSE_S:
            return self._last
        if self.every_core:
            cores = os.sched_getaffinity(0)
            try:
                self._last = max(_read_on(core) for core in sorted(cores))
            finally:
                os.sched_setaffinity(0, cores)
        else:
            self._last = refclock.ref_time()
        self._last_end = perf()
        self.readings.append(self._last)
        return self._last


def _read_on(core: int) -> float:
    os.sched_setaffinity(0, {core})  # this thread only
    return refclock.ref_time()


class CpuClock:
    """CPU seconds of this process plus its live worker processes.

    ``RUSAGE_CHILDREN`` only counts children that were waited for, and shard
    workers live as long as the session — so their CPU time and peak memory
    are read from ``/proc`` (10 ms ticks: fine over a segment, coarse over
    one slice).
    """

    def __init__(self, pids: Iterable[int] = ()) -> None:
        self.pids = list(pids)

    def now(self) -> float:
        total = time.process_time()
        for pid in self.pids:
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue  # the worker is gone; its time stops counting
            total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
        return total

    def peak_rss_mb(self) -> float:
        """``ru_maxrss`` of this process plus the high-water mark of each worker."""
        total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for pid in self.pids:
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue
        return total_kb / 1024.0


@dataclass
class Slice:
    """One bracketed stretch of work."""

    position: int
    units: int
    wall_s: float
    cpu_s: float
    ref_before: float
    ref_after: float
    #: How much of the kernel's slowdown this kind of work shares (see above).
    sensitivity: float = 1.0
    #: Raw latency samples (seconds) taken inside the slice, by series name.
    samples: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def speed(self) -> float:
        """What a raw time is multiplied by to read "at nominal machine speed"."""
        return refclock.speed(self.ref_before, self.ref_after) ** self.sensitivity

    @property
    def torn(self) -> bool:
        return refclock.torn(self.ref_before, self.ref_after)


@dataclass
class Segment:
    index: int
    slices: List[Slice] = field(default_factory=list)


class Phase:
    """Collects the slices of one measured phase, grouped into segments."""

    def __init__(self, name: str, ref: RefClock, cpu: CpuClock, sensitivity: float = 1.0) -> None:
        self.name = name
        self.ref = ref
        self.cpu = cpu
        self.sensitivity = sensitivity
        self.segments: List[Segment] = []
        self._open: Optional[tuple] = None

    # -- recording ---------------------------------------------------------------------

    def begin_segment(self) -> Segment:
        """Start a segment; collects garbage first so no slice pays for the last one's."""
        gc.collect()
        segment = Segment(index=len(self.segments))
        self.segments.append(segment)
        return segment

    def begin_slice(self) -> None:
        ref_before = self.ref.read()
        self._open = (ref_before, self.cpu.now(), perf())

    def end_slice(
        self,
        units: int,
        samples: Optional[Dict[str, List[float]]] = None,
        position: Optional[int] = None,
    ) -> Slice:
        """Close the open slice; the caller has already quiesced the system.

        ``position`` names the work the slice did when that is not simply its
        place in the segment (the positional estimator groups by it).
        """
        ended = perf()
        cpu_ended = self.cpu.now()
        assert self._open is not None, "end_slice() without begin_slice()"
        ref_before, cpu_started, started = self._open
        self._open = None
        segment = self.segments[-1]
        piece = Slice(
            position=len(segment.slices) if position is None else position,
            units=units,
            wall_s=ended - started,
            cpu_s=cpu_ended - cpu_started,
            ref_before=ref_before,
            ref_after=self.ref.read(),
            sensitivity=self.sensitivity,
            samples=samples or {},
        )
        segment.slices.append(piece)
        return piece

    # -- reading -----------------------------------------------------------------------

    @property
    def slices(self) -> List[Slice]:
        return [piece for segment in self.segments for piece in segment.slices]

    @property
    def units(self) -> int:
        return sum(piece.units for piece in self.slices)

    @property
    def wall_s(self) -> float:
        return sum(piece.wall_s for piece in self.slices)

    def torn_share(self) -> float:
        slices = self.slices
        return sum(piece.torn for piece in slices) / len(slices) if slices else 0.0

    def _by_position(self) -> Dict[int, List[Slice]]:
        """Slices grouped by position, clean ones only where a position has any."""
        grouped: Dict[int, List[Slice]] = {}
        for piece in self.slices:
            grouped.setdefault(piece.position, []).append(piece)
        return {
            position: [piece for piece in pieces if not piece.torn] or pieces
            for position, pieces in grouped.items()
        }

    def nominal(self, attribute: str = "wall_s") -> float:
        """Seconds one repeat of the phase's work takes at nominal speed."""
        return sum(
            statistics.median(getattr(piece, attribute) * piece.speed for piece in pieces)
            for pieces in self._by_position().values()
        )

    def units_per_repeat(self) -> int:
        return sum(pieces[0].units for pieces in self._by_position().values())

    def rate(self) -> float:
        """Units per second at nominal speed (positional estimator)."""
        return self.units_per_repeat() / self.nominal("wall_s")

    def raw_rate(self) -> float:
        """Units per second as the wall clock saw them — for humans, not for claims."""
        return self.units / self.wall_s

    def seconds_per_unit(self, attribute: str = "wall_s") -> float:
        return self.nominal(attribute) / self.units_per_repeat()

    def percentile(self, series: str, fraction: float) -> float:
        """Seconds: percentile inside each segment, median across segments."""
        per_segment = []
        for segment in self.segments:
            pooled = _pooled(segment.slices, series)
            if pooled:
                per_segment.append(_percentile(pooled, fraction))
        return statistics.median(per_segment) if per_segment else 0.0

    def sample_count(self, series: str) -> int:
        return sum(len(piece.samples.get(series, ())) for piece in self.slices)


def _pooled(slices: Sequence[Slice], series: str) -> List[float]:
    clean = [piece for piece in slices if not piece.torn] or list(slices)
    return [
        sample * piece.speed for piece in clean for sample in piece.samples.get(series, ())
    ]


def _percentile(values: Sequence[float], fraction: float) -> float:
    return float(numpy.percentile(values, fraction * 100.0))


def raw_percentile(values: Sequence[float], fraction: float) -> float:
    return _percentile(values, fraction) if values else 0.0
