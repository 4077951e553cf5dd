"""The repository's clocks, in one place.

Latency measurements must never use ``time.time()``: the wall clock can
jump (NTP slew, manual adjustment, DST on some platforms), which turns a
latency sample into garbage — or a negative number.  ``tools/repo_lint.py``
enforces this (rule RL003) on every latency-bearing package; this module
is the single sanctioned exception, so the choice of clock is made once
and documented once.

* :func:`monotonic_time` — ``CLOCK_MONOTONIC``.  Use for timestamps that
  must be *comparable across processes on the same host* (queue-wait
  stamps and trace-span timestamps travel from the feeding process into
  process-shard children; on Linux the monotonic clock is system-wide
  per boot, so parent and child readings share an epoch).
* :func:`perf_clock` — ``perf_counter``.  Highest-resolution clock for
  durations measured *within* one process (batch timing, fsync timing).
* :func:`wall_clock` — ``time.time()``.  Only for human-facing
  timestamps (log lines, benchmark stamps), never for arithmetic between
  two readings.
"""

from __future__ import annotations

import time

__all__ = ["monotonic_time", "perf_clock", "wall_clock"]

#: Seconds on the system-wide monotonic clock (cross-process comparable).
monotonic_time = time.monotonic

#: Seconds on the highest-resolution in-process clock (durations only).
perf_clock = time.perf_counter


def wall_clock() -> float:
    """Seconds since the epoch — display only, never latency arithmetic."""
    return time.time()
