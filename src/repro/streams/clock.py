"""Time sources for the streaming stack.

The paper's engine processes a 30 Hz sensor stream and gesture queries carry
``within N seconds`` constraints, so *time* is a first-class concept.  To keep
tests deterministic and benchmarks fast we never call ``time.time()``
directly; every component takes a :class:`Clock` and reads timestamps from
it.  The implementation is :class:`SimulatedClock`, a manually advanced
clock: the Kinect simulator advances it by 1/30 s per emitted frame, which
makes replaying an hour of sensor data take milliseconds.  Latency
measurements read :mod:`repro.observability.clock` instead.
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class Clock(ABC):
    """Abstract time source measured in seconds as a float."""

    @abstractmethod
    def now(self) -> float:
        """Return the current time in seconds."""

    def sleep(self, seconds: float) -> None:  # pragma: no cover - overridden
        """Block (or simulate blocking) for ``seconds`` seconds."""
        raise NotImplementedError


class SimulatedClock(Clock):
    """A deterministic, manually advanced clock.

    Parameters
    ----------
    start:
        Initial timestamp in seconds.  Defaults to ``0.0``.

    Examples
    --------
    >>> clock = SimulatedClock()
    >>> clock.now()
    0.0
    >>> clock.advance(1 / 30)
    >>> round(clock.now(), 4)
    0.0333
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError("clock start time must be non-negative")
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        """Move the clock forward by ``seconds``.

        Raises
        ------
        ValueError
            If ``seconds`` is negative — simulated time never runs backwards.
        """
        if seconds < 0:
            raise ValueError("cannot advance a clock by a negative duration")
        self._now += seconds

    def set(self, timestamp: float) -> None:
        """Jump to an absolute ``timestamp`` (must not be in the past)."""
        if timestamp < self._now:
            raise ValueError(
                f"cannot move clock backwards from {self._now} to {timestamp}"
            )
        self._now = float(timestamp)

    def sleep(self, seconds: float) -> None:
        """Simulated sleep simply advances the clock."""
        self.advance(seconds)

    def __repr__(self) -> str:
        return f"SimulatedClock(t={self._now:.4f})"
