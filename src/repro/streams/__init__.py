"""Push-based data stream infrastructure.

This package provides the minimal streaming substrate on which both the
Kinect simulator (``repro.kinect``) and the CEP engine (``repro.cep``) are
built:

* :class:`~repro.streams.clock.SimulatedClock` — a manually advanced time
  source, so the whole stack can run deterministically in tests and faster
  than real-time in benchmarks.
* :class:`~repro.streams.stream.Stream` — a named, typed, push-based stream
  with subscriber fan-out.
"""

from repro.streams.clock import Clock, SimulatedClock
from repro.streams.stream import (
    DeliveryFailure,
    Stream,
    StreamRegistry,
    StreamStats,
    Subscription,
)

__all__ = [
    "Clock",
    "DeliveryFailure",
    "SimulatedClock",
    "Stream",
    "StreamRegistry",
    "StreamStats",
    "Subscription",
]
