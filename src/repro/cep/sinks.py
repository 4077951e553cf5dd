"""Sinks: where detections go.

On gesture detection, the paper's engine produces "a result tuple …  which
can be used to trigger arbitrary actions in any listening application".
A :class:`Sink` receives :class:`~repro.cep.matcher.Detection` objects; the
engine attaches one (or more) to every deployed query.

Thread safety
-------------
The sharded runtime (:mod:`repro.runtime`) emits detections from worker
threads while application code reads them, so the built-in sinks are
thread-safe: :class:`CollectingSink` guards its storage with a lock and
every read (``detections`` / ``outputs`` / ``last``) returns a *snapshot*,
never a live reference; :class:`FanOutSink` copies its sink list per emit
so ``add`` during delivery is safe.  ``FanOutSink`` additionally isolates
its children: one raising sink no longer starves the sinks after it — the
failure is recorded in :attr:`FanOutSink.failures`, every remaining sink
still receives the detection, and the first exception is re-raised once
the fan-out completes (so an inline emitter still observes it, exactly
like :meth:`~repro.streams.stream.Stream.push` does for subscribers; the
sharded runtime catches and records instead, because a user sink must not
kill a worker shard).
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

from repro.cep.matcher import Detection

#: Cap on remembered failures; long-running sessions must stay bounded.
_MAX_RECORDED_FAILURES = 256


class Sink(ABC):
    """A consumer of detections."""

    @abstractmethod
    def emit(self, detection: Detection) -> None:
        """Handle one detection."""


class CollectingSink(Sink):
    """Stores all detections in memory (the default sink; tests rely on it).

    Parameters
    ----------
    capacity:
        Optional bound on the number of stored detections; older detections
        are dropped first, which keeps long-running sessions bounded.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive when given")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._detections: List[Detection] = []

    @property
    def detections(self) -> List[Detection]:
        """Snapshot of the collected detections (safe under concurrent emit)."""
        with self._lock:
            return list(self._detections)

    def emit(self, detection: Detection) -> None:
        with self._lock:
            self._detections.append(detection)
            if self.capacity is not None and len(self._detections) > self.capacity:
                del self._detections[0 : len(self._detections) - self.capacity]

    def clear(self) -> None:
        with self._lock:
            self._detections.clear()

    def restore(self, detections: List[Detection]) -> None:
        """Replace the stored detections (snapshot recovery path).

        The capacity bound still applies: restoring more detections than
        ``capacity`` keeps the newest ones, exactly as if they had been
        emitted one by one.
        """
        with self._lock:
            self._detections = list(detections)
            if self.capacity is not None and len(self._detections) > self.capacity:
                del self._detections[0 : len(self._detections) - self.capacity]

    def outputs(self) -> List[str]:
        """Just the output values, in detection order."""
        return [d.output for d in self.detections]

    def __len__(self) -> int:
        with self._lock:
            return len(self._detections)

    def last(self) -> Optional[Detection]:
        with self._lock:
            return self._detections[-1] if self._detections else None


class CallbackSink(Sink):
    """Invokes a callable for every detection (application integration).

    Exceptions raised by the callback propagate to the emitter; wrap the
    callback (or rely on :class:`FanOutSink` isolation or the session's
    handler guard) when a failure must not break the data path.
    """

    def __init__(self, callback: Callable[[Detection], None]) -> None:
        self.callback = callback
        self.emitted = 0

    def emit(self, detection: Detection) -> None:
        self.callback(detection)
        self.emitted += 1


@dataclass(frozen=True)
class SinkFailure:
    """One exception raised by a fanned-out sink (delivery was not broken)."""

    sink: Sink
    detection: Detection
    error: BaseException


class FanOutSink(Sink):
    """Forwards every detection to several sinks, isolating the fan-out.

    A raising child no longer prevents delivery to the remaining sinks:
    every sink receives the detection, each failure is recorded in
    :attr:`failures` (bounded, oldest dropped), and the **first** exception
    is re-raised once the fan-out completes — mirroring
    :meth:`~repro.streams.stream.Stream.push` — so the emitter still
    observes the failure (the sharded runtime catches and records it; the
    inline engine propagates it to the feeding caller, as before this
    class isolated anything).  ``add`` may race with ``emit`` — the sink
    list is copied per delivery.
    """

    def __init__(self, sinks: List[Sink]) -> None:
        self._lock = threading.Lock()
        self.sinks = list(sinks)
        self.failures: Deque[SinkFailure] = deque(maxlen=_MAX_RECORDED_FAILURES)

    def emit(self, detection: Detection) -> None:
        with self._lock:
            sinks = list(self.sinks)
        first_error: Optional[BaseException] = None
        for sink in sinks:
            try:
                sink.emit(detection)
            except Exception as error:  # noqa: BLE001 — finish the fan-out first
                self.failures.append(SinkFailure(sink, detection, error))
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error

    def add(self, sink: Sink) -> None:
        with self._lock:
            self.sinks.append(sink)
