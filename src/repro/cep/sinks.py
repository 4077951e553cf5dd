"""Sinks and the detection log: where detections go.

On gesture detection, the paper's engine produces "a result tuple …  which
can be used to trigger arbitrary actions in any listening application".
An engine keeps each result tuple once, in its :class:`DetectionLog`, and
then hands it to the :class:`Sink` objects attached to the query that
produced it (:class:`CallbackSink` for application code, grouped per query
in a :class:`FanOutSink`).  Every read of the history — a query's, the
engine's, the session's gesture events — derives from the log.

Order
-----
The log keeps arrival order; reads sort by ``(timestamp, partition key,
arrival)``: event time first, then a canonical encoding of the partition
value, so two players gesturing in the very same frame order
deterministically, with arrival order as the final stable tie-break within
one partition.  A partition's detections arrive in the same order on every
engine — one player never spans two shards — so the merged read is the
same inline and on any number of shards.

Thread safety
-------------
The sharded runtime (:mod:`repro.runtime`) appends detections from worker
threads while application code reads them, so the log guards its entries
with a lock and every read returns a copy, never a live reference;
:class:`FanOutSink` copies its sink list per emit so ``add`` during
delivery is safe.  ``FanOutSink`` additionally isolates its children: one
raising sink does not starve the sinks after it — the failure is recorded
in :attr:`FanOutSink.failures`, every remaining sink still receives the
detection, and the first exception is re-raised once the fan-out
completes (so an inline emitter still observes it, exactly like
:meth:`~repro.streams.stream.Stream.push` does for subscribers; the
sharded runtime catches and records instead, because a user sink must not
kill a worker shard).
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Iterable, List, Optional, Tuple

from repro.cep.matcher import Detection

#: "Not given", as opposed to an explicit ``None`` (``partition=None`` selects
#: the detections of tuples without a partition) — one object for every
#: engine's reads.
_UNSET: Any = object()

#: Cap on remembered failures; long-running sessions must stay bounded.
_MAX_RECORDED_FAILURES = 256


class Sink(ABC):
    """A consumer of detections."""

    @abstractmethod
    def emit(self, detection: Detection) -> None:
        """Handle one detection."""


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


def partition_sort_key(partition: Any) -> Tuple[str, str]:
    """A total order over arbitrary partition values.

    Partition values are usually small ints, but the field is untyped;
    ordering by ``(type name, repr)`` is deterministic across runs and
    never raises on mixed types.
    """
    return (type(partition).__name__, repr(partition))


def merge_detections(detections: Iterable[Detection]) -> List[Detection]:
    """Sort detections by ``(timestamp, partition key)``.

    Stable: equal keys keep their input order, so per-shard sequences
    concatenated in arrival order keep each shard's internal order.
    """
    return sorted(
        detections,
        key=lambda d: (d.timestamp, partition_sort_key(d.partition)),
    )


class DetectionLog:
    """An engine's one detection history: appended in arrival order, read
    merged (see the module docstring's *Order*).  Thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: List[Detection] = []

    def extend(self, detections: Iterable[Detection]) -> None:
        """Append detections in their arrival order."""
        with self._lock:
            self._entries.extend(detections)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def entries(self) -> List[Detection]:
        """Arrival-ordered copy (what snapshots persist; reads merge instead)."""
        with self._lock:
            return list(self._entries)

    def restore(self, detections: Iterable[Detection]) -> None:
        """Replace the log contents (snapshot recovery path)."""
        with self._lock:
            self._entries = list(detections)

    def clear_query(self, query_name: str) -> None:
        """Drop one query's detections, keeping every other query's."""
        with self._lock:
            self._entries = [d for d in self._entries if d.query_name != query_name]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(
        self,
        query_name: Optional[str] = None,
        partition: Any = _UNSET,
    ) -> List[Detection]:
        """Merged copy; optionally one query's, optionally one player's
        (pass ``None`` explicitly for the unpartitioned bucket)."""
        with self._lock:
            entries = list(self._entries)
        if query_name is not None:
            entries = [d for d in entries if d.query_name == query_name]
        if partition is not _UNSET:
            entries = [d for d in entries if d.partition == partition]
        return merge_detections(entries)

    def __repr__(self) -> str:
        return f"DetectionLog(entries={len(self)})"
