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
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple

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


#: A log entry's read order, then the detection: ``(timestamp, partition
#: key, arrival, detection)``.  Arrival numbers are unique, so two entries
#: never compare their detections.
_Keyed = Tuple[float, Tuple[str, str], int, Detection]


class DetectionLog:
    """An engine's one detection history: appended in arrival order, read
    merged (see the module docstring's *Order*).  Thread-safe.

    A detection's sort key is built once, by the first read after it was
    appended — not on the frame-to-detection path — and that read merges
    only the entries appended since the previous one into the order the
    log keeps.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: List[Detection] = []
        #: ``_entries[:_keyed]`` in read order; ``_arrivals`` numbers the next.
        self._merged: List[_Keyed] = []
        self._keyed = self._arrivals = 0

    def extend(self, detections: Iterable[Detection]) -> None:
        """Append detections in their arrival order."""
        with self._lock:
            self._entries.extend(detections)

    def clear(self) -> None:
        self.restore(())

    def entries(self) -> List[Detection]:
        """Arrival-ordered copy (what snapshots persist; reads merge instead)."""
        with self._lock:
            return list(self._entries)

    def restore(self, detections: Iterable[Detection]) -> None:
        """Replace the log contents (snapshot recovery path)."""
        with self._lock:
            self._entries = list(detections)
            self._merged = []
            self._keyed = self._arrivals = 0

    def clear_query(self, query_name: str) -> None:
        """Drop one query's detections, keeping every other query's."""
        with self._lock:
            self._entries = [d for d in self._entries if d.query_name != query_name]
            # Arrival numbers keep their gaps: the order among the rest holds.
            self._merged = [entry for entry in self._merged if entry[3].query_name != query_name]
            self._keyed = len(self._merged)

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
            merged = self._merge()
            if query_name is None and partition is _UNSET:
                return [entry[3] for entry in merged]
            return [
                detection
                for *_, detection in merged
                if (query_name is None or detection.query_name == query_name)
                and (partition is _UNSET or detection.partition == partition)
            ]

    def _merge(self) -> List[_Keyed]:
        """Key what arrived since the last read and merge it in (lock held)."""
        merged = self._merged
        if self._keyed == len(self._entries):
            return merged
        keys: Dict[Tuple[type, Any], Tuple[str, str]] = {}  # one key per player, not per detection
        fresh = []
        for arrival, d in enumerate(self._entries[self._keyed :], start=self._arrivals):
            partition = d.partition
            try:
                key = keys.get((partition.__class__, partition))
                if key is None:
                    key = keys[partition.__class__, partition] = partition_sort_key(partition)
            except TypeError:  # an unhashable partition value
                key = partition_sort_key(partition)
            fresh.append((d.timestamp, key, arrival, d))
        fresh.sort()
        self._keyed = len(self._entries)
        self._arrivals += len(fresh)
        later = not merged or merged[-1] < fresh[0]
        merged.extend(fresh)
        if not later:
            merged.sort()  # two sorted runs: a linear merge
        return merged

    def __repr__(self) -> str:
        return f"DetectionLog(entries={len(self)})"
