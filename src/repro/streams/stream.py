"""Named push-based streams with subscriber fan-out.

A :class:`Stream` is the unit of data exchange between the Kinect source,
the transformation view, and the CEP matcher.  Producers call
:meth:`Stream.push` with dictionaries (or any mapping); every subscriber
callback receives the tuple in registration order.  Streams are
single-threaded by design — the whole engine is an event loop driven by the
source — which keeps the semantics of the NFA matcher simple and
deterministic, exactly like the single-input match operator described in the
paper.

Two delivery modes exist.  :meth:`Stream.push` / :meth:`Stream.push_many`
interleave: each tuple is handed to every subscriber before the next tuple
is taken.  :meth:`Stream.push_batch` drains a whole chunk per subscriber —
subscribers registered with a ``batch_callback`` receive the chunk in a
single call (which is what lets an NFA matcher prune its run table once per
chunk), everyone else still gets the tuples one by one.  Per-subscriber
tuple order is identical in both modes; only the interleaving *across*
subscribers differs.

Delivery errors are *isolated per subscriber*: a callback raising mid-push
(or mid-batch) no longer silently starves the subscribers registered after
it — the failure is recorded in :attr:`Stream.delivery_errors` (bounded,
mirroring ``GestureSession.handler_errors``), delivery continues to the
remaining subscribers, and the **first** exception is re-raised once the
fan-out completes, so producers still observe the failure.  Within one
batch, a subscriber that raised receives none of that chunk's remaining
tuples (its state is suspect), but every other subscriber gets the full
chunk.

A subscription may declare the fields it reads (``subscribe(..., reads=)``,
later :meth:`Subscription.declare`).  :attr:`Stream.reads` is the union over
the current subscribers — ``None`` as soon as one of them declared nothing
— kept up to date on every subscribe, unsubscribe and declare, so a
producer deriving the stream (a view) can compute only what is read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Any, Callable, Deque, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence,
)

TupleCallback = Callable[[Mapping[str, Any]], None]
BatchCallback = Callable[[Sequence[Mapping[str, Any]]], None]

#: Cap on remembered delivery failures; long-running streams stay bounded.
_MAX_RECORDED_FAILURES = 256


@dataclass(frozen=True)
class DeliveryFailure:
    """One exception raised by a subscriber callback during fan-out."""

    stream: str
    subscriber: str
    error: BaseException


@dataclass
class StreamStats:
    """Counters maintained by a :class:`Stream`.

    Attributes
    ----------
    pushed:
        Number of tuples pushed into the stream.
    dropped:
        Number of tuples pushed while the stream was paused.
    """

    pushed: int = 0
    dropped: int = 0

    def reset(self) -> None:
        self.pushed = 0
        self.dropped = 0

    def snapshot(self) -> Dict[str, int]:
        """A JSON-serialisable copy of the counters (snapshot format)."""
        return {
            "pushed": self.pushed,
            "dropped": self.dropped,
        }

    def restore(self, state: Mapping[str, int]) -> None:
        """Overwrite the counters from a :meth:`snapshot` copy (keys of
        counters that no longer exist, such as ``delivered``, are ignored)."""
        self.pushed = int(state.get("pushed", 0))
        self.dropped = int(state.get("dropped", 0))


@dataclass
class Subscription:
    """Handle returned by :meth:`Stream.subscribe`; used to unsubscribe.

    ``batch_callback``, when set, receives whole chunks on the stream's
    batch delivery path (:meth:`Stream.push_batch`); per-tuple pushes keep
    using ``callback``.  ``reads`` is the set of fields the subscriber reads
    (``None``: it may read any field).
    """

    stream: "Stream"
    callback: TupleCallback
    name: str = ""
    active: bool = True
    batch_callback: Optional[BatchCallback] = None
    reads: Optional[FrozenSet[str]] = None

    def cancel(self) -> None:
        """Detach this subscription from its stream."""
        if self.active:
            self.stream.unsubscribe(self)

    def declare(self, reads: Optional[Iterable[str]]) -> None:
        """Change the fields this subscriber reads (``None``: any field)."""
        self.reads = None if reads is None else frozenset(reads)
        self.stream._refresh_reads()


class Stream:
    """A named, push-based stream of dictionary tuples.

    Parameters
    ----------
    name:
        Stream name used for registration with the engine and referenced by
        queries (e.g. ``"kinect"`` or ``"kinect_t"``).
    fields:
        Optional iterable of field names.  When given, pushed tuples are
        checked to contain at least these fields; extra fields are allowed
        (the Kinect stream carries many joints, queries only reference some).

    Examples
    --------
    >>> s = Stream("kinect", fields=["ts", "rhand_x"])
    >>> seen = []
    >>> sub = s.subscribe(seen.append)
    >>> s.push({"ts": 0.0, "rhand_x": 1.0})
    >>> len(seen)
    1
    """

    def __init__(self, name: str, fields: Optional[Iterable[str]] = None) -> None:
        if not name:
            raise ValueError("stream name must be non-empty")
        self.name = name
        self.fields: Optional[frozenset] = frozenset(fields) if fields else None
        self.stats = StreamStats()
        self.delivery_errors: Deque[DeliveryFailure] = deque(
            maxlen=_MAX_RECORDED_FAILURES
        )
        self._subscribers: List[Subscription] = []
        self._paused = False
        #: The fields the current subscribers read, or ``None`` when one of
        #: them declared nothing (it may read any field).
        self.reads: Optional[FrozenSet[str]] = frozenset()

    # -- subscription management -------------------------------------------------

    def subscribe(
        self,
        callback: TupleCallback,
        name: str = "",
        batch_callback: Optional[BatchCallback] = None,
        reads: Optional[Iterable[str]] = None,
    ) -> Subscription:
        """Register ``callback`` to receive every tuple pushed to the stream.

        ``batch_callback``, when given, is used instead of ``callback`` for
        whole chunks delivered through :meth:`push_batch`.  ``reads`` names
        the fields the subscriber reads; the default, ``None``, means any
        field, so the stream's producer keeps computing every field.  A
        subscriber that declares ``reads`` may be handed tuples holding only
        those fields (and whatever other subscribers read).
        """
        subscription = Subscription(
            stream=self,
            callback=callback,
            name=name,
            batch_callback=batch_callback,
            reads=None if reads is None else frozenset(reads),
        )
        self._subscribers.append(subscription)
        self._refresh_reads()
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Remove a subscription previously returned by :meth:`subscribe`."""
        subscription.active = False
        self._subscribers = [s for s in self._subscribers if s is not subscription]
        self._refresh_reads()

    def _refresh_reads(self) -> None:
        reads: Optional[FrozenSet[str]] = frozenset()
        for subscription in self._subscribers:
            if subscription.reads is None:
                reads = None
                break
            reads |= subscription.reads
        if reads != self.reads:
            self.reads = reads

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    # -- flow control --------------------------------------------------------------

    def pause(self) -> None:
        """Drop tuples pushed while paused (used during workflow transitions)."""
        self._paused = True

    def resume(self) -> None:
        self._paused = False

    @property
    def paused(self) -> bool:
        return self._paused

    # -- state capture / restore ---------------------------------------------------

    def capture_state(self) -> Dict[str, Any]:
        """Snapshot the stream's durable facts (counters, pause flag).

        Subscriptions are *wiring*, not state — recovery rebuilds them by
        redeploying queries and views — so only the counters and the pause
        flag are captured.
        """
        return {
            "kind": "stream",
            "name": self.name,
            "paused": self._paused,
            "stats": self.stats.snapshot(),
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Restore counters and pause flag from :meth:`capture_state`."""
        self._paused = bool(state.get("paused", False))
        self.stats.restore(state.get("stats", {}))

    # -- data path ------------------------------------------------------------------

    def push(self, item: Mapping[str, Any]) -> None:
        """Deliver ``item`` to all current subscribers.

        Raises
        ------
        repro.errors.SchemaError
            If the stream declares required fields and ``item`` is missing
            one of them.
        """
        if self.fields is not None:
            self._check_schema(item)
        if self._paused:
            self.stats.dropped += 1
            return
        self.stats.pushed += 1
        first_error: Optional[BaseException] = None
        # Copy the subscriber list so callbacks may (un)subscribe during delivery.
        for subscription in list(self._subscribers):
            if subscription.active:
                try:
                    subscription.callback(item)
                except Exception as error:  # noqa: BLE001 — isolate, deliver to the rest
                    self._record_failure(subscription, error)
                    if first_error is None:
                        first_error = error
        if first_error is not None:
            raise first_error

    def push_many(self, items: Iterable[Mapping[str, Any]]) -> int:
        """Push every item of ``items`` one at a time; return the number pushed."""
        count = 0
        for item in items:
            self.push(item)
            count += 1
        return count

    def push_batch(self, items: Sequence[Mapping[str, Any]]) -> int:
        """Deliver ``items`` as one chunk per subscriber; return the number pushed.

        Subscribers registered with a ``batch_callback`` receive the whole
        chunk in a single call; others receive the items one by one.  Unlike
        :meth:`push_many` the chunk is drained per subscriber, so callbacks
        of different subscribers are not interleaved (see module docstring);
        a subscriber feeding a derived stream therefore emits its whole
        transformed chunk before the next subscriber sees any tuple.
        """
        items = list(items)
        if self.fields is not None:
            for item in items:
                self._check_schema(item)
        if self._paused:
            self.stats.dropped += len(items)
            return 0
        if not items:
            return 0
        self.stats.pushed += len(items)
        first_error: Optional[BaseException] = None
        # Copy the subscriber list so callbacks may (un)subscribe during delivery.
        for subscription in list(self._subscribers):
            if not subscription.active:
                continue
            try:
                if subscription.batch_callback is not None:
                    subscription.batch_callback(items)
                else:
                    for item in items:
                        if not subscription.active:
                            break
                        subscription.callback(item)
            except Exception as error:  # noqa: BLE001 — isolate, deliver to the rest
                self._record_failure(subscription, error)
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error
        return len(items)

    def _record_failure(self, subscription: Subscription, error: BaseException) -> None:
        self.record_failure(subscription.name or repr(subscription.callback), error)

    def record_failure(self, subscriber: str, error: BaseException) -> None:
        """Remember a delivery failure.  A subscriber fanning out to several
        consumers (the engine's per-stream query fan-out) records each
        consumer's failure under the consumer's name before re-raising the
        first, which is then not recorded twice."""
        if any(failure.error is error for failure in self.delivery_errors):
            return
        self.delivery_errors.append(
            DeliveryFailure(stream=self.name, subscriber=subscriber, error=error)
        )

    def _check_schema(self, item: Mapping[str, Any]) -> None:
        missing = self.fields.difference(item.keys())
        if missing:
            from repro.errors import SchemaError

            raise SchemaError(
                f"tuple pushed to stream '{self.name}' is missing fields: "
                f"{sorted(missing)}"
            )

    def __repr__(self) -> str:
        return (
            f"Stream(name={self.name!r}, subscribers={self.subscriber_count}, "
            f"pushed={self.stats.pushed})"
        )


class StreamRegistry:
    """A name → :class:`Stream` mapping with helpful errors.

    The CEP engine owns one registry; views and queries resolve their input
    streams through it.
    """

    def __init__(self) -> None:
        self._streams: Dict[str, Stream] = {}

    def register(self, stream: Stream) -> Stream:
        if stream.name in self._streams:
            from repro.errors import QueryRegistrationError

            raise QueryRegistrationError(
                f"a stream named '{stream.name}' is already registered"
            )
        self._streams[stream.name] = stream
        return stream

    def create(self, name: str, fields: Optional[Iterable[str]] = None) -> Stream:
        """Create and register a new stream in one step."""
        return self.register(Stream(name, fields=fields))

    def get(self, name: str) -> Stream:
        try:
            return self._streams[name]
        except KeyError:
            from repro.errors import UnknownStreamError

            raise UnknownStreamError(
                f"unknown stream '{name}'; registered streams: "
                f"{sorted(self._streams)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def names(self) -> List[str]:
        return sorted(self._streams)

    def remove(self, name: str) -> None:
        self._streams.pop(name, None)

    def __len__(self) -> int:
        return len(self._streams)
