"""Bounded per-shard queues with explicit backpressure.

Each worker shard is fed from one :class:`ShardQueue`.  The queue is
bounded **in tuples** (a chunk of 64 frames occupies 64 slots, a control
message occupies none), and what happens when a producer outruns a worker
is an explicit policy instead of an accident:

``"block"``
    The producer waits until the worker has made room — lossless, and the
    natural choice when replaying recordings at full speed.
``"drop_oldest"``
    The oldest queued *tuples* are discarded to make room and counted in
    the shard's metrics — the live-sensor choice, where a stale frame is
    worthless and the freshest data must win.  Control messages are never
    dropped.
``"drop_newest"``
    The *offered* tuples are discarded (and counted) when they do not
    fit — the queued backlog is left untouched.  The admission-control
    choice: work already accepted keeps its service guarantee, late
    arrivals pay the cost.  Control messages are never dropped.
``"error"``
    :class:`~repro.errors.BackpressureError` is raised to the producer —
    for callers that implement their own flow control.

The queue is strictly FIFO and never drops a control message, which is
what lets the runtime implement ``drain()`` as a ``flush`` control: its
acknowledgement proves everything queued before it was processed.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, List, Optional, Tuple

from repro.errors import BackpressureError, RuntimeStateError
from repro.observability.registry import MetricSet

__all__ = ["BackpressurePolicy", "ShardQueue"]


class BackpressurePolicy:
    """The backpressure policies a :class:`ShardQueue` understands."""

    BLOCK = "block"
    DROP_OLDEST = "drop_oldest"
    DROP_NEWEST = "drop_newest"
    ERROR = "error"

    ALL = (BLOCK, DROP_OLDEST, DROP_NEWEST, ERROR)

    @classmethod
    def validate(cls, policy: str) -> str:
        if policy not in cls.ALL:
            raise ValueError(
                f"unknown backpressure policy {policy!r}; expected one of {cls.ALL}"
            )
        return policy


class ShardQueue:
    """A bounded FIFO of ``(item, weight)`` entries shared by one producer
    side and one worker thread.

    ``weight`` is the number of tuples an item carries; control messages
    enqueue with weight 0 and are exempt from capacity accounting (they
    must reach the worker even when the data path is saturated — dropping
    a ``deploy`` or ``flush`` marker would wedge the runtime).
    """

    def __init__(
        self,
        capacity: int,
        policy: str = BackpressurePolicy.BLOCK,
        metrics: Optional[MetricSet] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        self.capacity = capacity
        self.policy = BackpressurePolicy.validate(policy)
        self.metrics = metrics
        self._items: deque = deque()
        self._weight = 0
        self._closed = False
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)

    # -- producer side ----------------------------------------------------------------

    def put(self, item: Any, weight: int = 0) -> int:
        """Enqueue ``item``; returns the number of tuples dropped to fit it.

        A chunk heavier than the whole capacity is admitted once the queue
        is empty (otherwise a ``block`` producer would deadlock against
        itself, and a ``drop_newest`` producer could never make progress);
        chunk your feeds to at most the capacity to keep the bound tight.
        """
        with self._lock:
            if self._closed:
                raise RuntimeStateError("the shard queue is closed")
            dropped = 0
            if weight > 0 and self._weight + weight > self.capacity:
                if self.policy == BackpressurePolicy.ERROR:
                    raise BackpressureError(
                        f"shard queue is full ({self._weight}/{self.capacity} "
                        f"tuples queued, {weight} more offered)"
                    )
                if self.policy == BackpressurePolicy.DROP_NEWEST:
                    if self._weight > 0:
                        # Reject the offered chunk whole; the backlog keeps
                        # its service guarantee.
                        if self.metrics is not None:
                            self.metrics.add(tuples_dropped=weight)
                        return weight
                    # Oversized chunk against an empty queue: admit it (the
                    # producer could otherwise never make progress).
                elif self.policy == BackpressurePolicy.DROP_OLDEST:
                    dropped = self._evict_oldest_locked(
                        self._weight + weight - self.capacity
                    )
                else:  # block
                    while (
                        self._weight > 0
                        and self._weight + weight > self.capacity
                        and not self._closed
                    ):
                        self._not_full.wait()
                    if self._closed:
                        raise RuntimeStateError("the shard queue is closed")
            self._items.append((item, weight))
            self._weight += weight
            if self.metrics is not None:
                if dropped:
                    self.metrics.add(tuples_dropped=dropped)
                self.metrics.raise_to("queue_depth_hwm", self._weight)
            self._not_empty.notify()
            return dropped

    def _evict_oldest_locked(self, need: int) -> int:
        """Drop the oldest tuple-bearing items until ``need`` slots are free.

        Control items (weight 0) are preserved in place; the relative order
        of everything kept is unchanged.
        """
        dropped = 0
        kept: List[Tuple[Any, int]] = []
        while self._items and dropped < need:
            item, weight = self._items.popleft()
            if weight == 0:
                kept.append((item, weight))
                continue
            dropped += weight
            self._weight -= weight
        for entry in reversed(kept):
            self._items.appendleft(entry)
        return dropped

    # -- worker side ------------------------------------------------------------------

    def get(self, timeout: Optional[float] = None) -> Optional[Tuple[Any, int]]:
        """Dequeue the next ``(item, weight)``; ``None`` on timeout/closed-empty."""
        with self._lock:
            while not self._items:
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout=timeout):
                    return None
            item, weight = self._items.popleft()
            self._weight -= weight
            self._not_full.notify_all()
            return item, weight

    # -- lifecycle --------------------------------------------------------------------

    def close(self) -> None:
        """Refuse further puts and wake every waiter.  Idempotent.

        Items already queued stay readable via :meth:`get` so a worker can
        finish a graceful drain after close.
        """
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    def abandon(self) -> None:
        """Discard all queued items (failure path)."""
        with self._lock:
            self._items.clear()
            self._weight = 0
            self._not_full.notify_all()

    @property
    def depth(self) -> int:
        """Queued tuple count (not items)."""
        with self._lock:
            return self._weight

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"ShardQueue(depth={self._weight}/{self.capacity}, "
                f"items={len(self._items)}, policy={self.policy!r}, "
                f"closed={self._closed})"
            )
