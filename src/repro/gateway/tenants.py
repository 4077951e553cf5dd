"""Per-tenant state: session ownership, ingest queue, edge admission.

One :class:`Tenant` owns one :class:`~repro.api.session.GestureSession`
(inline or sharded, per its :class:`TenantConfig`), an ordered ingest
queue serviced by a single worker task, and the admission-control state
(token bucket, pending-tuple bound, connection cap).  The worker feeds
the session on an executor thread — the event loop never blocks on
matching — and pushes new detections to every subscribed connection
after each feed, preserving detection order per tenant.

Isolation contract: tenants share nothing but the process.  Every tenant
has its own engine(s), matchers, detector, metrics and database (see
``tests/test_session_isolation.py``), so one tenant's vocabulary,
backlog or failure never shows up in another tenant's detections — the
property the whole gateway tenancy model rests on.

Edge admission applies a backpressure policy per client
(:class:`BackpressurePolicy`).  The edge is the one place the pipeline
sheds load: below it a sharded session's producer waits for its shards,
so every tuple the tenant feeds is processed.  The four policies:

``block``
    The ``tuples`` frame is held (the server stops reading that client's
    socket — flow-control stall via TCP backpressure) until the pending
    bound has room and the rate limiter has tokens.
``drop_oldest``
    The oldest *queued* tuples are evicted to make room and counted; the
    offered frame is admitted.  A rate-limit excess drops the offered
    frame instead (old tuples cannot refund arrival tokens).
``drop_newest``
    The offered frame is dropped whole and counted; the backlog keeps
    its service guarantee.
``error``
    A typed ``error`` frame (``backpressure`` / ``rate_limited``) is
    sent and the connection is closed — for clients running their own
    flow control.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.session import GestureSession, SessionConfig
from repro.detection.events import GestureEvent
from repro.errors import AdmissionError, BackpressureError, GatewayError
from repro.observability.registry import Family, Sample, scalar_samples
from repro.observability.tracing import TraceContext

__all__ = [
    "TENANT_FAMILIES",
    "AsyncIngestQueue",
    "BackpressurePolicy",
    "Tenant",
    "TenantConfig",
    "TokenBucket",
]

#: Per-tenant admission series of the gateway's ``/metrics`` (label
#: ``tenant``); the keys are those of :meth:`Tenant.snapshot`.
TENANT_FAMILIES = (
    Family("connections", "repro_gateway_tenant_connections", "gauge", "Websocket connections attached to the tenant."),
    Family("pending_tuples", "repro_gateway_tenant_pending_tuples", "gauge", "Tuples waiting in the tenant's ingest queue."),
    Family("tuples_fed", "repro_gateway_tenant_tuples_fed_total", "counter", "Tuples fed to the tenant's session."),
    Family("tuples_dropped", "repro_gateway_tenant_tuples_dropped_total", "counter", "Tuples the tenant's admission policy dropped."),
)


class BackpressurePolicy:
    """The edge admission policy names (see the module docstring)."""

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


@dataclass(frozen=True)
class TenantConfig:
    """Admission and session configuration of one tenant.

    Attributes
    ----------
    token:
        Shared secret a ``hello`` must present; ``None`` disables
        authentication for the tenant.
    session:
        The tenant's :class:`~repro.api.session.SessionConfig` — shards,
        matcher partitioning, analyzer gate (``session.analyze`` is what
        strict-mode deployment rejection uses), batch size (how many of a
        ``tuples`` frame's records go to the engine at once when the frame
        names no ``batch``; unset, a frame is one batch).
    policy:
        Edge admission policy (a :class:`BackpressurePolicy` name).  It
        governs the tenant's ingest queue, the one place the tenant's
        tuples can be dropped: a sharded session behind it never drops.
    pending_capacity:
        Bound on tuples admitted but not yet fed, per tenant.
    max_connections:
        Concurrent websocket connections the tenant may hold.
    rate_limit_tuples_per_second:
        Sustained arrival-rate cap (token bucket); ``None`` = unlimited.
    rate_burst:
        Bucket size; defaults to one second's worth of tokens.
    """

    token: Optional[str] = None
    session: SessionConfig = field(default_factory=SessionConfig)
    policy: str = BackpressurePolicy.BLOCK
    pending_capacity: int = 4096
    max_connections: int = 64
    rate_limit_tuples_per_second: Optional[float] = None
    rate_burst: Optional[float] = None

    def __post_init__(self) -> None:
        BackpressurePolicy.validate(self.policy)
        if self.pending_capacity < 1:
            raise ValueError("pending_capacity must be at least 1")
        if self.max_connections < 1:
            raise ValueError("max_connections must be at least 1")
        if (
            self.rate_limit_tuples_per_second is not None
            and self.rate_limit_tuples_per_second <= 0
        ):
            raise ValueError("rate_limit_tuples_per_second must be positive")
        if self.rate_burst is not None and self.rate_burst <= 0:
            raise ValueError("rate_burst must be positive")


class TokenBucket:
    """A token bucket over an injectable monotonic clock (testable)."""

    def __init__(
        self,
        rate: float,
        burst: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.rate = rate
        self.burst = burst if burst is not None else max(rate, 1.0)
        self._tokens = self.burst
        self._clock = clock
        self._last: Optional[float] = None

    def _now(self) -> float:
        if self._clock is not None:
            return self._clock()
        return asyncio.get_running_loop().time()

    def consume(self, count: float) -> float:
        """Take ``count`` tokens; returns 0.0 on success, else the wait.

        When the bucket cannot cover ``count`` the tokens are *not*
        consumed and the return value is the seconds until they could be.
        """
        now = self._now()
        if self._last is not None:
            self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
        self._last = now
        if count <= self._tokens:
            self._tokens -= count
            return 0.0
        return (count - self._tokens) / self.rate


@dataclass
class _Item:
    kind: str  # "tuples" | "control"
    weight: int
    stream: Optional[str] = None
    records: Optional[List[Mapping[str, Any]]] = None
    batch_size: Optional[int] = None
    op: Optional[str] = None
    payload: Any = None
    future: Optional[asyncio.Future] = None
    trace: Optional[TraceContext] = None


class AsyncIngestQueue:
    """A bounded asyncio ingest queue in front of one tenant's session.

    Bounded in tuples; control items weigh zero and are never dropped
    (dropping a queued ``deploy`` or ``drain`` would wedge its caller).
    Single consumer (the tenant worker), many producers (the tenant's
    connections, all on the loop thread).
    """

    def __init__(self, capacity: int, policy: str) -> None:
        self.capacity = capacity
        self.policy = BackpressurePolicy.validate(policy)
        self._items: Deque[_Item] = deque()
        self._weight = 0
        self._closed = False
        self._not_empty = asyncio.Event()
        self._not_full = asyncio.Event()
        self._not_full.set()

    @property
    def depth(self) -> int:
        """Queued tuple count."""
        return self._weight

    async def put_tuples(
        self,
        stream: Optional[str],
        records: List[Mapping[str, Any]],
        batch_size: Optional[int],
        trace: Optional[TraceContext] = None,
    ) -> int:
        """Admit a tuples chunk per policy; returns the tuples dropped.

        Under ``drop_oldest`` the dropped tuples are *older* queued ones
        (the chunk is admitted); under ``drop_newest`` they are the
        offered chunk itself.  ``error`` raises
        :class:`~repro.errors.BackpressureError`; ``block`` suspends the
        caller — and, because the caller is the connection's only reader
        task, stops reading that client's socket (TCP flow control).
        """
        weight = len(records)
        dropped = 0
        if self._weight + weight > self.capacity:
            if self.policy == BackpressurePolicy.ERROR:
                raise BackpressureError(
                    f"tenant ingest queue is full ({self._weight}/"
                    f"{self.capacity} tuples pending, {weight} more offered)"
                )
            if self.policy == BackpressurePolicy.DROP_NEWEST:
                if self._weight > 0:
                    return weight
                # Oversized chunk against an empty queue: admit it.
            elif self.policy == BackpressurePolicy.DROP_OLDEST:
                dropped = self._evict_oldest(self._weight + weight - self.capacity)
            else:  # block
                while self._weight > 0 and self._weight + weight > self.capacity:
                    if self._closed:
                        raise GatewayError("the tenant ingest queue is closed")
                    self._not_full.clear()
                    await self._not_full.wait()
        if self._closed:
            raise GatewayError("the tenant ingest queue is closed")
        self._items.append(
            _Item(
                kind="tuples",
                weight=weight,
                stream=stream,
                records=records,
                batch_size=batch_size,
                trace=trace,
            )
        )
        self._weight += weight
        self._not_empty.set()
        return dropped

    def _evict_oldest(self, need: int) -> int:
        dropped = 0
        kept: List[_Item] = []
        while self._items and dropped < need:
            item = self._items.popleft()
            if item.weight == 0:
                kept.append(item)
                continue
            dropped += item.weight
            self._weight -= item.weight
        for item in reversed(kept):
            self._items.appendleft(item)
        return dropped

    def put_control(self, op: str, payload: Any = None) -> "asyncio.Future[Any]":
        """Enqueue a control op (weight 0); resolved by the worker."""
        if self._closed:
            raise GatewayError("the tenant ingest queue is closed")
        future: "asyncio.Future[Any]" = asyncio.get_running_loop().create_future()
        self._items.append(_Item(kind="control", weight=0, op=op, payload=payload, future=future))
        self._not_empty.set()
        return future

    async def get(self) -> Optional[_Item]:
        """Next item in FIFO order; ``None`` once closed and empty."""
        while not self._items:
            if self._closed:
                return None
            self._not_empty.clear()
            await self._not_empty.wait()
        item = self._items.popleft()
        self._weight -= item.weight
        self._not_full.set()
        return item

    def close(self) -> None:
        """Refuse further puts; queued items stay readable (drain-on-close)."""
        self._closed = True
        self._not_empty.set()
        self._not_full.set()


class Tenant:
    """One tenant: session, ingest worker, admission state, subscribers."""

    def __init__(
        self,
        name: str,
        config: TenantConfig,
        executor: Optional[Executor] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.config = config
        # One thread per tenant, for the session's whole life: SQLite
        # handles (the gesture database) are bound to their creating
        # thread, so start, feeds, deploys and close must all run on the
        # same one.  A sharded session fans out to its own shard workers
        # from there; tenants stay concurrent with each other because
        # each owns its own executor.
        self._executor = executor or ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-gateway-{name}"
        )
        self._owns_executor = executor is None
        self.queue = AsyncIngestQueue(config.pending_capacity, config.policy)
        self.bucket = (
            TokenBucket(
                config.rate_limit_tuples_per_second,
                config.rate_burst,
                clock=clock,
            )
            if config.rate_limit_tuples_per_second is not None
            else None
        )
        self.session: Optional[GestureSession] = None
        #: Connections attached via ``hello``; the subset with
        #: ``subscribe`` receives ``event`` pushes.
        self.connections: "set" = set()
        self.subscribers: "set" = set()
        self._worker: Optional[asyncio.Task] = None
        self._session_lock = asyncio.Lock()
        #: Filled by the session's ``on_any`` handler from the feed
        #: thread, flushed to subscribers by the worker after each feed.
        self._event_buffer: Deque[GestureEvent] = deque()
        self._event_lock = threading.Lock()
        self.tuples_dropped = 0
        self.tuples_fed = 0
        self.rate_dropped = 0
        #: Feed errors are fatal for the tenant, never for the gateway.
        self.failure: Optional[BaseException] = None

    # -- lifecycle ---------------------------------------------------------------------

    async def ensure_started(self) -> GestureSession:
        """Create, start and wire the tenant's session (once)."""
        async with self._session_lock:
            if self.session is None:
                loop = asyncio.get_running_loop()
                session = GestureSession(config=self.config.session)
                await loop.run_in_executor(self._executor, session.start)
                session.on_any(self._buffer_event)
                self.session = session
                self._worker = loop.create_task(
                    self._run_worker(), name=f"repro-gateway-tenant-{self.name}"
                )
            return self.session

    async def close(self) -> None:
        """Drain queued work, stop the worker, close the session."""
        if self._worker is not None and not self._worker.done():
            stop = self.queue.put_control("stop")
            self.queue.close()
            try:
                await stop
            finally:
                await self._worker
        else:
            self.queue.close()
        if self.session is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(self._executor, self.session.close)
        if self._owns_executor:
            self._executor.shutdown(wait=False)

    # -- admission + ingestion -----------------------------------------------------------

    def check_connection_limit(self) -> None:
        if len(self.connections) >= self.config.max_connections:
            raise AdmissionError(
                f"tenant '{self.name}' is at its connection cap "
                f"({self.config.max_connections})"
            )

    def authenticate(self, token: Optional[str]) -> bool:
        return self.config.token is None or self.config.token == token

    async def admit_rate(self, count: int) -> int:
        """Apply the rate limiter; returns tuples dropped (0 or ``count``).

        ``block`` waits for tokens, the drop policies drop the offered
        chunk, ``error`` raises :class:`~repro.errors.AdmissionError`.
        """
        if self.bucket is None:
            return 0
        wait = self.bucket.consume(count)
        if wait <= 0:
            return 0
        if self.config.policy == BackpressurePolicy.BLOCK:
            while wait > 0:
                await asyncio.sleep(wait)
                wait = self.bucket.consume(count)
            return 0
        if self.config.policy == BackpressurePolicy.ERROR:
            raise AdmissionError(
                f"tenant '{self.name}' exceeded its rate limit of "
                f"{self.config.rate_limit_tuples_per_second} tuples/s"
            )
        self.rate_dropped += count
        self.tuples_dropped += count
        return count

    async def ingest(
        self,
        records: List[Mapping[str, Any]],
        stream: Optional[str],
        batch_size: Optional[int],
        trace: Optional[TraceContext] = None,
    ) -> Tuple[int, int]:
        """Admit one tuples frame; returns ``(accepted, dropped)``.

        ``dropped`` counts this frame's tuples under ``drop_newest`` /
        rate limiting, or *older* queued tuples under ``drop_oldest``
        (the frame itself is then accepted — accepted means queued, not
        survived).  ``trace`` rides the queued item to the feed, so a
        sampled request's spans connect the gateway frame to the shard
        worker that eventually processes it.
        """
        self.raise_if_failed()
        count = len(records)
        rate_dropped = await self.admit_rate(count)
        if rate_dropped:
            return 0, rate_dropped
        dropped = await self.queue.put_tuples(stream, records, batch_size, trace)
        self.tuples_dropped += dropped
        if self.queue.policy == BackpressurePolicy.DROP_NEWEST and dropped:
            return 0, dropped
        return count, dropped

    def control(self, op: str, payload: Any = None) -> "asyncio.Future[Any]":
        """Queue a control op behind all earlier ingests (FIFO barrier)."""
        self.raise_if_failed()
        return self.queue.put_control(op, payload)

    def raise_if_failed(self) -> None:
        if self.failure is not None:
            raise self._failed_error()

    def _failed_error(self) -> GatewayError:
        """What every later request meets once a feed failed the tenant."""
        error = GatewayError(f"tenant '{self.name}' failed: {self.failure!r}")
        error.__cause__ = self.failure
        return error

    # -- worker ------------------------------------------------------------------------

    def _buffer_event(self, event: GestureEvent) -> None:
        """Session ``on_any`` handler; runs on the feed (executor) thread."""
        with self._event_lock:
            self._event_buffer.append(event)

    def _drain_event_buffer(self) -> List[GestureEvent]:
        with self._event_lock:
            events = list(self._event_buffer)
            self._event_buffer.clear()
        return events

    async def _run_worker(self) -> None:
        """Service the ingest queue in order; feeds run on the executor.

        Once a feed failed the tenant, nothing queued behind it runs: later
        frames are not fed and every queued control fails with the
        tenant's failure.  ``stop`` still resolves, so :meth:`close` works.
        """
        loop = asyncio.get_running_loop()
        assert self.session is not None
        session = self.session
        while True:
            item = await self.queue.get()
            if item is None:
                break
            if self.failure is not None and item.op != "stop":
                if item.future is not None and not item.future.cancelled():
                    item.future.set_exception(self._failed_error())
                continue
            try:
                if item.kind == "tuples":
                    assert item.records is not None
                    await loop.run_in_executor(
                        self._executor,
                        self._feed_sync,
                        session,
                        item.stream,
                        item.records,
                        item.batch_size,
                        item.trace,
                    )
                elif item.op == "stop":
                    if item.future is not None and not item.future.cancelled():
                        item.future.set_result(None)
                    break
                else:
                    result = await loop.run_in_executor(
                        self._executor, self._control_sync, session, item.op, item.payload
                    )
                    if item.future is not None and not item.future.cancelled():
                        item.future.set_result(result)
            except Exception as error:  # noqa: BLE001 — isolate the tenant, not the loop
                if item.future is not None and not item.future.cancelled():
                    item.future.set_exception(error)
                elif item.kind == "tuples":
                    # A feed failure poisons the tenant (its matcher state
                    # is now unknown) but never the gateway.
                    self.failure = error
            await self._flush_events()

    def _feed_sync(
        self,
        session: GestureSession,
        stream: Optional[str],
        records: List[Mapping[str, Any]],
        batch_size: Optional[int],
        trace: Optional[TraceContext] = None,
    ) -> None:
        # The frame's tuples arrived together and its detections are pushed
        # only after all of them are fed, so feeding the frame as one batch
        # delays nothing; a smaller batch is the frame's or tenant's choice.
        batch_size = batch_size or self.config.session.batch_size or len(records)
        session.feed(records, batch_size=batch_size, stream=stream, trace=trace)
        self.tuples_fed += len(records)

    def _control_sync(self, session: GestureSession, op: Optional[str], payload: Any) -> Any:
        """Run one control op on the executor thread, after earlier feeds."""
        if op == "drain":
            session.drain()
            return None
        if op == "deploy":
            deployed = session.deploy(payload["query"], name=payload.get("name"))
            return [deployed.name]
        if op == "deploy_manifest":
            return session.deploy_vocabulary(payload)
        if op == "deploy_database":
            from repro.storage.database import GestureDatabase

            database = GestureDatabase(payload)
            try:
                return session.deploy_vocabulary(database)
            finally:
                database.close()
        if op == "detections":
            session.drain()
            kwargs = {}
            if payload.get("partition") is not None:
                kwargs["partition"] = payload["partition"]
            return [
                d.to_state()
                for d in session.detections(payload.get("name"), **kwargs)
            ]
        if op == "call":
            # Escape hatch for tests and the benchmark: run a callable
            # against the session, serialised behind the ingest queue.
            return payload(session)
        raise GatewayError(f"unknown tenant control op {op!r}")

    async def _flush_events(self) -> None:
        """Push buffered detections to every subscribed connection."""
        events = self._drain_event_buffer()
        if not events:
            return
        for connection in list(self.subscribers):
            await connection.push_events(events)

    # -- introspection -----------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Admission/session counters for the ``/metrics`` document."""
        session = self.session
        registry = session.metrics if session is not None else None
        return {
            "connections": len(self.connections),
            "subscribers": len(self.subscribers),
            "pending_tuples": self.queue.depth,
            "pending_capacity": self.config.pending_capacity,
            "policy": self.config.policy,
            "tuples_fed": self.tuples_fed,
            "tuples_dropped": self.tuples_dropped,
            "rate_dropped": self.rate_dropped,
            "failed": self.failure is not None,
            "session_metrics": registry.snapshot() if registry is not None else None,
        }

    def samples(self) -> List[Sample]:
        """The :data:`TENANT_FAMILIES` samples for the ``/metrics`` exposition."""
        values = {
            "connections": len(self.connections),
            "pending_tuples": self.queue.depth,
            "tuples_fed": self.tuples_fed,
            "tuples_dropped": self.tuples_dropped,
        }
        return scalar_samples(TENANT_FAMILIES, values, {"tenant": self.name})

    def __repr__(self) -> str:
        return (
            f"Tenant(name={self.name!r}, connections={len(self.connections)}, "
            f"pending={self.queue.depth}, policy={self.config.policy!r})"
        )
