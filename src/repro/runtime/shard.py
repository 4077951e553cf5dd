"""Worker shards: one engine, one inbox, one worker loop each.

A shard is the unit of concurrency of the sharded runtime.  Its worker
(:func:`worker_loop`) owns a private :class:`~repro.cep.engine.CEPEngine`
and is the only code that ever touches it: tuples *and* control
operations arrive as messages on one FIFO inbox, so a control enqueued
after a feed observes all of that feed's tuples, exactly like an inline
engine would.  The parent-side :class:`Shard` speaks that protocol through
a transport (:mod:`repro.runtime.transport`) and neither it nor the loop
knows whether the worker is a thread or a child process.

The parent side owns everything that is the same on every transport:
admission (a credit counter bounding the tuples in flight), failures, and
the control round-trip through which progress, counters and telemetry are
read.  The message table, what each transport can and cannot do, and the
failure semantics are in ``docs/runtime.md``.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
import traceback
from concurrent import futures
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cep.engine import CEPEngine
from repro.cep.matcher import Detection, MatcherConfig
from repro.cep.sinks import CallbackSink
from repro.cep.views import TRANSFORMED_STREAM_NAME, install_kinect_view
from repro.errors import RuntimeStateError, ShardFailedError
from repro.observability.clock import monotonic_time, perf_clock
from repro.observability.registry import MetricSet
from repro.observability.tracing import TraceContext, Tracer, use_context
from repro.streams.clock import SimulatedClock
from repro.transform.pipeline import TransformConfig

if TYPE_CHECKING:
    from repro.runtime.transport import Transport

__all__ = [
    "RemoteShardError",
    "Shard",
    "ShardEngineSpec",
    "ShardFailure",
    "worker_loop",
]

#: One batch's detections in emission order, each with the ingest→detection
#: time the worker measured at emit (``None`` when telemetry is off).
Emitted = Sequence[Tuple[Detection, Optional[float]]]

#: How detections leave a shard: ``callback(shard_id, emitted)``, once per
#: ``done`` (or ``failed``) that carries any.
DetectionCallback = Callable[[int, Emitted], None]

#: A message of the shard protocol: a tuple whose first item is its kind.
Message = tuple


class RemoteShardError(Exception):
    """An exception that happened inside a shard *process*.

    The original object cannot always cross the pipe, so this carries its
    ``repr`` and the formatted remote traceback instead.
    """

    def __init__(self, message: str, remote_traceback: str = "") -> None:
        super().__init__(message)
        self.remote_traceback = remote_traceback

    def __reduce__(self):
        # The default reduction replays ``args`` only and would lose the
        # traceback on the way to the parent.
        return (RemoteShardError, (self.args[0], self.remote_traceback))


@dataclass
class ShardFailure:
    """Why a shard died: the exception plus its (possibly remote) traceback."""

    shard_id: int
    error: BaseException
    traceback_text: str = ""

    def as_error(self) -> ShardFailedError:
        error = ShardFailedError(self.shard_id, self.error, detail=self.traceback_text)
        error.__cause__ = self.error
        return error

    def raise_(self) -> None:
        raise self.as_error()


@dataclass(frozen=True)
class ShardEngineSpec:
    """A picklable recipe for one shard's engine.

    Each shard builds the standard stack from it: a fresh
    :class:`~repro.cep.engine.CEPEngine` with the configured matcher
    defaults and the Kinect transformation view from ``kinect`` to
    ``kinect_t`` — or, with ``install_view=False``, only a ``kinect_t``
    stream to feed transformed tuples into.  Being a plain dataclass of
    plain dataclasses it crosses a process boundary losslessly, which is
    what lets thread and process workers run *identical* engines.
    """

    matcher: MatcherConfig = field(default_factory=MatcherConfig)
    transform: TransformConfig = field(default_factory=TransformConfig)
    install_view: bool = True
    #: The sample rate of the worker's tracer; ``None`` means telemetry is
    #: off and the worker has no tracer.  Rides the pickle boundary with
    #: the rest of the spec, so a worker process builds the same tracer
    #: the parent runs.
    telemetry: Optional[float] = None

    def build(self) -> CEPEngine:
        engine = CEPEngine(clock=SimulatedClock(), matcher_config=self.matcher)
        if self.install_view:
            install_kinect_view(engine, transform_config=self.transform)
        else:
            engine.create_stream(TRANSFORMED_STREAM_NAME)
        return engine

    def build_tracer(self) -> Optional[Tracer]:
        """The tracer this spec describes (``None`` with telemetry off)."""
        return None if self.telemetry is None else Tracer(sample_rate=self.telemetry)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _apply_control(engine: CEPEngine, op: str, payload: Any) -> Any:
    """Execute one control operation against a shard-local engine.

    Only plain data is returned (it rides the ``ack`` to the parent); live
    objects such as a deployed query stay with the worker, because they
    could not cross a process boundary and nothing parent-side wants one.
    The worker's control tap attaches the detection callback to every
    query the engine deploys, here or in ``restore_state``.
    """
    if op == "capture_state":
        return engine.capture_state()
    if op == "query_stats":
        return engine.query_stats()
    if op == "progress":
        return engine.query_progress()
    if op == "deploy":
        name, text = payload
        engine.register_query(text, name=name)
    elif op == "undeploy":
        engine.unregister_query(payload)
    elif op == "enable":
        engine.enable_query(*payload)
    elif op == "reset_scene":
        engine.reset_scene()
    elif op == "register_function":
        engine.register_function(*payload)
    elif op == "restore_state":
        engine.restore_state(payload)
    elif op != "flush":
        raise ValueError(f"unknown shard control operation {op!r}")
    return None


def _run_batch(
    engine: CEPEngine,
    tracer: Optional[Tracer],
    shard_id: int,
    stream: str,
    records: Sequence[Mapping[str, Any]],
    batch_size: Optional[int],
    meta: Optional[Any],
) -> "tuple[float, Optional[float]]":
    """Process one queued batch; returns ``(busy_seconds, queue_wait)``.

    ``meta`` is the telemetry stamp the producer attached at enqueue time
    — ``(enqueue_monotonic, trace_context)`` — or ``None`` when telemetry
    is off, in which case this is the bare ``push_many`` plus one
    ``is None`` check.
    """
    queue_wait: Optional[float] = None
    trace: Optional[TraceContext] = None
    if meta is not None:
        enqueued_at, trace = meta
        dequeued_at = monotonic_time()
        queue_wait = max(0.0, dequeued_at - enqueued_at)
    span = None
    if trace is not None and tracer is not None and tracer.active:
        tracer.record_between(
            "queue.wait",
            "queue",
            trace,
            dequeued_at - queue_wait,
            dequeued_at,
            shard=shard_id,
            tuples=len(records),
        )
        span = tracer.span(
            "shard.batch",
            "shard",
            trace,
            shard=shard_id,
            stream=stream,
            tuples=len(records),
        )
    started = perf_clock()
    if span is not None:
        with use_context(span.context):
            engine.push_many(stream, records, batch_size=batch_size)
    else:
        engine.push_many(stream, records, batch_size=batch_size)
    busy = perf_clock() - started
    if span is not None:
        span.close()
    return busy, queue_wait


def worker_loop(
    shard_id: int,
    spec: ShardEngineSpec,
    receive: Callable[[], Message],
    send: Callable[[Message], None],
) -> None:
    """Service one shard: build its engine, then answer messages until ``stop``.

    ``receive()`` blocks for the next inbox message and ``send(message)``
    delivers one to the parent-side :class:`Shard`; the loop talks to
    nothing else, so it runs unchanged on a thread or in a child process.
    Every inbox message gets exactly one reply: a tuple batch its ``done``,
    which carries the batch's detections in emission order (the engine's
    log then drops them: the parent's log is their one copy), a control
    its ``ack`` or ``nack``.  A data-path failure ends the loop with
    ``failed``, carrying the detections emitted before it.  The worker
    builds its own tracer from the spec and ships its spans on
    ``telemetry`` controls.
    """
    try:
        engine = spec.build()
        tracer = spec.build_tracer()
        engine.tracer = tracer
    except Exception as error:  # noqa: BLE001 — a dead shard must report, not raise
        send(("failed", error, traceback.format_exc(), []))
        send(("bye",))
        return

    # Ingest stamp of the batch being processed: detections emitted
    # synchronously under its push read their ingest→detection latency
    # here, where the stamp is live, with one clock call.  Delivery to the
    # parent is excluded by design (it is dispatch, not pipeline time).
    enqueued_at: Optional[float] = None
    # ``(detection, latency)`` emitted since the last reply; they leave
    # with the next one.  A fresh list per reply: a thread transport hands
    # the message itself to the parent.
    emitted: List[Tuple[Detection, Optional[float]]] = []

    def emit(detection: Detection) -> None:
        latency = None if enqueued_at is None else max(0.0, monotonic_time() - enqueued_at)
        emitted.append((detection, latency))

    def wire(op: str, payload: Dict[str, Any]) -> None:
        if op == "deploy":
            engine.get_query(payload["name"]).sink.add(CallbackSink(emit))

    engine.add_control_tap(wire)

    while True:
        message = receive()
        kind = message[0]
        if kind == "stop":
            break
        try:
            if kind == "tuples":
                _tag, stream, records, batch_size, meta = message
                enqueued_at = meta[0] if meta is not None else None
                busy, queue_wait = _run_batch(
                    engine, tracer, shard_id, stream, records, batch_size, meta
                )
                enqueued_at = None
                reply = ("done", len(records), busy, queue_wait, emitted)
                if emitted:
                    # They leave with the reply: the parent's log is their one copy.
                    engine.clear_detections()
                emitted = []
                send(reply)
            elif kind == "control":
                _tag, token, op, payload = message
                try:
                    # ``telemetry`` is answered here: it drains the worker's
                    # own tracer (spans are never re-sent), which
                    # ``_apply_control`` cannot see.
                    if op == "telemetry":
                        result = None if tracer is None else {"spans": tracer.drain()}
                    else:
                        result = _apply_control(engine, op, payload)
                except Exception as error:  # noqa: BLE001 — report to the caller, shard lives
                    reply = ("nack", token, error, traceback.format_exc())
                else:
                    reply = ("ack", token, result)
                if emitted:
                    # No control emits today; one that did would have no
                    # reply to carry its detections, so it fails the shard
                    # and they leave with ``failed`` below.
                    raise RuntimeError(
                        f"shard {shard_id} control {op!r} emitted detections outside a tuple batch"
                    )
                send(reply)
        except Exception as error:  # noqa: BLE001 — data-path failure kills the shard
            send(("failed", error, traceback.format_exc(), emitted))
            break
    send(("bye",))


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class _Credits:
    """The bound on one worker's tuples in flight: admitted, not yet ``done``."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._in_flight = 0
        self._lock = threading.Lock()
        self._released = threading.Condition(self._lock)
        self.broken = False

    def acquire(self, count: int) -> Optional[int]:
        """Admit ``count`` tuples; the new in-flight total, or ``None`` if broken.

        The caller waits while earlier work is in flight and the chunk
        does not fit; with nothing in flight any chunk is admitted, so an
        oversized one cannot wait forever on itself.
        """
        with self._lock:
            while (
                self._in_flight > 0
                and self._in_flight + count > self.capacity
                and not self.broken
            ):
                self._released.wait()
            if self.broken:
                return None
            self._in_flight += count
            return self._in_flight

    def release(self, count: int) -> None:
        with self._lock:
            self._in_flight = max(0, self._in_flight - count)
            self._released.notify_all()

    def break_(self) -> None:
        """Wake and refuse all waiters (the worker is gone)."""
        with self._lock:
            self.broken = True
            self._released.notify_all()

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight


class Shard:
    """Parent-side handle of one worker: producer API plus message handler.

    Owns everything that is the same whichever transport carries the
    messages: admission (at most ``capacity`` tuples in flight, refilled
    by the worker's ``done`` messages; a producer that outruns the worker
    waits), failure bookkeeping, chunked tuple enqueue, the
    token-keyed control round-trip, and the handler for what the worker
    sends back.
    """

    def __init__(
        self,
        shard_id: int,
        metrics: MetricSet,
        on_detections: DetectionCallback,
        transport: "Transport",
        tracer: Optional[Tracer] = None,
        capacity: int = 2048,
    ) -> None:
        self.shard_id = shard_id
        self.metrics = metrics
        self.transport = transport
        #: The parent-side tracer; the worker's spans are absorbed into it
        #: by :meth:`collect_telemetry`.  ``None`` with telemetry off.
        self.tracer = tracer
        self.capacity = capacity
        self._credits = _Credits(capacity)
        self._on_detections = on_detections
        self._failure: Optional[ShardFailure] = None
        self._failure_lock = threading.Lock()
        #: Control round-trips awaiting their ``ack``/``nack``, by token.
        self._pending: Dict[int, "futures.Future[Any]"] = {}
        self._pending_lock = threading.Lock()
        self._tokens = itertools.count(1)
        self._started = False
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            raise RuntimeStateError(f"shard {self.shard_id} is already started")
        self._started = True
        self.transport.start(self.handle)

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Ask the worker to exit; with ``drain`` queued work finishes first.

        Best-effort on shutdown: if the drain fails or times out the
        transport is closed anyway.
        """
        if not self._started or self._stopped:
            return
        if drain and not self.failed:
            with contextlib.suppress(Exception):
                self.control("flush", timeout=timeout)
        self._stopped = True
        self.transport.close()

    def join(self, timeout: Optional[float] = None) -> None:
        if self._started:
            self.transport.join(timeout)
            # Unblock any producer still waiting on credits.
            self._credits.break_()

    @property
    def queue_depth(self) -> int:
        """Tuples in flight: admitted and not yet reported ``done``."""
        return self._credits.in_flight

    # -- failure bookkeeping -----------------------------------------------------------

    @property
    def failure(self) -> Optional[ShardFailure]:
        with self._failure_lock:
            return self._failure

    @property
    def failed(self) -> bool:
        return self.failure is not None

    def raise_if_failed(self) -> None:
        failure = self.failure
        if failure is not None:
            failure.raise_()

    def _fail(self, error: BaseException, traceback_text: str = "") -> None:
        """Record the (first) failure and release everyone waiting on the shard."""
        with self._failure_lock:
            if self._failure is None:
                self._failure = ShardFailure(self.shard_id, error, traceback_text)
                self.metrics.add(errors=1)
            failure = self._failure
        with self._pending_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for reply in pending:
            reply.set_exception(failure.as_error())
        self._credits.break_()

    # -- producer API ------------------------------------------------------------------

    def _send(self, message: Message) -> None:
        if self._stopped:
            raise RuntimeStateError(f"shard {self.shard_id} is stopped")
        self.transport.send(message)

    def _admit(self, count: int) -> None:
        """Take ``count`` credits, waiting for ``done`` messages to free them."""
        in_flight = self._credits.acquire(count)
        if in_flight is None:
            raise RuntimeStateError(f"shard {self.shard_id} worker is gone")
        self.metrics.raise_to("queue_depth_hwm", in_flight)

    def enqueue_tuples(
        self,
        stream: str,
        records: Sequence[Mapping[str, Any]],
        batch_size: Optional[int] = None,
        trace: Optional[TraceContext] = None,
    ) -> None:
        """Queue a chunk of tuples for this shard, waiting for credits.

        Chunks are split to at most the capacity so the credit bound stays
        meaningful, and to at most ``batch_size`` so the worker's engine
        sees the same chunk boundaries an inline ``push_many(batch_size=…)``
        would produce.

        With telemetry on, each chunk carries ``(enqueue_time, trace)`` so
        the worker can measure queue wait and detection latency and
        continue the caller's trace; with telemetry off the stamp is
        ``None`` and the worker takes the unmeasured path.  The stamp is
        parent-clock monotonic time: on the platforms the process
        transport targets the monotonic clock is system-wide, so a child's
        readings share its epoch.
        """
        self.raise_if_failed()
        meta = (monotonic_time(), trace) if self.tracer is not None else None
        limit = self.capacity if batch_size is None else min(self.capacity, batch_size)
        for start in range(0, len(records), limit):
            chunk = records[start : start + limit]
            # A plain list crosses any transport, whatever Sequence came in.
            chunk = chunk if isinstance(chunk, list) else list(chunk)
            try:
                self._admit(len(chunk))
                self._send(("tuples", stream, chunk, batch_size, meta))
            except RuntimeStateError:
                # Credits break when the worker dies; surface the cause.
                self.raise_if_failed()
                raise
            self.metrics.add(tuples_enqueued=len(chunk))

    def control(self, op: str, payload: Any = None, timeout: Optional[float] = None) -> Any:
        """Run a control operation on the worker and wait for its result.

        Controls take no credits, so they never wait for one.  A failing control
        raises its error here and leaves the shard alive; a shard that
        fails (or whose worker vanishes) while the control is pending
        raises :class:`~repro.errors.ShardFailedError`.
        """
        reply: "futures.Future[Any]" = futures.Future()
        with self._pending_lock:
            token = next(self._tokens)
            self._pending[token] = reply
        try:
            # Checked once ``reply`` is registered: a failure recorded from
            # here on fails it too, even one the transport reports from
            # another thread while the worker still answers.
            self.raise_if_failed()
            self._send(("control", token, op, payload))
            deadline = None if timeout is None else time.monotonic() + timeout
            while not futures.wait([reply], timeout=0.5).done:
                if not self.transport.alive and not reply.done():
                    self._fail(
                        RemoteShardError(f"shard {self.shard_id} worker exited unexpectedly")
                    )
                elif deadline is not None and time.monotonic() > deadline:
                    raise RuntimeStateError(
                        f"shard {self.shard_id} control {op!r} timed out"
                    )
        except RuntimeStateError:
            self.raise_if_failed()
            raise
        finally:
            # A resolved reply is already gone; this forgets one that was
            # refused, or timed out and may still be acked late.
            with self._pending_lock:
                self._pending.pop(token, None)
        return reply.result()

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until everything enqueued so far has been processed.

        A ``flush`` round-trip: the inbox is FIFO, so the ack proves all
        earlier work finished.  Raises :class:`~repro.errors.RuntimeStateError`
        if ``timeout`` expires first — returning normally would let the
        caller read incomplete results believing them complete.
        """
        self.control("flush", timeout=timeout)

    def collect_telemetry(self, timeout: Optional[float] = None) -> None:
        """Pull the worker's spans into the parent's tracer.

        They are drained worker-side, so each is absorbed exactly once.
        Nothing to do with telemetry off.
        """
        if self.tracer is None:
            return
        # ``None`` from a worker that was configured without telemetry.
        payload = self.control("telemetry", timeout=timeout) or {}
        if payload.get("spans"):
            self.tracer.absorb(payload["spans"])

    # -- worker → parent ---------------------------------------------------------------

    def handle(self, message: Message) -> None:
        """Apply one message from the worker.

        Runs on the transport's delivery thread (the worker thread itself,
        or a process transport's listener).  A ``done`` dispatches its
        batch's detections before it refills the batch's credits, so a
        ``drain()`` that returns has seen every detection fed before it; a
        ``failed`` dispatches the detections emitted before the failure,
        then fails the shard.
        """
        kind = message[0]
        if kind == "done":
            _tag, count, busy, queue_wait, emitted = message
            if emitted:
                self._on_detections(self.shard_id, emitted)
            if queue_wait is not None:
                self.metrics.observe("queue_wait", queue_wait)
                self.metrics.observe("batch_processing", busy)
            self.metrics.add(tuples_processed=count, batches_processed=1, busy_seconds=busy)
            self._credits.release(count)
        elif kind in ("ack", "nack"):
            with self._pending_lock:
                reply = self._pending.pop(message[1], None)
            if reply is None:
                return  # the caller timed out and went away
            if kind == "ack":
                reply.set_result(message[2])
            else:
                reply.set_exception(message[2])
        elif kind == "failed":
            _tag, error, traceback_text, emitted = message
            if emitted:
                self._on_detections(self.shard_id, emitted)
            self._fail(error, traceback_text)
        # "bye" carries nothing: the transport ends its own delivery on it.
