"""Shard transports: how protocol messages reach a worker and come back.

A transport owns the worker's *execution vehicle* (a thread or a child
process), the bounded inbox in front of it with its backpressure policy,
and the delivery of the worker's messages to the parent-side
:class:`~repro.runtime.shard.Shard`.  It knows nothing about engines,
controls or failures — those are the same on every transport and live in
``shard.py``.  What each one can and cannot do is tabulated in
``docs/runtime.md``.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import pickle
import queue
import threading
from typing import Callable, FrozenSet, Optional, Protocol

from repro.cep.engine import CEPEngine
from repro.errors import BackpressureError, RuntimeStateError, SerializationError
from repro.observability.registry import MetricSet
from repro.observability.telemetry import Telemetry
from repro.runtime.queues import BackpressurePolicy, ShardQueue
from repro.runtime.shard import Message, RemoteShardError, ShardEngineSpec, worker_loop

__all__ = ["TRANSPORTS", "MemoryTransport", "ProcessTransport", "Transport"]


class Transport(Protocol):
    """What a :class:`~repro.runtime.shard.Shard` needs from its carrier."""

    #: Tuples currently queued for the worker, and the bound on them.
    queue_depth: int
    queue_capacity: int
    #: Whether the worker can still make progress.
    alive: bool
    #: Idents of the threads that deliver worker messages (and therefore
    #: run detection callbacks) — code on them must not wait on the shard.
    worker_idents: FrozenSet[int]
    #: ``True`` when the worker lives outside this process: its telemetry
    #: must be collected, and ``engine`` stays ``None``.
    remote: bool
    #: The worker's live engine, once built, when it shares this process.
    engine: Optional[CEPEngine]

    def start(self, deliver: Callable[[Message], None], telemetry: Optional[Telemetry]) -> None:
        """Launch the worker; its messages are handed to ``deliver``.

        ``telemetry`` is the parent's live bundle, for a worker that can
        share it; a remote one builds its own from the spec.
        """

    def put_tuples(self, message: Message, weight: int) -> None:
        """Queue a ``tuples`` message of ``weight`` tuples under the policy."""

    def put_control(self, message: Message) -> None:
        """Queue a ``control`` message (never dropped, never blocked)."""

    def release(self, count: int) -> None:
        """The worker finished ``count`` tuples."""

    def close(self) -> None:
        """Refuse further input; the worker exits after what is queued."""

    def abort(self) -> None:
        """The shard failed: discard queued input and wake blocked producers."""

    def join(self, timeout: Optional[float]) -> None:
        """Wait for the worker (and message delivery) to end."""


class MemoryTransport:
    """The worker is a daemon thread behind a :class:`ShardQueue`.

    ``send`` is a direct call on the worker thread, so detections reach
    the runtime synchronously under the engine push that produced them.
    """

    remote = False
    worker_idents: FrozenSet[int] = frozenset()

    def __init__(
        self,
        shard_id: int,
        spec: ShardEngineSpec,
        capacity: int,
        policy: str,
        metrics: MetricSet,
    ) -> None:
        self._shard_id = shard_id
        self._spec = spec
        self._queue = ShardQueue(capacity, policy=policy, metrics=metrics)
        self.queue_capacity = capacity
        self._thread: Optional[threading.Thread] = None
        self.engine: Optional[CEPEngine] = None

    def start(self, deliver: Callable[[Message], None], telemetry: Optional[Telemetry]) -> None:
        self._thread = threading.Thread(
            target=worker_loop,
            args=(self._shard_id, self._spec, self._receive, deliver),
            kwargs={"telemetry": telemetry, "on_engine": self._set_engine},
            name=f"repro-shard-{self._shard_id}",
            daemon=True,
        )
        self._thread.start()
        self.worker_idents = frozenset((self._thread.ident,))

    def _set_engine(self, engine: CEPEngine) -> None:
        self.engine = engine

    def _receive(self) -> Message:
        got = self._queue.get()
        # ``None`` only once the queue is closed *and* empty: a graceful
        # close still serves everything queued before it.
        return got[0] if got is not None else ("stop",)

    def put_tuples(self, message: Message, weight: int) -> None:
        self._queue.put(message, weight=weight)

    def put_control(self, message: Message) -> None:
        self._queue.put(message, weight=0)

    def release(self, count: int) -> None:
        """Nothing to do: the queue freed the slots when the worker dequeued."""

    def close(self) -> None:
        self._queue.close()

    def abort(self) -> None:
        self._queue.close()
        self._queue.abandon()

    def join(self, timeout: Optional[float]) -> None:
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    @property
    def queue_depth(self) -> int:
        return self._queue.depth

    @property
    def alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()


def _process_context():
    """The safest available multiprocessing start method.

    Never plain ``fork``: the parent already runs listener threads (and
    arbitrary application threads), and forking a multi-threaded process is
    a documented deadlock hazard.  ``forkserver`` (POSIX) forks workers
    from a clean single-threaded server and does not re-execute
    ``__main__``; ``spawn`` is the portable fallback.  Everything that
    crosses the boundary (the spec, query text, tuples, detections) is
    picklable by design.
    """
    if "forkserver" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("forkserver")
    return multiprocessing.get_context("spawn")


def _process_main(shard_id: int, spec: ShardEngineSpec, in_queue, out_queue) -> None:
    """Entry point of a shard worker process: the loop over two pipes."""

    def receive() -> Message:
        message = in_queue.get()
        if message[0] == "control":
            # Controls were pickled on their caller's thread (see
            # ``ProcessTransport.put_control``); open the envelope here.
            return pickle.loads(message[1])
        return message

    def send(message: Message) -> None:
        if message[0] in ("nack", "failed"):
            # The exception object cannot always cross the pipe; its repr
            # and traceback can.
            *head, error, remote_traceback = message
            message = (*head, RemoteShardError(repr(error), remote_traceback), remote_traceback)
        out_queue.put(message)

    worker_loop(shard_id, spec, receive, send)


class _Credits:
    """Parent-side tuple-in-flight accounting for a process worker."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._in_flight = 0
        self._lock = threading.Lock()
        self._released = threading.Condition(self._lock)
        self.broken = False

    def acquire(self, count: int, block: bool) -> bool:
        with self._lock:
            if block:
                while (
                    self._in_flight > 0
                    and self._in_flight + count > self.capacity
                    and not self.broken
                ):
                    self._released.wait()
                if self.broken:
                    return False
            elif self._in_flight + count > self.capacity:
                return False
            self._in_flight += count
            return True

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


class ProcessTransport:
    """The worker is a ``multiprocessing`` child behind two pipes.

    The queued tuples live in the child, so the bound is enforced
    parent-side with a credit counter fed by the worker's ``done``
    messages, and a listener thread delivers what the child sends back.
    The limits that follow from this are listed in ``docs/runtime.md``.
    """

    remote = True
    engine = None
    worker_idents: FrozenSet[int] = frozenset()

    def __init__(
        self,
        shard_id: int,
        spec: ShardEngineSpec,
        capacity: int,
        policy: str,
        metrics: MetricSet,
    ) -> None:
        BackpressurePolicy.validate(policy)
        if policy == BackpressurePolicy.DROP_OLDEST:
            raise ValueError(
                "the process executor cannot drop queued tuples (they live in "
                "the worker process); use backpressure='block', 'drop_newest' "
                "or 'error', or the thread executor"
            )
        self._shard_id = shard_id
        self._policy = policy
        self._metrics = metrics
        self._credits = _Credits(capacity)
        self.queue_capacity = capacity
        context = _process_context()
        self._in_queue = context.Queue()
        self._out_queue = context.Queue()
        self._process = context.Process(
            target=_process_main,
            args=(shard_id, spec, self._in_queue, self._out_queue),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        self._listener: Optional[threading.Thread] = None
        self._closing = False

    def start(self, deliver: Callable[[Message], None], telemetry: Optional[Telemetry]) -> None:
        self._process.start()
        self._listener = threading.Thread(
            target=self._listen,
            args=(deliver,),
            name=f"repro-shard-{self._shard_id}-listener",
            daemon=True,
        )
        self._listener.start()
        self.worker_idents = frozenset((self._listener.ident,))

    def _listen(self, deliver: Callable[[Message], None]) -> None:
        while True:
            try:
                message = self._out_queue.get(timeout=0.5)
            except (queue.Empty, EOFError, OSError):  # nothing yet, or a dead child's pipe
                if self._process.is_alive() or not self._out_queue.empty():
                    continue
                if not self._closing:
                    deliver(
                        (
                            "failed",
                            RemoteShardError(
                                f"shard process {self._shard_id} died unexpectedly"
                            ),
                            "",
                        )
                    )
                return
            deliver(message)
            if message[0] == "bye":
                return

    def put_tuples(self, message: Message, weight: int) -> None:
        if not self._credits.acquire(weight, block=self._policy == BackpressurePolicy.BLOCK):
            if self._credits.broken:
                raise RuntimeStateError(f"shard {self._shard_id} worker is gone")
            if self._policy == BackpressurePolicy.DROP_NEWEST:
                # No credits: the offered chunk is rejected whole,
                # parent-side, before it crosses the pipe.
                self._metrics.add(tuples_dropped=weight)
                return
            raise BackpressureError(
                f"shard {self._shard_id} queue is full "
                f"({self._credits.in_flight}/{self._credits.capacity} tuples in flight)"
            )
        self._in_queue.put(message)
        self._metrics.raise_to("queue_depth_hwm", self._credits.in_flight)

    def put_control(self, message: Message) -> None:
        # ``Queue.put`` pickles on a feeder thread, where a failure is
        # printed and the message silently lost — its caller would wait
        # forever.  Controls are rare and carry user objects (UDFs), so
        # they are pickled here, where the error can be raised; tuple
        # batches keep the asynchronous feeder path.
        try:
            envelope = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, AttributeError, TypeError) as error:
            raise SerializationError(
                f"shard {self._shard_id} control {message[2]!r}: the payload cannot "
                f"cross the process boundary ({error})"
            ) from error
        self._in_queue.put(("control", envelope))

    def release(self, count: int) -> None:
        self._credits.release(count)

    def close(self) -> None:
        self._closing = True
        # The child may already be gone.
        with contextlib.suppress(Exception):
            self._in_queue.put(("stop",))

    def abort(self) -> None:
        self._credits.break_()

    def join(self, timeout: Optional[float]) -> None:
        self._process.join(timeout=timeout)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=1.0)
        if self._listener is not None:
            self._listener.join(timeout=timeout or 5.0)
        # Unblock any producer still waiting on credits.
        self._credits.break_()

    @property
    def queue_depth(self) -> int:
        return self._credits.in_flight

    @property
    def alive(self) -> bool:
        return self._process.is_alive()


#: ``ShardedRuntime(executor=…)`` name → transport class.
TRANSPORTS = {"thread": MemoryTransport, "process": ProcessTransport}
