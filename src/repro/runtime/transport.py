"""Shard transports: how protocol messages reach a worker and come back.

A transport owns the worker's *execution vehicle* (a thread or a child
process) and carries messages both ways: it starts the worker, sends it
messages in FIFO order, hands what the worker sends back to the
parent-side :class:`~repro.runtime.shard.Shard`, and closes and joins.
Admission, failures, progress and telemetry are the same on every
transport and live in ``shard.py``; what differs is tabulated in
``docs/runtime.md``.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import multiprocessing.queues
import pickle
import queue
import threading
import traceback
from typing import Callable, FrozenSet, Optional, Protocol

from repro.errors import SerializationError
from repro.runtime.shard import Message, RemoteShardError, ShardEngineSpec, worker_loop

__all__ = ["TRANSPORTS", "MemoryTransport", "ProcessTransport", "Transport"]


class Transport(Protocol):
    """What a :class:`~repro.runtime.shard.Shard` needs from its carrier."""

    #: Whether the worker can still make progress.
    alive: bool
    #: Idents of the threads that deliver worker messages (and therefore
    #: run detection callbacks) — code on them must not wait on the shard.
    worker_idents: FrozenSet[int]

    def start(self, deliver: Callable[[Message], None]) -> None:
        """Launch the worker; its messages are handed to ``deliver``."""

    def send(self, message: Message) -> None:
        """Queue one message for the worker, behind everything sent before."""

    def close(self) -> None:
        """Send ``stop``: the worker exits after what is queued."""

    def join(self, timeout: Optional[float]) -> None:
        """Wait for the worker (and message delivery) to end."""


class MemoryTransport:
    """The worker is a daemon thread reading a plain FIFO.

    The worker's ``send`` is a direct call on its own thread, so a batch's
    detections reach the runtime on the worker thread, right after the
    engine push that produced them, with the batch's ``done``.
    """

    worker_idents: FrozenSet[int] = frozenset()

    def __init__(self, shard_id: int, spec: ShardEngineSpec) -> None:
        self._shard_id = shard_id
        self._spec = spec
        self._inbox: "queue.SimpleQueue[Message]" = queue.SimpleQueue()
        self._thread: Optional[threading.Thread] = None

    def start(self, deliver: Callable[[Message], None]) -> None:
        self._thread = threading.Thread(
            target=worker_loop,
            args=(self._shard_id, self._spec, self._inbox.get, deliver),
            name=f"repro-shard-{self._shard_id}",
            daemon=True,
        )
        self._thread.start()
        self.worker_idents = frozenset((self._thread.ident,))

    def send(self, message: Message) -> None:
        self._inbox.put(message)

    def close(self) -> None:
        self._inbox.put(("stop",))

    def join(self, timeout: Optional[float]) -> None:
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    @property
    def alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()


def _process_context():
    """The safest available multiprocessing start method.

    Never plain ``fork``: the parent already runs listener threads (and
    arbitrary application threads), and forking a multi-threaded process is
    a documented deadlock hazard.  ``forkserver`` (POSIX) forks workers
    from a clean single-threaded server and does not re-execute
    ``__main__``; ``spawn`` is the portable fallback.  What the runtime
    itself sends (the spec, query text, detections) is picklable by
    design; fed tuples are whatever the caller passed, and a batch that
    does not pickle fails its shard (:class:`_ReportingQueue`).
    """
    if "forkserver" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("forkserver")
    return multiprocessing.get_context("spawn")


class _ReportingQueue(multiprocessing.queues.Queue):
    """A ``multiprocessing`` queue that reports a message it cannot send.

    ``put`` pickles on a background feeder thread, which by default prints
    the error and drops the message: a lost tuple batch never comes back
    ``done``, so its credits would leak while a later ``drain()`` returned
    as if it had been processed.  Here the failure becomes a ``failed``
    message naming the lost message's kind, handed to ``report`` — the
    shard's ``deliver`` in the parent, the worker's ``send`` in the child
    (it is set on each side: it does not cross the process boundary).
    """

    report: Optional[Callable[[Message], None]] = None

    def _on_queue_feeder_error(self, error: Exception, message: object) -> None:
        if self.report is None:
            super()._on_queue_feeder_error(error, message)
            return
        kind = message[0] if isinstance(message, tuple) else type(message).__name__
        failure = SerializationError(
            f"a {kind!r} message cannot cross the process boundary ({error})"
        )
        failure.__cause__ = error
        self.report(("failed", failure, traceback.format_exc(), []))


def _process_main(shard_id: int, spec: ShardEngineSpec, in_queue, out_queue) -> None:
    """Entry point of a shard worker process: the loop over two pipes."""

    def receive() -> Message:
        message = in_queue.get()
        if message[0] == "control":
            # Controls were pickled on their caller's thread (see
            # ``ProcessTransport.send``); open the envelope here.
            return pickle.loads(message[1])
        return message

    def send(message: Message) -> None:
        # The exception object cannot always cross the pipe; its repr and
        # traceback can.
        if message[0] == "nack":
            _tag, token, error, remote_traceback = message
            message = ("nack", token, RemoteShardError(repr(error), remote_traceback), remote_traceback)
        elif message[0] == "failed":
            _tag, error, remote_traceback, emitted = message
            message = ("failed", RemoteShardError(repr(error), remote_traceback), remote_traceback, emitted)
        out_queue.put(message)

    out_queue.report = send
    worker_loop(shard_id, spec, receive, send)


class ProcessTransport:
    """The worker is a ``multiprocessing`` child behind two pipes.

    A listener thread delivers what the child sends back.  The limits that
    follow from the process boundary are listed in ``docs/runtime.md``.
    """

    worker_idents: FrozenSet[int] = frozenset()

    def __init__(self, shard_id: int, spec: ShardEngineSpec) -> None:
        self._shard_id = shard_id
        context = _process_context()
        self._in_queue = _ReportingQueue(ctx=context)
        self._out_queue = _ReportingQueue(ctx=context)
        self._process = context.Process(
            target=_process_main,
            args=(shard_id, spec, self._in_queue, self._out_queue),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        self._listener: Optional[threading.Thread] = None
        self._closing = False

    def start(self, deliver: Callable[[Message], None]) -> None:
        self._in_queue.report = deliver
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
                            [],
                        )
                    )
                return
            deliver(message)
            if message[0] == "bye":
                return

    def send(self, message: Message) -> None:
        if message[0] == "control":
            # ``Queue.put`` pickles on a feeder thread, which can only
            # fail the shard (``_ReportingQueue``).  Controls are rare and
            # carry user objects (UDFs), so they are pickled here, where the
            # error is raised to the caller and the shard lives; tuple
            # batches keep the asynchronous feeder path.
            try:
                message = ("control", pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))
            except (pickle.PicklingError, AttributeError, TypeError) as error:
                raise SerializationError(
                    f"shard {self._shard_id} control {message[2]!r}: the payload cannot "
                    f"cross the process boundary ({error})"
                ) from error
        self._in_queue.put(message)

    def close(self) -> None:
        self._closing = True
        # The child may already be gone.
        with contextlib.suppress(Exception):
            self._in_queue.put(("stop",))

    def join(self, timeout: Optional[float]) -> None:
        self._process.join(timeout=timeout)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=1.0)
        if self._listener is not None:
            self._listener.join(timeout=timeout or 5.0)

    @property
    def alive(self) -> bool:
        return self._process.is_alive()


#: ``ShardedRuntime(executor=…)`` name → transport class.
TRANSPORTS = {"thread": MemoryTransport, "process": ProcessTransport}
