"""Span tracing from the benchmark's side of each layer boundary.

For a ``--trace 1`` run — and only for that run — :class:`Tracer` replaces
the public callables at the layer boundaries (``GestureSession.feed``,
``CEPEngine.push_many``, ``KinectTransformer.transform``,
``NFAMatcher.process_batch``, ``Tenant.ingest``, ``EventLog.append_tuples``,
…) with wrappers that record a span: name, start, end, the span that caused
it, and the segment it belongs to (the trace id).  The program is not edited
and carries no cost in a timed run.

A span's **self time** is its duration minus the time its child spans cover.
Parentage follows a :class:`contextvars.ContextVar`, so every thread has its
own stack.  A coroutine's span is different: while it awaits, other tasks
run, so its duration is *waiting*, not work — it is recorded on its own
(calls and total) and is nobody's parent or child.  Totals per name are kept
for every span; the spans themselves are kept only for the first
:data:`KEPT_SEGMENTS` segments of each phase — a per-tuple phase makes ~10
spans per tuple, and a full run of them would be a gigabyte of JSON nobody
can open.

Wrappers do not cross a process boundary: shard worker processes report busy
time through ``session.metrics`` instead (see ``workloads.py``).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

perf = time.perf_counter

#: Segments of each phase whose spans are written to the trace file, and the
#: most spans kept of any one phase.
KEPT_SEGMENTS = 2
KEPT_SPANS = 20000


@dataclass
class Totals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: Self time of the spans that ran on the thread that opened the slice.
    home_self_s: float = 0.0
    #: Sum of ``size(result)`` where a wrapper was given a ``size`` (bytes out).
    amount: int = 0


class _Frame:
    __slots__ = ("name", "start", "children_s", "parent", "span_id")

    def __init__(self, name: str, start: float, parent: Optional["_Frame"], span_id: int) -> None:
        self.name = name
        self.start = start
        self.children_s = 0.0
        self.parent = parent
        self.span_id = span_id


_current: "contextvars.ContextVar[Optional[_Frame]]" = contextvars.ContextVar(
    "benchmarks_e2e_span", default=None
)


class Tracer:
    """Records spans; see the module docstring."""

    def __init__(self) -> None:
        #: Raw totals of the slice in progress, by span name.
        self.running: Dict[str, Totals] = {}
        #: Totals of the clean slices so far, times in nominal seconds, by
        #: (phase, span name); and the units those slices processed, by phase.
        self.folded: Dict[Tuple[str, str], Totals] = {}
        self.units: Dict[str, int] = {}
        #: Units of every slice, torn or not: the denominator of the counts.
        self.units_counted: Dict[str, int] = {}
        #: (name, start, end, span id, parent id, trace id, thread id)
        self.spans: List[Tuple[str, float, float, int, int, str, int]] = []
        self.trace_id = "idle"
        self.keep = False
        self._kept = 0
        self._home_thread = threading.get_ident()
        #: Cleared by :meth:`paused`: wrappers then call straight through.
        self.active = True
        #: Names of coroutine spans — their time is waiting, not work.
        self.waiting: set = set()
        self._next_id = 0
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------------------

    def open(self, name: str) -> Tuple[_Frame, contextvars.Token]:
        parent = _current.get()
        self._next_id += 1  # approximate under threads; ids only label the file
        frame = _Frame(name, perf(), parent, self._next_id)
        return frame, _current.set(frame)

    def close(self, frame: _Frame, token: Optional[contextvars.Token], amount: int = 0) -> None:
        end = perf()
        duration = end - frame.start
        if token is not None:
            _current.reset(token)
            if frame.parent is not None:
                frame.parent.children_s += duration
        with self._lock:
            totals = self.running.get(frame.name)
            if totals is None:
                totals = self.running[frame.name] = Totals()
            totals.calls += 1
            totals.total_s += duration
            totals.self_s += duration - frame.children_s
            if threading.get_ident() == self._home_thread:
                totals.home_self_s += duration - frame.children_s
            totals.amount += amount
            if self.keep and self._kept < KEPT_SPANS:
                self._kept += 1
                self.spans.append(
                    (
                        frame.name,
                        frame.start,
                        end,
                        frame.span_id,
                        frame.parent.span_id if frame.parent is not None else 0,
                        self.trace_id,
                        threading.get_ident(),
                    )
                )

    def segment(self, phase: str, index: int) -> None:
        """Name the segment the following spans belong to."""
        self.trace_id = f"{phase}#{index}"
        self.keep = index < KEPT_SEGMENTS
        if index == 0:
            self._kept = 0

    def begin_slice(self) -> None:
        """Forget spans recorded between slices (untimed housekeeping)."""
        with self._lock:
            self.running = {}
        self._home_thread = threading.get_ident()

    def fold(self, phase: str, units: int, speed: float, torn: bool) -> None:
        """Add the finished slice's totals to the phase's.

        Times are brought to nominal seconds and kept for clean slices only;
        calls and amounts are counts, exact whatever the machine did, and are
        kept for every slice (so they repeat exactly from run to run).
        """
        with self._lock:
            running, self.running = self.running, {}
        self.units_counted[phase] = self.units_counted.get(phase, 0) + units
        if not torn:
            self.units[phase] = self.units.get(phase, 0) + units
        for name, totals in running.items():
            folded = self.folded.setdefault((phase, name), Totals())
            folded.calls += totals.calls
            folded.amount += totals.amount
            if not torn:
                folded.total_s += totals.total_s * speed
                folded.self_s += totals.self_s * speed
                folded.home_self_s += totals.home_self_s * speed

    # -- wrapping ----------------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        size: Optional[Callable[[Any], int]] = None,
    ) -> None:
        """Replace ``owner.attribute`` (class or module level) with a traced wrapper.

        ``size`` maps the call's result to an amount (bytes) summed per name.
        """
        original = inspect.getattr_static(owner, attribute)
        function = original.__func__ if isinstance(original, (staticmethod, classmethod)) else original
        tracer = self

        if inspect.iscoroutinefunction(function):
            self.waiting.add(name)

            @functools.wraps(function)
            async def traced(*args: Any, **kwargs: Any) -> Any:
                if not tracer.active:
                    return await function(*args, **kwargs)
                tracer._next_id += 1
                frame = _Frame(name, perf(), None, tracer._next_id)
                try:
                    return await function(*args, **kwargs)
                finally:
                    tracer.close(frame, None)

        else:

            @functools.wraps(function)
            def traced(*args: Any, **kwargs: Any) -> Any:
                if not tracer.active:
                    return function(*args, **kwargs)
                frame, token = tracer.open(name)
                amount = 0
                try:
                    result = function(*args, **kwargs)
                    if size is not None:
                        amount = size(result)
                    return result
                finally:
                    tracer.close(frame, token, amount)

        replacement: Any = traced
        if isinstance(original, staticmethod):
            replacement = staticmethod(traced)
        elif isinstance(original, classmethod):
            replacement = classmethod(traced)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Run the body untraced: every wrapper costs one extra call and nothing else.

        Wrappers cannot simply be taken off: streams hold the bound methods
        they subscribed at deploy time.
        """
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def restore(self) -> None:
        """Put every wrapped callable back (the traced run is over)."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- reading -----------------------------------------------------------------------

    def get(self, phase: str, name: str) -> Totals:
        return self.folded.get((phase, name), Totals())

    def per_unit(self, phase: str, name: str, attribute: str = "total_s") -> float:
        """Nominal seconds (or calls, or amount) of ``name`` per unit of ``phase``."""
        timed = attribute.endswith("_s")
        units = (self.units if timed else self.units_counted).get(phase, 0)
        return getattr(self.get(phase, name), attribute) / units if units else 0.0

    def write(self, path: Path) -> None:
        """The kept spans as a Chrome trace-event document (Perfetto loads it)."""
        if not self.spans:
            origin = 0.0
        else:
            origin = min(span[1] for span in self.spans)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": os.getpid(),
                "tid": thread_id,
                "args": {"span": span_id, "parent": parent_id, "trace": trace_id},
            }
            for name, start, end, span_id, parent_id, trace_id, thread_id in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def install(tracer: Tracer) -> None:
    """Wrap the public callable at every layer boundary of the pipeline."""
    from repro.api.session import GestureSession
    from repro.cep.engine import CEPEngine
    from repro.cep.matcher import NFAMatcher
    from repro.cep.sinks import CallbackSink
    from repro.core.learner import GestureLearner
    from repro.core.querygen import QueryGenerator
    from repro.gateway import protocol, websocket
    from repro.gateway.server import _Connection
    from repro.gateway.tenants import Tenant
    from repro.persistence import log as persistence_log
    from repro.persistence import snapshots as persistence_snapshots
    from repro.persistence.manager import DurabilityManager
    from repro.runtime.router import HashPartitionRouter
    from repro.runtime.sharded import ShardedRuntime
    from repro.storage.database import GestureDatabase
    from repro.transform.pipeline import KinectTransformer

    for owner, attribute, name in (
        (GestureSession, "feed", "api.feed"),
        (GestureSession, "feed_frame", "api.feed_frame"),
        (GestureSession, "detections", "api.detections"),
        (GestureSession, "snapshot", "api.snapshot"),
        (CEPEngine, "push_many", "cep.engine.push_many"),
        (CEPEngine, "push", "cep.engine.push"),
        (CEPEngine, "restore_state", "persistence.recover.restore"),
        (KinectTransformer, "transform", "transform"),
        (NFAMatcher, "process_batch", "cep.matcher.process_batch"),
        (NFAMatcher, "process", "cep.matcher.process"),
        (CallbackSink, "emit", "detection.dispatch"),
        (HashPartitionRouter, "split", "runtime.router.split"),
        (ShardedRuntime, "push_many", "runtime.push_many"),
        (ShardedRuntime, "drain", "runtime.drain"),
        (ShardedRuntime, "restore_state", "persistence.recover.restore"),
        (protocol, "decode_message", "gateway.protocol.decode"),
        (protocol, "require_records", "gateway.protocol.decode"),
        (protocol, "encode_message", "gateway.protocol.encode"),
        (_Connection, "push_events", "gateway.event_push"),
        (Tenant, "ingest", "gateway.ingest"),
        (persistence_log.EventLog, "append_tuples", "persistence.log.append"),
        (persistence_snapshots.SnapshotStore, "save", "persistence.snapshot.save"),
        (persistence_snapshots.SnapshotStore, "latest", "persistence.recover.restore"),
        (DurabilityManager, "recover_into", "persistence.recover"),
        # ``dump_envelope`` is imported by name, so it is wrapped where its
        # callers look it up.
        (persistence_log, "dump_envelope", "storage.serialization.dump"),
        (persistence_snapshots, "dump_envelope", "storage.serialization.dump"),
        (GestureLearner, "add_sample", "core.learner.add_sample"),
        (GestureLearner, "description", "core.learner.description"),
        (QueryGenerator, "generate", "core.querygen.generate"),
        (GestureDatabase, "save_gesture", "storage.database.save"),
    ):
        tracer.wrap(owner, attribute, name)
    # Framing: encoding a frame (which masks it on the client side) and
    # unmasking a received one; the frame's length is the wire byte count.
    tracer.wrap(websocket, "encode_frame", "gateway.websocket.frame", size=len)
    tracer.wrap(websocket, "_apply_mask", "gateway.websocket.frame")
