"""Span-based tracing with a serialisable context and Chrome-trace export.

A :class:`TraceContext` is three primitives — trace id, span id, sampled
flag — so it pickles across the process-shard boundary and serialises
into protocol frames unchanged.  The :class:`Tracer` makes the *head*
sampling decision once, when a request enters the system (the gateway
frame or ``session.feed``): unsampled requests carry ``None`` instead of
a context, so the per-tuple hot path pays exactly one ``is None`` check.
Sampled spans land in a bounded ring buffer (old spans are evicted, the
pipeline is never blocked by its own telemetry).

Span timestamps come from the *system-wide monotonic clock*
(:func:`repro.observability.clock.monotonic_time`), which on Linux shares
an epoch across processes of the same boot — that is what lets a span
recorded inside a process shard nest correctly under its parent span
recorded in the gateway process.

Export is the Chrome trace-event JSON format (``{"traceEvents": [...]}``
with ``ph: "X"`` complete events), loadable in Perfetto or
``chrome://tracing``; ``python -m repro.observability summarize`` renders
the same file as a terminal table.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterable, Iterator, List, Mapping, Optional

from repro.observability.clock import monotonic_time

__all__ = [
    "SpanHandle",
    "TraceContext",
    "Tracer",
    "current_context",
    "use_context",
]


@dataclass(frozen=True)
class TraceContext:
    """The serialisable part of a trace: what travels with the data."""

    trace_id: str
    span_id: str
    sampled: bool = True

    def child(self, span_id: str) -> "TraceContext":
        """The context a sub-span propagates: same trace, new parent."""
        return TraceContext(trace_id=self.trace_id, span_id=span_id, sampled=self.sampled)

    def to_dict(self) -> Dict[str, object]:
        return {"trace_id": self.trace_id, "span_id": self.span_id, "sampled": self.sampled}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "TraceContext":
        trace_id = payload.get("trace_id")
        span_id = payload.get("span_id")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            raise ValueError("trace context requires string trace_id and span_id")
        return cls(trace_id=trace_id, span_id=span_id, sampled=bool(payload.get("sampled", True)))


def _new_id() -> str:
    return os.urandom(8).hex()


# -- ambient context (thread-local) ----------------------------------------------------
#
# The worker thread sets the context around ``engine.push_many`` so the
# engine's per-query handlers can attach matcher spans without every
# signature in between growing a ``trace`` parameter.

_ambient = threading.local()


def current_context() -> Optional[TraceContext]:
    """The context installed on this thread, or ``None``."""
    return getattr(_ambient, "context", None)


@contextmanager
def use_context(context: Optional[TraceContext]) -> Iterator[None]:
    """Install ``context`` as this thread's ambient trace context."""
    previous = getattr(_ambient, "context", None)
    _ambient.context = context
    try:
        yield
    finally:
        _ambient.context = previous


class SpanHandle:
    """An open span: ``close()`` (or the context manager exit) records it."""

    __slots__ = (
        "tracer", "name", "category", "context", "args", "_parent_id",
        "_start", "_closed",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str,
        context: TraceContext,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.category = category
        self._parent_id = context.span_id
        #: The context *of this span* — pass to children for nesting.
        self.context = context.child(_new_id())
        self.args = args
        self._start = monotonic_time()
        self._closed = False

    def close(self, **extra: Any) -> None:
        if self._closed:
            return
        self._closed = True
        args = dict(self.args or {})
        args.update(extra)
        self.tracer.record(
            name=self.name,
            category=self.category,
            context=self.context,
            start=self._start,
            end=monotonic_time(),
            parent_id=self._parent_id,
            args=args,
        )

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


class Tracer:
    """Head-sampled span recorder with a bounded ring buffer.

    ``sample_rate`` is the fraction of entry points that start a trace:
    0.0 (the default) disables tracing entirely, 1.0 traces everything,
    0.01 traces every 100th request.  The decision is deterministic
    (every ``round(1/rate)``-th call to :meth:`sample`), so benchmark runs
    are reproducible.
    """

    def __init__(self, sample_rate: float = 0.0, buffer_size: int = 4096) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate!r}")
        if buffer_size < 1:
            raise ValueError("buffer_size must be positive")
        self.sample_rate = sample_rate
        self.buffer_size = buffer_size
        self._interval = 0 if sample_rate <= 0.0 else max(1, round(1.0 / sample_rate))
        self._calls = 0
        self._lock = threading.Lock()
        self._spans: Deque[Dict[str, Any]] = deque(maxlen=buffer_size)
        self._pid = os.getpid()

    # -- head sampling -----------------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether this tracer can ever sample (rate > 0)."""
        return self._interval > 0

    def sample(self, name: str = "request") -> Optional[TraceContext]:
        """The head decision: a fresh root context, or ``None`` (common case)."""
        if self._interval == 0:
            return None
        with self._lock:
            self._calls += 1
            if self._calls % self._interval:
                return None
        return TraceContext(trace_id=f"{name}-{_new_id()}", span_id=_new_id())

    def adopt(self, payload: Optional[Mapping[str, object]]) -> Optional[TraceContext]:
        """Continue a caller-supplied context (e.g. from a protocol frame)."""
        if not self.active or not payload:
            return None
        return TraceContext.from_dict(payload)

    # -- recording ---------------------------------------------------------------------

    def span(
        self,
        name: str,
        category: str,
        context: Optional[TraceContext],
        **args: Any,
    ) -> Optional[SpanHandle]:
        """Open a span under ``context``; ``None`` context means no-op."""
        if context is None:
            return None
        return SpanHandle(self, name, category, context, args or None)

    def record_between(
        self,
        name: str,
        category: str,
        context: TraceContext,
        start: float,
        end: float,
        **args: Any,
    ) -> TraceContext:
        """Record a span from two pre-taken monotonic readings.

        Used where the interval straddles threads or processes (queue
        wait: stamped at enqueue, observed at dequeue).  Returns the
        recorded span's context so follow-up spans can nest under it.
        """
        child = context.child(_new_id())
        self.record(
            name,
            category,
            child,
            start,
            end,
            parent_id=context.span_id,
            args=args or None,
        )
        return child

    def record(
        self,
        name: str,
        category: str,
        context: TraceContext,
        start: float,
        end: float,
        parent_id: Optional[str] = None,
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Append one completed span (monotonic start/end, seconds)."""
        event: Dict[str, Any] = {
            "name": name,
            "cat": category,
            "ph": "X",
            "ts": round(start * 1e6, 3),
            "dur": round(max(0.0, end - start) * 1e6, 3),
            "pid": self._pid,
            "tid": threading.get_ident() % 2**31,
            "args": {
                "trace_id": context.trace_id,
                "span_id": context.span_id,
                **({"parent_id": parent_id} if parent_id else {}),
                **(args or {}),
            },
        }
        self._spans.append(event)

    def absorb(self, events: Iterable[Mapping[str, Any]]) -> None:
        """Merge spans exported by another tracer (e.g. a process shard).

        Events are re-ordered by timestamp against the local buffer so an
        export after absorption reads chronologically.
        """
        merged = sorted(
            list(self._spans) + [dict(event) for event in events],
            key=lambda event: event.get("ts", 0.0),
        )
        with self._lock:
            self._spans = deque(merged[-self.buffer_size:], maxlen=self.buffer_size)

    # -- export ------------------------------------------------------------------------

    def spans(self) -> List[Dict[str, Any]]:
        """A copy of the buffered spans (oldest first)."""
        return [dict(event) for event in self._spans]

    def drain(self) -> List[Dict[str, Any]]:
        """Remove and return the buffered spans.

        Collection protocol of the process shards: the child drains on
        every ``telemetry`` control, so repeated collections never hand
        the parent the same span twice.
        """
        drained = []
        while True:
            try:
                drained.append(self._spans.popleft())
            except IndexError:
                return drained

    def export(self) -> Dict[str, Any]:
        """The buffer as a Chrome trace-event document."""
        return {"traceEvents": self.spans(), "displayTimeUnit": "ms"}

    def clear(self) -> None:
        self._spans.clear()

    def __repr__(self) -> str:
        return (
            f"Tracer(rate={self.sample_rate}, buffered={len(self._spans)}/"
            f"{self.buffer_size})"
        )
