"""The CEP engine: streams, views, deployed queries and sinks.

:class:`CEPEngine` plays the role of AnduIN in the paper's architecture
(Fig. 2): sensor measurements are pushed into the raw ``kinect`` stream, the
``kinect_t`` view transforms them on the fly, and every deployed gesture
query runs an NFA matcher on its input streams.  Each detection is
appended to the engine's one :class:`~repro.cep.sinks.DetectionLog` and
then delivered to the sinks attached to the query; every read —
:meth:`CEPEngine.detections`, :meth:`DeployedQuery.detections`, snapshots —
derives from the log, in the order ``(timestamp, partition key,
arrival)`` a sharded runtime reads too.  Undeploying a query stops its
future detections; its history stays.

Queries can be registered either as parsed :class:`~repro.cep.query.Query`
objects (what the learning pipeline produces) or as query text in the
paper's dialect (what an end user might paste for manual fine tuning).

Data path
---------
Predicates of deployed queries are compiled to closures through an
engine-wide :class:`~repro.cep.expressions.CompiledPredicateCache`, so
identical predicates generated by the learner are lowered once and shared
across queries.  Each stream that deployed queries read has one
subscription, a :class:`~repro.cep.fanout.Fanout`, which hands its tuples
to the queries, wakes per tuple only those a tuple can change and runs
the stream's idle sweep: its module docstring is the wake contract.

The fan-out also declares the fields its queries read (each query's set is
computed once, at deploy), and does so the moment the queries change.
That is the projection the ``kinect_t`` view pushes into its transform:
the view computes the joints the deployed vocabulary reads, not all
fifteen, so matcher runs, detections and snapshots carry projected
records (see :func:`~repro.cep.views.install_kinect_view`).  Tuples reach
matchers on one of two paths:

* per-tuple (:meth:`CEPEngine.push`, and :meth:`CEPEngine.push_many`
  without a ``batch_size``): every tuple fans out to all subscribers
  before the next one is taken — the seed semantics, and what interactive
  applications observe;
* batched (:meth:`CEPEngine.push_many` with a ``batch_size``): each
  matcher receives whole chunks per callback and prunes its run table once
  per chunk.  Tuple order *within* each stream is preserved, so for
  queries reading a single stream — the shape the learner generates —
  per-query detections are identical on both paths; only the interleaving
  of sink callbacks *across* queries differs.  A pattern spanning multiple
  streams observes chunk-granularity ordering across its streams (all of a
  view's transformed chunk before the next raw tuple) instead of per-tuple
  interleaving, so its detections may differ; feed such queries per tuple.

Multi-user streams
------------------
Deployed matchers partition their run tables by
``MatcherConfig.partition_field`` (default ``"player"``), so one stream
carrying several interleaved users detects, per user, exactly what each
user's isolated stream would.  Every :class:`~repro.cep.matcher.Detection`
carries the partition value of the tuples that matched;
:meth:`CEPEngine.detections` can filter on it.  Every query runs under
its engine's :class:`MatcherConfig`: build the engine with
``MatcherConfig(partition_field=None)`` for the single-user behaviour — in
particular for a pattern spanning streams that do not all carry the
partition field, since runs only advance on tuples with the same partition
value (see :class:`~repro.cep.matcher.MatcherConfig`).

Concurrency
-----------
The engine itself is single-threaded by design — one event loop drives
streams, views and matchers deterministically.  Scaling across cores is
the job of :mod:`repro.runtime`, which runs N engines side by side with
per-player routing.  What *is* thread-safe here is the result surface the
runtime shares with readers: the detection log locks its entries and every
read (:meth:`DeployedQuery.detections`, :meth:`CEPEngine.detections`)
returns a copy, so detections can be read while a worker thread appends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Protocol, Sequence, Tuple,
    Union,
)

from repro.cep.expressions import CompiledPredicateCache
from repro.cep.fanout import Fanout
from repro.cep.matcher import Detection, MatcherConfig, NFAMatcher
from repro.cep.nfa import compile_pattern
from repro.cep.parser import parse_query
from repro.cep.query import Query
from repro.cep.sinks import _UNSET, DetectionLog, FanOutSink
from repro.cep.udf import default_functions
from repro.cep.views import View
from repro.transform.pipeline import KinectTransformer
from repro.observability.clock import perf_clock
from repro.observability.tracing import Tracer, current_context, use_context
from repro.errors import (
    QueryRegistrationError,
    SerializationError,
    UnknownQueryError,
    UnknownViewError,
)
from repro.streams.clock import Clock, SimulatedClock
from repro.streams.stream import Stream, StreamRegistry

#: An ingest tap observes every externally pushed tuple *before* delivery:
#: ``tap(stream_name, records, batch_size)``.  The durability subsystem uses
#: this as its write-ahead hook; view-internal pushes (derived streams) do
#: not pass through taps, so a tap sees exactly the external ingest.
IngestTap = Callable[[str, Sequence[Mapping[str, Any]], Optional[int]], None]

#: A control tap sees every state change *after* it succeeded, whoever made
#: it: ``tap(op, payload)`` with ``deploy {name, text}``, ``undeploy {name}``,
#: ``enable {name, enabled}`` or ``clear {}``; the inverse is
#: :func:`repro.persistence.replay.apply_engine_control`.  ``restore {}``
#: follows a successful ``restore_state``, which the journal does not
#: record: the learning workflow reseeds its transformer from the view's.
ControlTap = Callable[[str, Dict[str, Any]], None]


def coerce_query(query: Union[str, Query, Any]) -> Query:
    """Normalise anything deployable into a :class:`Query`.

    Accepts query text in the paper's dialect, a :class:`Query`, or any
    object with a ``build() -> Query`` method (in particular a
    :class:`repro.api.QueryBuilder` chain).  Shared by both engines and
    the session, which gates the coerced query before it deploys it, so
    every deployment path accepts exactly the same inputs.
    """
    if isinstance(query, str):
        return parse_query(query)
    if isinstance(query, Query):
        return query
    passed_type = type(query).__name__
    build = getattr(query, "build", None)
    if callable(build):
        query = build()
    if not isinstance(query, Query):
        raise QueryRegistrationError(
            f"cannot deploy a {passed_type}; expected query text, a "
            f"Query, or a builder whose build() returns a Query"
        )
    return query


@dataclass
class DeployedQuery:
    """A query running inside the engine.

    ``name`` is the name the query is registered under — the key of
    :meth:`CEPEngine.get_query`, ``query_stats()`` and the matcher spans —
    which is the query's own output value unless ``register_query`` was
    given another.
    """

    name: str
    query: Query
    matcher: NFAMatcher
    sink: FanOutSink
    #: The engine's detection log, which this query's reads filter.
    log: DetectionLog
    #: Per stream, the fields this query's matcher reads there (computed
    #: once at deploy; the stream's fan-out declares their union).
    reads: Dict[str, FrozenSet[str]]
    #: Whether the query takes tuples: false while paused, and for good
    #: once undeployed, so a delivery already under way skips it.
    enabled: bool = True

    def detections(self, partition: Any = _UNSET) -> List[Detection]:
        """This query's detections so far, in the log's merged order.

        ``partition`` restricts the result to one player's detections
        (compare against :attr:`Detection.partition`).
        """
        return self.log.snapshot(query_name=self.name, partition=partition)

    def clear_detections(self) -> None:
        self.log.clear_query(self.name)

    def __repr__(self) -> str:
        return (
            f"DeployedQuery(name={self.name!r}, events={self.query.event_count()}, "
            f"detections={len(self.detections())})"
        )


class QueryHandle(Protocol):
    """One deployed query, as every :class:`Engine` hands it out.  Its
    partial-match progress is read on the engine, :meth:`Engine.query_progress`."""

    name: str
    query: Query
    sink: FanOutSink
    enabled: bool

    def detections(self, partition: Any = _UNSET) -> List[Detection]: ...
    def clear_detections(self) -> None: ...


class Engine(Protocol):
    """The engine surface: :class:`CEPEngine` inline, ``ShardedRuntime`` on shards.

    Everything above the engine — detector, session, durability, replay
    and the analyzer — calls only these members, so a deploy, a feed or a
    recovery means the same on both (``tests/test_engine_conformance.py``).
    Reads observe every tuple pushed before them; ``drain`` is the
    explicit, raising barrier.
    """

    clock: Clock
    matcher_config: MatcherConfig

    @property
    def views(self) -> Dict[str, View]: ...
    @property
    def queries(self) -> Dict[str, QueryHandle]: ...
    def get_query(self, name: str) -> QueryHandle: ...
    def query_names(self) -> List[str]: ...
    def stream_fields(self) -> Dict[str, Optional[FrozenSet[str]]]: ...
    def register_query(
        self, query: Union[str, Query, Any], name: Optional[str] = None
    ) -> QueryHandle: ...
    def unregister_query(self, name: str) -> None: ...
    def enable_query(self, name: str, enabled: bool = True) -> None: ...
    def register_function(
        self, name: str, function: Callable[..., Any], arity: Optional[int] = None
    ) -> None: ...
    def push(self, stream_name: str, record: Mapping[str, Any]) -> None: ...
    def push_many(
        self,
        stream_name: str,
        records: Iterable[Mapping[str, Any]],
        batch_size: Optional[int] = None,
    ) -> int: ...
    def add_ingest_tap(self, tap: IngestTap) -> None: ...
    def remove_ingest_tap(self, tap: IngestTap) -> None: ...
    def add_control_tap(self, tap: ControlTap) -> None: ...
    def remove_control_tap(self, tap: ControlTap) -> None: ...
    def detections(
        self, name: Optional[str] = None, partition: Any = _UNSET
    ) -> List[Detection]: ...
    def clear_detections(self) -> None: ...
    def reset_scene(self) -> None: ...
    def capture_state(self) -> Dict[str, Any]: ...
    def restore_state(self, state: Mapping[str, Any]) -> Any: ...
    def query_stats(self) -> Dict[str, Dict[str, int]]: ...
    def query_progress(self) -> Dict[str, Tuple[float, int]]: ...
    def drain(self, timeout: Optional[float] = None) -> None: ...
    def collect_telemetry(self, timeout: Optional[float] = None) -> None: ...
    def export_trace(self) -> Dict[str, Any]: ...


class Taps:
    """The taps of an :class:`Engine`.  A raising tap fails the call it
    observes — durability errors must not pass silently.  A sharded runtime
    runs them parent-side: ingest taps before routing, control taps once
    after the shard broadcast."""

    _ingest_taps: tuple[IngestTap, ...] = ()
    _control_taps: tuple[ControlTap, ...] = ()

    def add_ingest_tap(self, tap: IngestTap) -> None:
        """Observe every externally pushed tuple *before* it is delivered.

        Write-ahead hook of the durability subsystem: the tap runs before
        any subscriber sees the tuples, so a crash mid-processing can
        always be replayed from the log.  Taps only see external ingest
        (``push`` / ``push_many``); tuples emitted internally by views into
        their derived streams are not re-reported.
        """
        self._ingest_taps += (tap,)

    def remove_ingest_tap(self, tap: IngestTap) -> None:
        """Detach a previously added ingest tap (missing taps are ignored)."""
        self._ingest_taps = tuple(t for t in self._ingest_taps if t is not tap)

    def add_control_tap(self, tap: ControlTap) -> None:
        """Observe every deploy / undeploy / enable / ``reset_scene`` *after*
        it succeeded (see :data:`ControlTap`): a rejected control is never
        reported."""
        self._control_taps += (tap,)

    def remove_control_tap(self, tap: ControlTap) -> None:
        """Detach a previously added control tap (missing taps are ignored)."""
        self._control_taps = tuple(t for t in self._control_taps if t is not tap)

    def _notify_control(self, op: str, payload: Dict[str, Any]) -> None:
        for tap in self._control_taps:
            tap(op, payload)


def _fields_read(query: Query, config: MatcherConfig) -> Dict[str, FrozenSet[str]]:
    """Per stream, the fields a matcher of ``query`` under ``config`` reads:
    its predicates', the timestamp field and the partition field."""
    base = frozenset(
        name for name in (config.timestamp_field, config.partition_field) if name is not None
    )
    reads: Dict[str, FrozenSet[str]] = {}
    for event in query.events():
        reads[event.stream] = reads.get(event.stream, base) | event.predicate.fields()
    return reads


class CEPEngine(Taps):
    """A single-node complex event processing engine.

    Parameters
    ----------
    clock:
        Time source used when tuples carry no timestamp.
    matcher_config:
        The NFA runtime configuration every deployed query runs under.

    Examples
    --------
    >>> engine = CEPEngine()
    >>> _ = engine.create_stream("kinect_t")
    >>> deployed = engine.register_query(
    ...     'SELECT "hands_up" MATCHING kinect_t(rhand_y > 400);'
    ... )
    >>> engine.push("kinect_t", {"ts": 0.0, "rhand_y": 500.0})
    >>> [d.output for d in deployed.detections()]
    ['hands_up']
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        matcher_config: Optional[MatcherConfig] = None,
    ) -> None:
        self.clock = clock or SimulatedClock()
        self.matcher_config = matcher_config or MatcherConfig()
        self.streams = StreamRegistry()
        self.functions = default_functions()
        self.compile_cache = CompiledPredicateCache(self.functions)
        self._queries: Dict[str, DeployedQuery] = {}
        #: One subscription per stream the deployed queries read.
        self._fanouts: Dict[str, Fanout] = {}
        self._views: Dict[str, View] = {}
        #: Every detection, once, in arrival order; every read derives from it.
        self._log = DetectionLog()
        self.tuples_processed = 0
        #: Optional :class:`repro.observability.Tracer`; when set and
        #: tracing is active, matcher invocations record spans under the
        #: thread's ambient trace context.  ``None`` (the default) keeps
        #: the hot path at a single attribute check per handler call.
        self.tracer: Optional[Tracer] = None
        #: Optional ``repro.runtime.MetricsRegistry``, set together with
        #: :attr:`tracer`: every :meth:`push_many` is then measured into
        #: shard 0, as a sharded runtime's workers measure their batches.
        self.metrics: Optional[Any] = None

    # -- stream management ---------------------------------------------------------

    def create_stream(self, name: str, fields: Optional[Iterable[str]] = None) -> Stream:
        """Create and register a new stream."""
        return self.streams.create(name, fields=fields)

    def get_stream(self, name: str) -> Stream:
        return self.streams.get(name)

    def push(self, stream_name: str, record: Mapping[str, Any]) -> None:
        """Push one tuple into a registered stream."""
        if self._ingest_taps:
            stream = self.streams.get(stream_name)  # fail before logging
            for tap in self._ingest_taps:
                tap(stream_name, (record,), None)
            self.tuples_processed += 1
            stream.push(record)
            return
        self.tuples_processed += 1
        self.streams.get(stream_name).push(record)

    def push_many(
        self,
        stream_name: str,
        records: Iterable[Mapping[str, Any]],
        batch_size: Optional[int] = None,
    ) -> int:
        """Push many tuples; returns the number pushed.

        With ``batch_size=None`` (default) tuples fan out one at a time,
        exactly like repeated :meth:`push` calls.  With a ``batch_size``
        the stream's batch delivery path is used: every subscriber — in
        particular every deployed NFA matcher — receives whole chunks of up
        to ``batch_size`` tuples per callback, which amortises run pruning
        and fan-out overhead.  Per-stream tuple order is preserved, so
        queries reading a single stream detect identically either way;
        queries whose pattern spans several streams see chunk-granularity
        ordering across those streams and should be fed per tuple (see the
        module docstring).

        With :attr:`metrics` set the call is measured as one batch of shard
        0.  Delivery is synchronous, so its duration is both the batch
        processing time and the ingest→detection ceiling; there is no queue
        to wait in.  The caller's ambient trace is continued, or the head
        sampling decision made; the matcher spans nest under the feed span.
        """
        if self.metrics is None:
            return self._push_many(stream_name, records, batch_size)
        tracer = self.tracer
        trace = current_context()
        if trace is None and tracer.active:
            trace = tracer.sample("ingest")
        span = tracer.span("session.feed", "ingest", trace, stream=stream_name)
        started = perf_clock()
        if span is not None:
            with use_context(span.context):
                count = self._push_many(stream_name, records, batch_size)
        else:
            count = self._push_many(stream_name, records, batch_size)
        busy = perf_clock() - started
        if span is not None:
            span.close(tuples=count)
        shard_metrics = self.metrics.shard(0)
        shard_metrics.observe("batch_processing", busy)
        shard_metrics.add(
            tuples_enqueued=count, tuples_processed=count, batches_processed=1, busy_seconds=busy
        )
        self.metrics.histogram("ingest_to_detection").record(busy)
        return count

    def _push_many(
        self,
        stream_name: str,
        records: Iterable[Mapping[str, Any]],
        batch_size: Optional[int],
    ) -> int:
        # Both checks precede the taps: a rejected call must not be journalled.
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be at least 1 when given")
        stream = self.streams.get(stream_name)
        if self._ingest_taps:
            records = records if isinstance(records, list) else list(records)
            for tap in self._ingest_taps:
                tap(stream_name, records, batch_size)
        if batch_size is None:
            count = stream.push_many(records)
        else:
            chunk = records if isinstance(records, list) else list(records)
            count = len(chunk)
            for start in range(0, count, batch_size):
                stream.push_batch(chunk[start : start + batch_size])
        self.tuples_processed += count
        return count

    # -- views ----------------------------------------------------------------------

    def register_view(
        self,
        name: str,
        source: Union[str, Stream],
        function: Callable[[Mapping[str, Any]], Mapping[str, Any]],
    ) -> View:
        """Register a derived stream computed from ``source`` tuple by tuple."""
        source_stream = self.streams.get(source) if isinstance(source, str) else source
        if name in self.streams:
            output_stream = self.streams.get(name)
        else:
            output_stream = self.streams.create(name)
        view = View(name=name, source=source_stream, output=output_stream, function=function)
        view.start()
        self._views[name] = view
        return view

    def get_view(self, name: str) -> View:
        try:
            return self._views[name]
        except KeyError:
            raise UnknownViewError(
                f"no view named '{name}' is installed; "
                f"installed views: {sorted(self._views)}"
            ) from None

    @property
    def views(self) -> Dict[str, View]:
        return dict(self._views)

    def stream_fields(self) -> Dict[str, Optional[FrozenSet[str]]]:
        """Declared schema per stream name (``None``: undeclared)."""
        return {name: self.streams.get(name).fields for name in self.streams.names()}

    # -- UDFs --------------------------------------------------------------------------

    def register_function(self, name: str, function: Callable[..., Any], arity: Optional[int] = None) -> None:
        """Register a user-defined function for use in query expressions.

        Clears the compiled-predicate cache so queries deployed afterwards
        resolve the new definition (already-deployed matchers keep the
        callables they were compiled against).
        """
        self.functions.register(name, function, arity)
        self.compile_cache.clear()

    # -- query management ----------------------------------------------------------------

    def register_query(
        self, query: Union[str, Query, Any], name: Optional[str] = None
    ) -> DeployedQuery:
        """Deploy a gesture query under the engine's :class:`MatcherConfig`.

        ``query`` is a parsed :class:`Query`, query text in the paper's
        dialect, or any object with a ``build()`` method returning a
        :class:`Query` (in particular a :class:`repro.api.QueryBuilder`
        chain); ``name`` is the registration name and defaults to the
        query's output value.  Streams the query names that do not exist
        yet are created; feeding a stream nobody created is still refused.

        Raises
        ------
        QueryRegistrationError
            If a query with the same name is already deployed.
        """
        query = coerce_query(query)
        registration_name = name or query.registration_name
        if registration_name in self._queries:
            raise QueryRegistrationError(
                f"a query named '{registration_name}' is already registered"
            )

        config = self.matcher_config
        referenced = sorted(query.streams())
        for stream_name in referenced:
            if stream_name not in self.streams:
                self.streams.create(stream_name)

        compiled = compile_pattern(query.pattern)
        matcher = NFAMatcher(
            pattern=compiled,
            output=query.output,
            query_name=registration_name,
            functions=self.functions,
            config=config,
            compile_cache=self.compile_cache,
        )
        deployed = DeployedQuery(
            name=registration_name,
            query=query,
            matcher=matcher,
            sink=FanOutSink([]),
            log=self._log,
            reads=_fields_read(query, config),
        )

        for stream_name in referenced:
            fanout = self._fanouts.get(stream_name)
            if fanout is None:
                fanout = self._fanouts[stream_name] = Fanout(
                    self, self.streams.get(stream_name), self._log
                )
            fanout.queries.append(deployed)
            fanout.changed()

        self._queries[registration_name] = deployed
        self._notify_control("deploy", {"name": registration_name, "text": query.to_query()})
        return deployed

    def unregister_query(self, name: str) -> None:
        """Remove a deployed query and detach it from its streams; its
        detections so far stay in the log."""
        deployed = self.get_query(name)
        del self._queries[name]
        deployed.enabled = False
        for stream_name in deployed.query.streams():
            fanout = self._fanouts[stream_name]
            fanout.queries.remove(deployed)
            if fanout.queries:
                fanout.changed()
            else:
                fanout.release()
                fanout.subscription.cancel()
                del self._fanouts[stream_name]
        self._notify_control("undeploy", {"name": name})

    def get_query(self, name: str) -> DeployedQuery:
        try:
            return self._queries[name]
        except KeyError:
            raise UnknownQueryError(
                f"no query named '{name}' is registered; "
                f"deployed queries: {self.query_names()}"
            ) from None

    def query_names(self) -> List[str]:
        return sorted(self._queries)

    def query_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-query matcher counters, keyed by query name.

        The plain-number view the ``/metrics`` per-query families render
        from; picklable, so process shards return it over a control op.
        """
        return {
            name: deployed.matcher.stats.as_dict()
            for name, deployed in sorted(self._queries.items())
        }

    def query_progress(self) -> Dict[str, Tuple[float, int]]:
        """Per-query ``(progress, active_runs)``: how far the best partial
        match got and how many runs are live (Fig. 5 style feedback)."""
        for fanout in self._fanouts.values():
            fanout.flush()
        return {
            name: (deployed.matcher.progress(), deployed.matcher.active_runs)
            for name, deployed in self._queries.items()
        }

    @property
    def queries(self) -> Dict[str, DeployedQuery]:
        return dict(self._queries)

    def enable_query(self, name: str, enabled: bool = True) -> None:
        """Pause or resume a deployed query without removing it."""
        deployed = self.get_query(name)
        # Its counts are owed up to now, and stop (or restart) here.
        for stream_name in deployed.reads:
            self._fanouts[stream_name].release()
        deployed.enabled = enabled
        self._notify_control("enable", {"name": name, "enabled": enabled})

    # -- detections -----------------------------------------------------------------------

    def detections(
        self, name: Optional[str] = None, partition: Any = _UNSET
    ) -> List[Detection]:
        """The detections of one deployed query, or of every query this
        engine ran, undeployed ones included, in the log's merged order.

        ``partition`` restricts the result to one player (compared against
        :attr:`Detection.partition`).
        """
        if name is not None:
            return self.get_query(name).detections(partition=partition)
        return self._log.snapshot(partition=partition)

    def clear_detections(self) -> None:
        self._log.clear()

    def reset_scene(self) -> None:
        """Start a fresh scene ("a new user steps in"): drop collected
        detections and partial matches, and reset every view's Kinect
        smoothing state."""
        self._log.clear()
        for deployed in self._queries.values():
            deployed.matcher.reset()
        for view in self._views.values():
            if isinstance(view.function, KinectTransformer):
                view.function.reset()
        self._notify_control("clear", {})

    def drain(self, timeout: Optional[float] = None) -> None:
        """No-op: every pushed tuple is processed before ``push`` returns."""

    def collect_telemetry(self, timeout: Optional[float] = None) -> None:
        """No-op: matcher spans already land in :attr:`tracer`."""

    def export_trace(self) -> Dict[str, Any]:
        """The collected spans as a Chrome trace-event document."""
        if self.tracer is None:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        return self.tracer.export()

    # -- state capture / restore ----------------------------------------------------------

    def capture_state(self) -> Dict[str, Any]:
        """Snapshot the engine as a JSON-serialisable dictionary.

        The snapshot captures *state*, not wiring: deployed query texts (the
        paper's dialect round-trips via :meth:`Query.to_query`), each
        matcher's run tables, the detection log in arrival order, stream
        counters, the simulated clock and stateful view transformers.  Subscriptions,
        sinks and compiled predicates are rebuilt on
        :meth:`restore_state` by redeploying the captured query texts.
        """
        clock_now = self.clock.now() if isinstance(self.clock, SimulatedClock) else None
        queries = []
        # In deploy order: a restore redeploys in it, and a tuple visits the
        # queries in it, so detections sharing a frame keep their order.
        for name, deployed in self._queries.items():
            queries.append(
                {
                    "name": name,
                    "text": deployed.query.to_query(),
                    "enabled": deployed.enabled,
                    "matcher": deployed.matcher.capture_state(),
                }
            )
        transformers: Dict[str, Any] = {}
        for view_name, view in self._views.items():
            capture = getattr(view.function, "capture_state", None)
            if callable(capture):
                transformers[view_name] = capture()
        return {
            "kind": "cep-engine",
            "tuples_processed": self.tuples_processed,
            "clock": clock_now,
            "streams": {
                name: self.streams.get(name).capture_state()
                for name in self.streams.names()
            },
            "queries": queries,
            "detections": [d.to_state() for d in self._log.entries()],
            "transformers": transformers,
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Restore a :meth:`capture_state` snapshot into this engine.

        Queries present in the snapshot but not yet deployed are registered
        from their captured text — a ``deploy`` control-tap subscriber (the
        detector, a shard) wires them as for any deploy; queries already
        deployed only have their matcher and enabled flag overwritten.  The
        detection log becomes the snapshot's (older snapshots keep one list
        per query; those are concatenated).  Control taps see ``restore``
        once it succeeded.

        Raises
        ------
        repro.errors.SerializationError
            If ``state`` is not a CEP engine snapshot, or records a query
            partitioned on another field than this engine's.
        """
        if state.get("kind") != "cep-engine":
            raise SerializationError(
                f"cannot restore a CEPEngine from a {state.get('kind')!r} state blob"
            )
        field = self.matcher_config.partition_field
        for entry in state.get("queries", []):
            # Older snapshots record each query's partition field.
            if entry.get("partition_field", field) != field:
                raise SerializationError(
                    f"query '{entry['name']}' was captured partitioned on "
                    f"{entry['partition_field']!r}, but this engine partitions on "
                    f"{field!r}; restore it into an engine with that MatcherConfig"
                )
        for name, stream_state in state.get("streams", {}).items():
            if name not in self.streams:
                self.streams.create(name)
            self.streams.get(name).restore_state(stream_state)
        clock_now = state.get("clock")
        if (
            clock_now is not None
            and isinstance(self.clock, SimulatedClock)
            and clock_now > self.clock.now()
        ):
            self.clock.set(clock_now)
        for entry in state.get("queries", []):
            name = entry["name"]
            if name in self._queries:
                deployed = self._queries[name]
            else:
                deployed = self.register_query(entry["text"], name=name)
            deployed.matcher.restore_state(entry["matcher"])
            deployed.enabled = bool(entry.get("enabled", True))
        detections = state.get("detections")
        if detections is None:
            queries = state.get("queries", [])
            detections = [d for entry in queries for d in entry.get("detections", [])]
        self._log.restore(Detection.from_state(d) for d in detections)
        for view_name, transformer_state in state.get("transformers", {}).items():
            view = self._views.get(view_name)
            if view is None:
                continue
            restore = getattr(view.function, "restore_state", None)
            if callable(restore):
                restore(transformer_state)
        self.tuples_processed = int(state.get("tuples_processed", 0))
        for fanout in self._fanouts.values():
            fanout.rebind()
        self._notify_control("restore", {})

    def __repr__(self) -> str:
        return (
            f"CEPEngine(streams={self.streams.names()}, "
            f"queries={self.query_names()}, tuples={self.tuples_processed})"
        )
