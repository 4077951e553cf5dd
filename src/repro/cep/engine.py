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
across queries.  Each stream that deployed queries read has **one**
subscription, and one :class:`~repro.cep.index.StepIndex` over the steps of
every query on it, built on the first tuple after a deploy, undeploy or
``restore_state``.  Per tuple (or per chunk) the subscription computes the
index verdicts and event times once, then hands the tuple to its queries:
each keeps its own matcher, ``MatcherStats``, ``matcher:<name>`` span and
sinks.  A chunk goes to every query, in deploy order.  A tuple goes only
to the queries it can change — its gate bit, the bit of a step its
player's runs wait for (a step without a bit always), a prune of those
runs due — and the rest are counted in bulk
(:meth:`NFAMatcher.settle`; ``_Fanout`` keeps per-player wake masks and
expiries), so a tuple that wakes nothing costs the lookup, a few mask
tests and a counter increment, whatever the vocabulary's size.  Of the
woken queries, those that can complete a run on the tuple take it first,
in deploy order, and the others after the detections went out; a sink
still sees the tuple delivered in deploy order, since whatever could tell
the difference from inside it — a counter or progress read, a control, a
tuple fed from the sink — first hands the earlier ones the tuple.  A
traced tuple goes to every query, so each keeps its span.  A tuple the
index cannot read (a missing or non-numeric field) falls back to every
query's closures, and so does a stream where the index would answer no
query's gate: there a lookup per tuple would buy nothing.  A query that
raises costs only itself, as a separate subscription would: the rest still
get the tuple, the producer sees the first error in deploy order.

The subscription also runs the idle sweep (:meth:`NFAMatcher.sweep`) of
every enabled query on the stream, without waking one: after each tuple
that brings the stream's ``pushed`` counter to a multiple of
:data:`_IDLE_SWEEP_TUPLES`, at its event time (batched: at the end of the
chunk reaching one, at its last).  A query reading two streams is swept
by both, and a restored engine sweeps on the tuples the live one would.

The subscription also declares the fields its queries read (each query's
set is computed once, at deploy), and does so the moment the queries
change.  That is the projection the ``kinect_t`` view pushes into its
transform: the view computes the joints the deployed vocabulary reads,
not all fifteen, so matcher runs, detections and snapshots carry
projected records (see :func:`~repro.cep.views.install_kinect_view`).
Tuples reach matchers on one of two paths:

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

import math
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Protocol, Sequence, Tuple,
    Union,
)

from repro.cep.expressions import CompiledPredicateCache
from repro.cep.index import ALWAYS, StepIndex
from repro.cep.matcher import UNPARTITIONED, Detection, MatcherConfig, NFAMatcher
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
from repro.streams.stream import Stream, StreamRegistry, Subscription

#: An ingest tap observes every externally pushed tuple *before* delivery:
#: ``tap(stream_name, records, batch_size)``.  The durability subsystem uses
#: this as its write-ahead hook; view-internal pushes (derived streams) do
#: not pass through taps, so a tap sees exactly the external ingest.
IngestTap = Callable[[str, Sequence[Mapping[str, Any]], Optional[int]], None]

#: Tuples of a stream between idle sweeps of its queries; the phase is the
#: stream's ``pushed`` counter, which snapshots keep.
_IDLE_SWEEP_TUPLES = 512

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
    enabled: bool = True
    #: False once undeployed, so a delivery already under way skips it.
    active: bool = True

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


class _Member:
    """One query as a stream's fan-out visits it.

    ``flag`` is its bit in a set of woken queries (bit ``i`` for the
    ``i``-th deployed); ``tracked`` says whether the fan-out wakes it by bit
    (an index answers its gate and it reads no other stream) rather than
    on every tuple.  ``runs`` is its matcher's live run tables and
    ``masks`` / ``costs`` / ``finals`` / ``window`` its wake tables on the
    stream (:meth:`NFAMatcher.wake_tables`).  What a tracked query's
    matcher is owed: the fan-out's tuples since ``base`` but the
    ``claimed`` ones its ``process`` counted, and ``owed`` predicate
    evaluations on top of its partitions' entries.
    """

    __slots__ = (
        "deployed", "matcher", "gate", "flag", "tracked", "runs", "masks", "costs", "finals",
        "window", "base", "claimed", "owed",
    )

    def __init__(
        self, deployed: DeployedQuery, stream_name: str, gate: int, order: int, tracked: bool
    ) -> None:
        self.deployed = deployed
        self.matcher = deployed.matcher
        self.gate = gate
        self.flag = 1 << order
        self.tracked = tracked
        self.runs = self.matcher.runs
        self.masks, self.costs, self.finals = self.matcher.wake_tables(stream_name)
        self.window = self.matcher.expiry_window
        self.base = self.claimed = self.owed = 0


class _Awake:
    """One partition as a fan-out sees it.

    Per tracked query holding runs there, an entry ``[table, base, cost,
    mask, oldest, final, occupied]``: the matcher's live run table, the
    ``count`` of this partition's tuples its evaluations are settled up to,
    and what the table held when its query last processed one of them —
    the evaluations a tuple it skips costs, the bits that wake it, the
    ``oldest`` bound its prune tests, the bit that completes a run, and
    the occupancy all but ``oldest`` derive from.  ``mask`` / ``expiry``
    bound every entry (``oldest`` plus its window): they only widen as
    entries change, and are made tight again when they wake nothing.
    """

    __slots__ = ("count", "mask", "expiry", "runs")

    def __init__(self) -> None:
        self.count = 0
        self.mask = 0
        self.expiry = math.inf
        self.runs: Dict[_Member, List[Any]] = {}

    def enter(self, member: _Member, part: Any) -> None:
        """(Re)read ``member``'s entry from its run table ``part``."""
        occupied = part.occupied
        mask = member.masks[occupied]
        self.runs[member] = [
            part,
            self.count,
            member.costs[occupied],
            mask,
            part.oldest,
            member.finals[occupied],
            occupied,
        ]
        self.mask |= mask
        expiry = part.oldest + member.window
        if expiry < self.expiry:
            self.expiry = expiry


class _Fanout:
    """A stream's one subscription: the queries reading it, in deploy order,
    the index over their steps (``members`` is ``None`` until the first
    tuple after they changed), and the wake state of the per-tuple path.
    Both handlers call :meth:`sweep`, the stream's idle sweep.

    Wake state: a tuple calls :meth:`NFAMatcher.process` only on the queries
    it can change; every other tracked query is owed the count ``process``
    would have made, settled in bulk by :meth:`release`.  The state is
    built on the first per-tuple tuple after a release, which a batch, a
    control and a read of a matcher's counters all cause.  ``ready`` is
    false until it is built, and while detections are emitted (``busy``).

    A woken query that cannot complete a run on the tuple (``late``) takes
    it after every query that can, so detections go out first.  While a
    sink runs, the late ones deploy order puts before the emitting query
    are ``deferred``: whatever could see the difference — a tuple fed from
    the sink, a release, a progress read — hands them the tuple first
    (:meth:`flush`), from ``held``, the tuple's delivery.
    """

    def __init__(
        self,
        stream_name: str,
        log: DetectionLog,
        failed: Callable[[DeployedQuery, Exception], None],
    ) -> None:
        self.stream = stream_name
        self.log = log
        self.failed = failed
        self.queries: List[DeployedQuery] = []
        self.subscription: Optional[Subscription] = None
        self.members: Optional[Tuple[_Member, ...]] = None
        self.index = StepIndex(())
        self.ready = self.fresh = self.busy = self.tracking = False
        #: Bumped by every :meth:`release`: a delivery that sees it move
        #: stops keeping the wake state it started with.
        self.epoch = 0
        self.time_field = "ts"
        self.field: Optional[str] = None
        #: Flags of the enabled queries, and of the untracked ones, which
        #: every tuple wakes.
        self.enabled = self.always = 0
        self.everyone: Tuple[_Member, ...] = ()
        self.tracked: Tuple[_Member, ...] = ()
        self.by_flag: Dict[int, _Member] = {}
        #: Per gate bit, the flags of the tracked queries a tuple carrying
        #: it opens a run of; ``singles``: those whose gate completes one.
        self.gates: Dict[int, int] = {}
        self.gate_mask = self.singles = self.completing = 0
        self.parts: Dict[Any, _Awake] = {}
        #: Tuples delivered since the wake state was built.
        self.count = 0
        #: The tuple being delivered: its partition, the flags of the woken
        #: queries that have not started on it (a release leaves the tuple
        #: to them) and of those whose runs are not read back yet, what the
        #: late ones need (``held``) and the errors they raised.
        self.inflight: Optional[_Awake] = None
        self.pending = self.unread = self.deferred = 0
        self.held: Optional[Tuple[Any, ...]] = None
        self.failures: List[Tuple[int, Exception]] = []

    def changed(self) -> None:
        """The queries changed: rebind on the next tuple, and declare at
        once the fields they read, so the view producing the stream
        projects that very tuple."""
        self.rebind()
        self.subscription.declare(
            frozenset().union(*(deployed.reads[self.stream] for deployed in self.queries))
        )

    def rebind(self) -> None:
        self.release()
        self.members = None

    def flush(self) -> None:
        """Hand the deferred queries the tuple in flight."""
        if self.deferred:
            flags, self.deferred = self.deferred, 0
            self.late(flags)

    def late(self, flags: int) -> None:
        """Hand the late queries ``flags`` names the tuple in flight, in
        deploy order, as the handler's loop would (they cannot complete a
        run on it)."""
        record, timestamp, verdicts, key, epoch = self.held
        while flags:
            flag = flags & -flags
            flags ^= flag
            member = self.by_flag[flag]
            deployed = member.deployed
            if not (deployed.enabled and deployed.active):
                continue
            booked = self.epoch == epoch
            if booked:
                self.pending &= ~flag
                member.claimed += 1
            else:
                self.release()
            try:
                detections = member.matcher.process(record, self.stream, timestamp, verdicts)
                if detections:  # not from a run it cannot complete; kept whole regardless
                    self.log.extend(detections)
                    for detection in detections:
                        deployed.sink.emit(detection)
            except Exception as error:  # noqa: BLE001 — isolate, deliver to the rest
                self.failed(deployed, error)
                self.failures.append((flag, error))
            if booked and self.epoch == epoch:
                self.processed(member, key)

    def release(self) -> None:
        """Settle every count owed and forget the wake state."""
        self.flush()
        if not self.fresh:
            return
        self.fresh = self.ready = False
        self.epoch += 1
        for member in self.tracked:
            member.matcher.release = None
            if member.flag & (self.pending | self.unread):
                # The tuple in flight is this query's own to count.
                if member.flag & self.pending:
                    member.claimed += 1
                entry = self.inflight.runs.get(member) if self.inflight else None
                if entry is not None:
                    entry[1] += 1
            self._settle(member, self.count)
        self.parts = {}
        self.inflight, self.pending, self.unread = None, 0, 0

    def sweep(self, now: float) -> None:
        """Sweep every enabled query at event time ``now``: one that drops a
        partition releases the wake state first, one that drops nothing
        leaves it."""
        for deployed in tuple(self.queries):
            if deployed.enabled and deployed.active:
                deployed.matcher.sweep(now)

    def _settle(self, member: _Member, upto: int) -> None:
        """Hand ``member``'s matcher what it is owed for tuples up to ``upto``."""
        evaluations = member.owed
        for awake in self.parts.values():
            entry = awake.runs.get(member)
            if entry is not None:
                evaluations += (awake.count - entry[1]) * entry[2]
                entry[1] = awake.count
        tuples = upto - member.base - member.claimed
        if tuples or evaluations:
            member.matcher.settle(self.stream, tuples, evaluations)
        member.base, member.claimed, member.owed = upto, 0, 0

    def awaken(self, config: MatcherConfig) -> None:
        """Build the wake state from the enabled queries' run tables."""
        self.fresh = True
        self.ready = not self.busy
        self.time_field, self.field = config.timestamp_field, config.partition_field
        self.count = 0
        self.parts = {}
        enabled = [
            member
            for member in self.members
            if member.deployed.enabled and member.deployed.active
        ]
        self.by_flag = {member.flag: member for member in enabled}
        self.everyone = tuple(enabled)
        self.tracked = tuple(member for member in enabled if member.tracked)
        self.tracking = bool(self.tracked)
        self.enabled = self.always = self.gate_mask = self.singles = 0
        self.gates = {}
        for member in enabled:
            self.enabled |= member.flag
            if not member.tracked:
                self.always |= member.flag
                continue
            member.base = member.claimed = member.owed = 0
            self.gates[member.gate] = self.gates.get(member.gate, 0) | member.flag
            self.gate_mask |= member.gate
            if member.matcher.pattern.length == 1:
                self.singles |= member.flag
            for key in member.runs:
                self.rejoin(member, key)
            member.matcher.release = self.release

    def gated(self, hit: int) -> int:
        """The flags of the queries whose gate bits ``hit`` holds."""
        flags = 0
        while hit:
            bit = hit & -hit
            flags |= self.gates[bit]
            hit ^= bit
        return flags

    def due(self, awake: _Awake, verdicts: int, timestamp: float) -> int:
        """The flags of the queries holding runs in ``awake``'s partition
        that the tuple can move (it carries a bit of a step they wait for)
        or prune; ``completing``, of those it can complete a run of.  The
        bounds are made tight when there are none."""
        flags = early = 0
        for member, entry in awake.runs.items():
            # Exactly when process would scan: see "Fast path" in repro.cep.matcher.
            if verdicts & entry[3] or timestamp - entry[4] > member.window:
                flags |= member.flag
                if verdicts & entry[5]:
                    early |= member.flag
        if not flags:
            mask, expiry = 0, math.inf
            for member, entry in awake.runs.items():
                mask |= entry[3]
                expiry = min(expiry, entry[4] + member.window)
            awake.mask, awake.expiry = mask, expiry
        self.completing = early
        return flags

    def processed(self, member: _Member, key: Any) -> None:
        """After ``member`` processed a tuple of ``key``'s partition: settle
        the tuples it skipped there before, at the cost they saw, and read
        back its runs (the handler reads back an entry the tuple left
        unchanged itself)."""
        awake = self.parts.get(key)
        entry = awake.runs.get(member) if awake is not None else None
        if entry is None:
            self.rejoin(member, key)
            return
        member.owed += (awake.count - 1 - entry[1]) * entry[2]
        part = member.runs.get(key)
        if part is not None:
            awake.enter(member, part)
        else:
            del awake.runs[member]
            if not awake.runs:
                del self.parts[key]

    def rejoin(self, member: _Member, key: Any) -> None:
        """Read back ``member``'s runs in ``key``'s partition, whose counts
        are settled."""
        part = member.runs.get(key)
        awake = self.parts.get(key)
        if part is not None:
            if awake is None:
                awake = self.parts[key] = _Awake()
            awake.enter(member, part)
        elif awake is not None and awake.runs.pop(member, None) is not None:
            if not awake.runs:
                del self.parts[key]


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
        self._fanouts: Dict[str, _Fanout] = {}
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
                fanout = self._fanouts[stream_name] = _Fanout(
                    stream_name,
                    self._log,
                    partial(self._failed, stream_name),
                )
                fanout.subscription = self.streams.get(stream_name).subscribe(
                    self._make_handler(stream_name, fanout),
                    name=f"queries:{stream_name}",
                    batch_callback=self._make_batch_handler(stream_name, fanout),
                    reads=(),
                )
            fanout.queries.append(deployed)
            fanout.changed()

        self._queries[registration_name] = deployed
        self._notify_control("deploy", {"name": registration_name, "text": query.to_query()})
        return deployed

    def _bind(self, stream_name: str, fanout: _Fanout) -> Tuple[_Member, ...]:
        """(Re)build ``fanout``'s index and bind every query on it."""
        matchers = [deployed.matcher for deployed in fanout.queries]
        index = StepIndex(atoms for matcher in matchers for atoms in matcher.indexable_steps(stream_name))
        gates = [matcher.bind_index(stream_name, index) for matcher in matchers]
        if all(gate in (0, ALWAYS) for gate in gates):
            # The lookup costs every tuple and pays off by answering gates;
            # with none to answer, the few later-step verdicts stay closures.
            index = StepIndex(())
            gates = [matcher.bind_index(stream_name, index) for matcher in matchers]
        fanout.index = index
        fanout.members = tuple(
            _Member(
                deployed,
                stream_name,
                gate,
                order,
                # Woken by bit: the index answers its gate, and every tuple it
                # counts arrives here.
                tracked=gate not in (0, ALWAYS) and len(deployed.reads) == 1,
            )
            for order, (deployed, gate) in enumerate(zip(fanout.queries, gates))
        )
        return fanout.members

    def _failed(self, stream_name: str, deployed: DeployedQuery, error: Exception) -> None:
        """Record a query's failure as its own subscription's would be; the
        first error is raised once every query had the delivery."""
        self.streams.get(stream_name).record_failure(f"query:{deployed.name}", error)

    def _make_handler(
        self, stream_name: str, fanout: _Fanout
    ) -> Callable[[Mapping[str, Any]], None]:
        log = self._log
        stats = self.streams.get(stream_name).stats

        def handle(record: Mapping[str, Any]) -> None:
            if not fanout.ready:
                if fanout.members is None:
                    self._bind(stream_name, fanout)
                elif fanout.busy:
                    # Fed by a sink: settle the delivery under way, which
                    # then stops keeping the state rebuilt here.
                    fanout.release()
                if not fanout.fresh:
                    fanout.awaken(self.matcher_config)
            if not fanout.enabled:
                return
            try:
                value = record.get(fanout.time_field)
                timestamp = float(value) if value is not None else self.clock.now()
            except Exception as error:  # noqa: BLE001 — every query fails on it
                for member in fanout.everyone:
                    self._failed(stream_name, member.deployed, error)
                raise
            index = fanout.index
            verdicts = index.lookup(record) if index.fields else None
            tracer = self.tracer
            # A traced tuple keeps one span per query: every query is woken then.
            context = current_context() if tracer is not None and tracer.active else None
            # Read before delivery: a tuple fed from a sink counts after this one.
            sweep = not stats.pushed % _IDLE_SWEEP_TUPLES
            try:
                if fanout.tracking:
                    field = fanout.field
                    key = record.get(field) if field is not None else UNPARTITIONED
                    try:
                        awake = fanout.parts.get(key)
                    except TypeError:  # an unhashable partition value: every query raises
                        fanout.release()
                    else:
                        deliver(record, timestamp, verdicts, context, key, awake)
                        return
                visit(record, timestamp, verdicts, context)
            finally:
                if sweep:
                    fanout.sweep(timestamp)

        def visit(
            record: Mapping[str, Any], timestamp: float, verdicts: Optional[int], context: Any
        ) -> None:
            """No bits to wake on: every query takes the tuple, in deploy order."""
            epoch = fanout.epoch
            tracer = self.tracer
            first: Optional[Exception] = None
            for member in fanout.everyone:
                deployed = member.deployed
                if not (deployed.enabled and deployed.active):
                    continue
                try:
                    span = None
                    if context is not None:
                        span = tracer.span(f"matcher:{deployed.name}", "matcher", context)
                    detections = member.matcher.process(record, stream_name, timestamp, verdicts)
                    if span is not None:
                        span.close(tuples=1, detections=len(detections))
                    if detections:
                        log.extend(detections)
                        for detection in detections:
                            deployed.sink.emit(detection)
                except Exception as error:  # noqa: BLE001 — isolate, deliver to the rest
                    self._failed(stream_name, deployed, error)
                    first = first or error
            if fanout.epoch != epoch:
                fanout.release()
            if first is not None:
                raise first

        def deliver(
            record: Mapping[str, Any],
            timestamp: float,
            verdicts: Optional[int],
            context: Any,
            key: Any,
            awake: Optional[_Awake],
        ) -> None:
            """Hand the tuple to the queries it wakes (see ``_Fanout``)."""
            fanout.count += 1
            if awake is not None:
                awake.count += 1
            late = 0
            if verdicts is None or context is not None:
                flags = fanout.enabled
            else:
                flags = early = fanout.always
                hit = verdicts & fanout.gate_mask
                if hit:
                    gated = fanout.gates.get(hit) or fanout.gated(hit)
                    flags |= gated
                    early |= gated & fanout.singles
                if awake is not None and (verdicts & awake.mask or timestamp >= awake.expiry):
                    flags |= fanout.due(awake, verdicts, timestamp)
                    early |= fanout.completing
                if not flags:
                    return  # the tuple wakes nothing
                late = flags & ~early
                flags = early
            tracer = self.tracer
            epoch = fanout.epoch
            by_flag = fanout.by_flag
            failures: Optional[List[Tuple[int, Exception]]] = None
            while flags or late:
                if not flags:
                    flags, late = late, 0
                flag = flags & -flags
                flags ^= flag
                member = by_flag[flag]
                deployed = member.deployed
                if not (deployed.enabled and deployed.active):
                    continue
                booked = member.tracked
                if booked:
                    if fanout.epoch != epoch:
                        # A sink released the state mid-delivery: settle what
                        # the state rebuilt since owes before runs change.
                        fanout.release()
                        booked = False
                    else:
                        member.claimed += 1  # process counts it
                try:
                    span = None
                    if context is not None:
                        span = tracer.span(f"matcher:{deployed.name}", "matcher", context)
                    detections = member.matcher.process(record, stream_name, timestamp, verdicts)
                    if span is not None:
                        span.close(tuples=1, detections=len(detections))
                    if detections:
                        log.extend(detections)
                        # What a sink does may release the state: tell it
                        # which queries have not started on the tuple yet,
                        # and which one has not been read back.
                        fanout.inflight, fanout.pending = awake, flags | late
                        fanout.unread = flag if booked else 0
                        # Its sinks run as if deploy order had been kept: what
                        # could tell the late queries before it apart hands
                        # them the tuple first (_Fanout.flush).
                        deferred = late & (flag - 1)
                        if deferred:
                            late ^= deferred
                            fanout.deferred = deferred
                            fanout.held = (record, timestamp, verdicts, key, epoch)
                        outer = fanout.busy
                        fanout.busy, fanout.ready = True, False
                        try:
                            for detection in detections:
                                deployed.sink.emit(detection)
                        finally:
                            fanout.busy = outer
                            fanout.ready = fanout.fresh and not outer
                            fanout.inflight, fanout.pending, fanout.unread = None, 0, 0
                            if deferred:
                                late |= fanout.deferred
                                fanout.deferred, fanout.held = 0, None
                except Exception as error:  # noqa: BLE001 — isolate, deliver to the rest
                    self._failed(stream_name, deployed, error)
                    failures = (failures or []) + [(flag, error)]
                # Read back after the detections went out, off the path to
                # them; a sink that released the state meanwhile settled it.
                if booked and fanout.epoch == epoch:
                    entry = awake.runs.get(member) if awake is not None else None
                    part = member.runs.get(key)
                    if (
                        entry is not None
                        and part is entry[0]
                        and part.occupied == entry[6]
                        and part.oldest == entry[4]
                    ):
                        # The tuple changed nothing the entry reads: settle
                        # the tuples skipped before it, at the cost they saw.
                        member.owed += (awake.count - 1 - entry[1]) * entry[2]
                        entry[1] = awake.count
                    else:
                        fanout.processed(member, key)
            if fanout.failures:
                failures = (failures or []) + fanout.failures
                fanout.failures = []
            if fanout.epoch != epoch:
                fanout.release()
            if failures:
                # The producer sees the first error in deploy order.
                raise min(failures, key=itemgetter(0))[1]

        return handle

    def _make_batch_handler(
        self, stream_name: str, fanout: _Fanout
    ) -> Callable[[Sequence[Mapping[str, Any]]], None]:
        log = self._log
        stats = self.streams.get(stream_name).stats

        def handle_batch(records: Sequence[Mapping[str, Any]]) -> None:
            # The chunk is counted already; a tuple fed from a sink counts after it.
            pushed = stats.pushed
            members = fanout.members or self._bind(stream_name, fanout)
            lookup = fanout.index.lookup
            verdicts = [lookup(record) for record in records] if fanout.index.fields else None
            tracer = self.tracer
            context = current_context() if tracer is not None and tracer.active else None
            timestamp_field = self.matcher_config.timestamp_field
            timestamps: Optional[List[float]] = None
            first: Optional[Exception] = None
            for member in members:
                deployed = member.deployed
                if not (deployed.enabled and deployed.active):
                    continue
                try:
                    # Bound only once every time converted: a bad time fails each query.
                    if timestamps is None:
                        timestamps = [
                            float(value) if value is not None else self.clock.now()
                            for value in (record.get(timestamp_field) for record in records)
                        ]
                    span = None
                    if context is not None:
                        span = tracer.span(f"matcher:{deployed.name}", "matcher", context)
                    detections = member.matcher.process_batch(
                        records, stream_name, timestamps, verdicts
                    )
                    if span is not None:
                        span.close(tuples=len(records), detections=len(detections))
                    if detections:
                        log.extend(detections)
                        for detection in detections:
                            deployed.sink.emit(detection)
                except Exception as error:  # noqa: BLE001 — isolate, deliver to the rest
                    self._failed(stream_name, deployed, error)
                    first = first or error
            # At the end of a chunk that reaches a multiple of the period.
            if timestamps and pushed % _IDLE_SWEEP_TUPLES < len(records):
                fanout.sweep(timestamps[-1])
            if first is not None:
                raise first

        return handle_batch

    def unregister_query(self, name: str) -> None:
        """Remove a deployed query and detach it from its streams; its
        detections so far stay in the log."""
        deployed = self.get_query(name)
        del self._queries[name]
        deployed.active = False
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
