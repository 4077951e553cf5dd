"""The unified ``GestureSession`` façade.

Before this module, every application hand-wired the same stack: a
:class:`~repro.cep.engine.CEPEngine`, the ``kinect_t`` view
(:func:`~repro.cep.views.install_kinect_view`), a
:class:`~repro.detection.detector.GestureDetector`, one
:class:`~repro.core.learner.GestureLearner` per gesture, and a
:class:`~repro.storage.database.GestureDatabase`.  A
:class:`GestureSession` owns all of it behind one object with a
context-manager lifecycle::

    with GestureSession() as session:
        session.learn("swipe_right", samples, deploy=True)
        session.on("swipe_right", handler)
        session.feed(frames, batch_size=64)
        events = session.events

Everything composes the engine's fast paths transparently: deployed
predicates go through the engine-wide compiled-predicate cache,
``feed(batch_size=…)`` uses the batched delivery path, and detections stay
partitioned per player (``session.detections(partition=…)``).

Lifecycle
---------
A session starts lazily on first use (or explicitly via :meth:`start` /
``with``).  Calling :meth:`start` twice raises
:class:`~repro.errors.SessionStateError`; feeding a closed session raises
:class:`~repro.errors.SessionClosedError`.  Handlers registered through
:meth:`on` / :meth:`on_any` are exception-isolated: a raising handler never
breaks delivery to other handlers, the failure is recorded in
:attr:`GestureSession.handler_errors` (and forwarded to :meth:`on_error`
observers).

Scaling out
-----------
``SessionConfig(shards=N)`` with ``N > 1`` runs the session on a
:class:`~repro.runtime.ShardedRuntime`, an :class:`~repro.cep.engine.Engine`
like the inline one; see ``docs/runtime.md``.  The session does no engine
work of its own: ``feed`` is one ``push_many`` on either engine, and each
engine measures its own ingest into ``session.metrics``.

Durability
----------
``GestureSession(durability=DurabilityConfig("./run1"))`` puts the session
on a write-ahead event log: every fed tuple is appended *before* it is
delivered, and every state change the engine accepts (deploy / undeploy /
enable / clear, whichever door it came through) right after, and
:meth:`GestureSession.snapshot` (or the automatic
``snapshot_every_tuples`` policy) persists the whole stack's state —
matcher run tables, detections, transformer smoothing state, stream
counters, the simulated clock — anchored to a log offset.  After a crash,
:meth:`GestureSession.recover` rebuilds the session from the newest
snapshot plus the log tail, with per-partition detections identical to an
uninterrupted run; :meth:`GestureSession.replay` re-drives the recorded
log into fresh sessions with VCR controls (faster-than-realtime, pause,
seek-to-offset).  Both drive the session's engine through one log
applier, :func:`~repro.persistence.replay.apply_log_entry`, and
:attr:`GestureSession.events` reads the engine's detection log, which a
snapshot restores.
Works on inline and sharded sessions alike — a sharded
snapshot captures every shard's engine keyed by the router topology, and
recovery refuses a directory recorded under a different topology::

    with GestureSession(durability=DurabilityConfig("./run1")) as session:
        session.deploy(hands_up)
        session.feed(frames)
        session.snapshot()
        session.feed(more_frames)          # appended to the log
    # ... crash, new process ...
    session = GestureSession.recover(DurabilityConfig("./run1"))
    session.events                         # identical to the live run's
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.dsl import Expr, QueryBuilder
from repro.analysis import gate_deployment
from repro.cep.engine import _UNSET, CEPEngine, Engine, QueryHandle, coerce_query
from repro.cep.matcher import Detection, MatcherConfig
from repro.cep.query import Query
from repro.cep.sinks import Sink
from repro.cep.views import RAW_STREAM_NAME, View, install_kinect_view
from repro.core.description import GestureDescription
from repro.core.learner import GestureLearner
from repro.detection.detector import GestureDetector, GestureHandler
from repro.detection.events import DetectionFeedback, GestureEvent
from repro.detection.workflow import LearningWorkflow, WorkflowConfig
from repro.errors import (
    QueryBuilderError,
    SessionClosedError,
    SessionStateError,
    ShardFailedError,
)
from repro.observability.health import HealthReport, HealthWatchdog
from repro.observability.tracing import TraceContext, Tracer, use_context
from repro.persistence import (
    FSYNC_OWED_AFTER,
    DurabilityConfig,
    DurabilityManager,
    RecoveryResult,
    ReplayController,
)
from repro.runtime.metrics import MetricsRegistry
from repro.storage.database import GestureDatabase
from repro.transform.pipeline import KinectTransformer, TransformConfig


@dataclass(frozen=True)
class SessionConfig:
    """Configuration of a :class:`GestureSession`.

    Composes the per-subsystem configurations instead of duplicating their
    knobs: ``matcher`` tunes the NFA runtime (partitioning, run caps,
    compiled predicates), ``transform`` the ``kinect_t`` view, and
    ``workflow`` the learning pipeline (learner, query generation,
    recording controller, validation).

    Attributes
    ----------
    matcher:
        Engine-wide NFA runtime configuration: every deployed query runs
        under it, and a recovering session is built with it again.
    transform:
        Configuration of the installed Kinect transformation view.
    workflow:
        Learning-pipeline configuration (its ``learner`` and ``querygen``
        entries are also what :meth:`GestureSession.learn` and
        :meth:`GestureSession.deploy` use for descriptions).
    database_path:
        Gesture-database location (``":memory:"`` by default).
    batch_size:
        Default chunk size of :meth:`GestureSession.feed`; ``None`` keeps
        the per-tuple delivery path.
    deploy_control_gestures:
        Deploy the wave/finalise control queries when the interactive
        workflow is first used.
    shards:
        Number of worker shards.  ``1`` (default) runs the inline engine
        exactly as before; ``N > 1`` runs a
        :class:`~repro.runtime.ShardedRuntime` of N engines with frames
        routed per player (see "Scaling out" in the module docstring).
    shard_executor:
        ``"thread"`` (default) or ``"process"`` worker shards; only
        meaningful with ``shards > 1``.
    queue_capacity:
        Per-shard bound on the tuples in flight to a worker; feeding that
        outruns the workers waits for them.  Load is shed only at a
        gateway tenant's edge (``TenantConfig.policy``).
    analyze:
        Default static-analysis gate of :meth:`GestureSession.deploy` and
        :meth:`GestureSession.deploy_vocabulary`: ``"off"`` (default),
        ``"warn"`` or ``"strict"``.  See ``docs/analysis.md``.
    telemetry:
        ``True`` (default) maintains latency histograms and per-query
        matcher counters (queue wait, batch processing, ingest→detection;
        exposed on :attr:`GestureSession.metrics` and ``/metrics``).
        ``False`` disables the whole observability layer, restoring the
        exact pre-telemetry hot path.  See ``docs/observability.md``.
    trace_sample_rate:
        Fraction of feeds that start a trace (0.0, the default, records no
        spans and costs nothing on the hot path; 1.0 traces every feed).
        Sampled spans are exported by :meth:`GestureSession.export_trace`.
    """

    matcher: MatcherConfig = field(default_factory=MatcherConfig)
    transform: TransformConfig = field(default_factory=TransformConfig)
    workflow: WorkflowConfig = field(default_factory=WorkflowConfig)
    database_path: Union[str, Path] = ":memory:"
    batch_size: Optional[int] = None
    deploy_control_gestures: bool = False
    shards: int = 1
    shard_executor: str = "thread"
    queue_capacity: int = 2048
    analyze: str = "off"
    telemetry: bool = True
    trace_sample_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.analyze not in ("off", "warn", "strict"):
            raise ValueError(
                f"analyze must be 'off', 'warn' or 'strict', not {self.analyze!r}"
            )
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be at least 1 when given")
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.shard_executor not in ("thread", "process"):
            raise ValueError("shard_executor must be 'thread' or 'process'")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError(
                f"trace_sample_rate must be in [0, 1], got {self.trace_sample_rate!r}"
            )


@dataclass(frozen=True)
class HandlerFailure:
    """One exception raised by a gesture handler (delivery was not broken)."""

    gesture: str
    event: GestureEvent
    error: BaseException


#: Vocabulary sources ``deploy_vocabulary`` accepts.
VocabularySource = Union[GestureDatabase, Mapping[str, Any]]


class GestureSession:
    """One façade over the whole learn-deploy-detect stack.

    Parameters
    ----------
    config:
        Session configuration; defaults compose the subsystem defaults.
    durability:
        A :class:`~repro.persistence.DurabilityConfig` puts the session on
        a write-ahead event log with snapshot/recover/replay support (see
        "Durability" in the module docstring).  ``None`` (default) keeps
        the session fully in-memory.
    database:
        An existing gesture database; the session will not close it.

    Examples
    --------
    >>> from repro.api import GestureSession, F, Q
    >>> with GestureSession() as session:
    ...     _ = session.deploy(
    ...         Q.stream("kinect_t").where(F("rhand_y") > 400).named("hands_up")
    ...     )
    ...     session.feed([{"ts": 0.0, "rhand_y": 500.0}], stream="kinect_t")
    ...     [event.gesture for event in session.events]
    1
    ['hands_up']
    """

    def __init__(
        self,
        config: Optional[SessionConfig] = None,
        database: Optional[GestureDatabase] = None,
        durability: Optional[DurabilityConfig] = None,
    ) -> None:
        self.config = config or SessionConfig()
        self._engine: Optional[Engine] = None
        self._runtime = None  # type: Optional[Any]  # ShardedRuntime when shards > 1
        self._database = database
        self._owns_database = database is None
        self._view: Optional[View] = None
        self._detector: Optional[GestureDetector] = None
        self._workflow: Optional[LearningWorkflow] = None
        self._durability_config = durability
        self._durability: Optional[DurabilityManager] = None
        self._metrics: Optional[MetricsRegistry] = None
        self._tracer: Optional[Tracer] = None
        fsync = durability.fsync if durability is not None else None
        self._health = HealthWatchdog(FSYNC_OWED_AFTER.get(fsync))
        #: What the last :meth:`recover` replayed (``None`` on live sessions).
        self.last_recovery: Optional[RecoveryResult] = None
        self._started = False
        self._closed = False
        self.handler_errors: List[HandlerFailure] = []
        self._error_handlers: List[Callable[[HandlerFailure], None]] = []

    # -- lifecycle ---------------------------------------------------------------------

    def start(self) -> "GestureSession":
        """Build and wire the stack.  Raises on double-start or after close."""
        if self._closed:
            raise SessionClosedError("this session has been closed")
        if self._started:
            raise SessionStateError(
                "the session is already started; create a new GestureSession "
                "for a fresh stack"
            )
        self._engine = self._build_engine()
        if self._database is None:
            self._database = GestureDatabase(self.config.database_path)
        self._detector = GestureDetector(
            engine=self._engine, querygen_config=self.config.workflow.querygen
        )
        self._init_durability()
        self._started = True
        return self

    def _build_engine(self) -> Engine:
        """Build the engine, tracer and registry: inline, or sharded."""
        if self.config.telemetry:
            self._tracer = Tracer(sample_rate=self.config.trace_sample_rate)
        if self.config.shards > 1:
            return self._build_runtime()
        engine = CEPEngine(matcher_config=self.config.matcher)
        self._view = install_kinect_view(engine, transform_config=self.config.transform)
        if self._tracer is not None or self._durability_config is not None:
            # Shard 0 of an inline registry holds the feed histograms, so
            # ``session.metrics`` (and a gateway scrape) works either way.
            self._metrics = MetricsRegistry()
        if self._tracer is not None:
            # The engine measures its own ingest, as a runtime's shards do.
            engine.tracer = self._tracer
            engine.metrics = self._metrics
            self._metrics.set_query_stats_provider(engine.query_stats)
        return engine

    def _build_runtime(self) -> Engine:
        """Build and start the :class:`~repro.runtime.ShardedRuntime`."""
        from repro.runtime import ShardedRuntime
        from repro.runtime.shard import ShardEngineSpec

        spec = ShardEngineSpec(
            matcher=self.config.matcher,
            transform=self.config.transform,
            telemetry=self.config.trace_sample_rate if self.config.telemetry else None,
        )
        runtime = ShardedRuntime(
            shard_count=self.config.shards,
            spec=spec,
            executor=self.config.shard_executor,
            queue_capacity=self.config.queue_capacity,
            tracer=self._tracer,
        )
        runtime.start()
        self._runtime = runtime
        self._metrics = runtime.metrics
        return runtime

    def _init_durability(self) -> None:
        """Open the event log and install the write-ahead ingest tap."""
        if self._durability_config is None:
            return
        self._durability = DurabilityManager(
            self._engine, self._durability_config, metrics=self._metrics.durability
        )
        self._durability.attach()

    def close(self) -> None:
        """End the session.  Idempotent; further feeding raises.

        With durability enabled, the event log is flushed, fsynced and
        sealed here — a cleanly closed directory recovers with zero replay
        beyond the last snapshot's tail.
        """
        if self._closed:
            return
        self._closed = True
        self._started = False
        if self._runtime is not None:
            # Finish queued work, stop the workers, keep results readable.
            self._runtime.stop(drain=True)
            self._runtime.join()
        if self._durability is not None:
            self._durability.close()
        if self._database is not None and self._owns_database:
            self._database.close()

    def __enter__(self) -> "GestureSession":
        self._ensure_started()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def started(self) -> bool:
        return self._started

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_started(self) -> None:
        if self._closed:
            raise SessionClosedError("this session has been closed")
        if not self._started:
            self.start()

    # -- owned components --------------------------------------------------------------

    @property
    def engine(self) -> CEPEngine:
        self._ensure_started()
        assert self._engine is not None
        if self._runtime is not None:
            raise SessionStateError(
                "a sharded session has one engine per shard, not a single "
                "CEPEngine; use session.runtime (or an inline shards=1 "
                "session) instead"
            )
        return self._engine

    @property
    def runtime(self):
        """The :class:`~repro.runtime.ShardedRuntime`, or ``None`` inline.

        Stays readable after :meth:`close` (like :attr:`events`), so
        metrics can be reported once a workload finished.
        """
        if self._runtime is None and self.config.shards > 1 and not self._closed:
            self._ensure_started()
        return self._runtime

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """The session's :class:`~repro.runtime.MetricsRegistry`.

        Sharded sessions expose the runtime's registry (per-shard counters,
        latency histograms, durability); an inline session has one whenever
        telemetry (the default) or durability is enabled — its shard 0
        carries the feed-path histograms.  ``None`` only with both off, or
        before the session started.
        """
        return self._metrics

    @property
    def tracer(self) -> Optional[Tracer]:
        """The session's span tracer, or ``None`` with telemetry off."""
        return self._tracer

    @property
    def detector(self) -> GestureDetector:
        self._ensure_started()
        assert self._detector is not None
        return self._detector

    @property
    def database(self) -> GestureDatabase:
        self._ensure_started()
        assert self._database is not None
        return self._database

    @property
    def view(self) -> View:
        self._ensure_started()
        if self._runtime is not None:
            raise SessionStateError(
                "a sharded session has one transformation view per shard; "
                "shard-local transformer state is managed through "
                "session.clear() (which resets every shard's transformer)"
            )
        assert self._view is not None
        return self._view

    @property
    def transformer(self) -> Optional[KinectTransformer]:
        """The view's stateful Kinect transformer, when one is installed.

        ``None`` on a sharded session (each shard owns its own transformer).
        """
        if self._runtime is not None:
            return None
        function = self.view.function
        return function if isinstance(function, KinectTransformer) else None

    @property
    def workflow(self) -> LearningWorkflow:
        """The interactive learning workflow, created on first use.

        Shares the session's engine and database, and deploys through the
        session itself, so a gesture finalised by the workflow passes the
        analyzer gate, dispatches to :meth:`on` handlers and lands in
        :attr:`events` like everything else.
        """
        self._ensure_started()
        if self._runtime is not None:
            raise SessionStateError(
                "the interactive learning workflow records through a single "
                "inline engine; use a shards=1 session to learn, then deploy "
                "the result on a sharded session"
            )
        if self._workflow is None:
            self._workflow = LearningWorkflow(
                engine=self._engine,
                database=self._database,
                config=self.config.workflow,
                # The workflow deploys through the session: its gate applies.
                detector=self,
                deploy_control_gestures=self.config.deploy_control_gestures,
            )
        return self._workflow

    # -- learning ----------------------------------------------------------------------

    def learn(
        self,
        name: str,
        samples: Iterable[Sequence[Mapping[str, float]]],
        joints: Optional[Sequence[str]] = None,
        save: bool = True,
        deploy: bool = False,
    ) -> GestureDescription:
        """Learn one gesture from raw recorded ``samples``.

        Runs the paper's pipeline (transform → distance-based sampling →
        window merging) under the session's learner configuration, stores
        the result (and its generated query text) in the gesture database,
        and optionally deploys it immediately.
        """
        self._ensure_started()
        learner_config = self.config.workflow.learner
        if joints is not None:
            learner_config = replace(learner_config, joints=tuple(joints))
        learner = GestureLearner(name, config=learner_config)
        for sample in samples:
            learner.add_sample(sample)
        description = learner.description()
        query = self.detector.generator.generate(description)
        if save:
            self.database.save_gesture(description, query_text=query.to_query())
        if deploy:
            self.deploy(query, name=description.name)
        return description

    # -- interactive workflow delegation ------------------------------------------------

    def begin_gesture(self, name: str) -> None:
        """Start the interactive collect-samples phase for ``name``."""
        self.workflow.begin_gesture(name)

    def record_sample(self, frames: Sequence[Mapping[str, float]], raw: bool = True):
        """Add one sample to the gesture under interactive learning."""
        return self.workflow.record_sample(frames, raw=raw)

    def finalize(self) -> GestureDescription:
        """Finish interactive learning: generate, validate, store, deploy."""
        return self.workflow.finalize()

    def accept(self) -> None:
        """Accept the gesture under test and return the workflow to idle."""
        self.workflow.accept()

    def discard(self) -> None:
        """Throw away the gesture being learned or tested."""
        self.workflow.discard()

    @property
    def messages(self) -> List[str]:
        """Log messages of the interactive workflow (empty if unused)."""
        if self._workflow is None:
            return []
        return list(self._workflow.messages)

    # -- deployment --------------------------------------------------------------------

    def deploy(
        self,
        gesture: Union[GestureDescription, Query, str, Any],
        name: Optional[str] = None,
        analyze: Optional[str] = None,
    ) -> QueryHandle:
        """Deploy a gesture description, query, query text, or builder chain.

        All deployments go through the session's detector, so detections are
        dispatched to :meth:`on` handlers and collected in :attr:`events`;
        :meth:`attach_sink` adds a :class:`~repro.cep.sinks.Sink`.

        ``analyze`` gates the deployment through the static query analyzer:
        ``"warn"`` surfaces findings as Python warnings, ``"strict"``
        rejects error-severity findings with
        :class:`~repro.errors.QueryAnalysisError`.  ``None`` (default)
        falls back to :attr:`SessionConfig.analyze`.
        """
        self._ensure_started()
        registration, query = self._as_query(gesture, name)
        self._gate({registration: query}, analyze, f"query '{registration}'")
        return self.detector.deploy(query, name=registration)

    def deploy_vocabulary(
        self,
        source: Optional[VocabularySource] = None,
        enabled_only: bool = True,
        analyze: Optional[str] = None,
    ) -> List[str]:
        """Deploy a whole gesture vocabulary; returns the deployed names.

        ``source`` may be

        * ``None`` — the session's own gesture database,
        * a :class:`GestureDatabase` — its (enabled) gestures' stored query
          texts (a tuned text included; the description where none is
          stored), by name,
        * a manifest mapping gesture name → description, query, query text,
          builder chain, or a list of raw samples (which are learned first
          via :meth:`learn`).

        The manifest key becomes the *registration* name and, for builder
        chains without an explicit output, the detection output as well.  A
        pre-built :class:`Query` (or query text) keeps its own output value
        — events and :meth:`on` handlers are keyed by that output, so give
        such entries a manifest key equal to their output unless you
        deliberately want a registration alias.

        ``analyze`` (default: :attr:`SessionConfig.analyze`) gates the
        *whole vocabulary* as one unit — including the cross-query
        duplicate, subsumption and shared-predicate rules that per-query
        deployment cannot see — on the very queries deployed next.
        Entries that are raw sample lists are learned on the fly and
        deployed by :meth:`learn`, gated one by one under
        :attr:`SessionConfig.analyze`.
        """
        self._ensure_started()
        if source is None:
            source = self.database
        if isinstance(source, GestureDatabase):
            # A tuned query text, when one is stored, is what was deployed.
            source = {
                record.name: record.query_text or record.description
                for record in source.all_gestures(enabled_only=enabled_only)
            }

        prepared: List[Tuple[str, Any]] = []
        for name, entry in source.items():
            if isinstance(entry, Expr):
                raise QueryBuilderError(
                    f"manifest entry '{name}' is a bare predicate; wrap it in "
                    f"a chain: Q.stream(...).where(<predicate>)"
                )
            if isinstance(entry, QueryBuilder):
                # The manifest key supplies the output value unless the
                # chain set one explicitly.
                entry = entry.build(entry.output_value or name)
            if isinstance(entry, (GestureDescription, Query, str)):
                entry = self._as_query(entry, name)[1]
            prepared.append((name, entry))

        self._gate({name: entry for name, entry in prepared if isinstance(entry, Query)}, analyze)
        for name, entry in prepared:
            if isinstance(entry, Query):
                self.detector.deploy(entry, name=name)
            else:
                self.learn(name, entry, deploy=True)
        return [name for name, _ in prepared]

    def _as_query(
        self, gesture: Union[GestureDescription, Query, str, Any], name: Optional[str]
    ) -> Tuple[str, Query]:
        """``(registration name, query)`` of anything deployable: a
        description becomes a query through the detector's generator."""
        if isinstance(gesture, GestureDescription):
            return name or gesture.name, self.detector.generator.generate(gesture)
        query = coerce_query(gesture)
        return name or query.registration_name, query

    def _gate(
        self, queries: Dict[str, Query], analyze: Optional[str], subject: str = "vocabulary"
    ) -> None:
        """The analyzer gate (``analyze``, default :attr:`SessionConfig.analyze`)
        over the queries about to be deployed; it raises before any is."""
        mode = self.config.analyze if analyze is None else analyze
        if mode != "off":
            gate_deployment(self._engine, queries, mode, subject)

    def undeploy(self, name: str) -> None:
        """Remove one deployed gesture."""
        self.detector.undeploy(name)

    def deployed_gestures(self) -> List[str]:
        """Names of the deployed gestures (readable even after close)."""
        if self._detector is None:
            return []
        return self._detector.deployed_gestures()

    def attach_sink(self, sink: Sink, query: Optional[str] = None) -> None:
        """Attach ``sink`` to one deployed query, or to all of them."""
        self._ensure_started()
        if query is not None:
            self._engine.get_query(query).sink.add(sink)
            return
        for deployed in self._engine.queries.values():
            deployed.sink.add(sink)

    # -- data path ---------------------------------------------------------------------

    def feed(
        self,
        frames: Iterable[Mapping[str, float]],
        batch_size: Any = _UNSET,
        stream: Optional[str] = None,
        trace: Optional[TraceContext] = None,
    ) -> int:
        """Push sensor frames through the stack; returns the number fed.

        ``batch_size`` selects the engine's batched delivery path (chunks
        amortise fan-out and run-table pruning); it defaults to the
        session configuration's ``batch_size``.  ``stream`` overrides the
        target stream (the raw sensor stream by default).  ``trace``
        continues a caller-originated trace context (the gateway passes
        its request span here); when omitted and sampling is on, the
        engine makes its own head decision.
        """
        self._ensure_started()
        if batch_size is _UNSET:
            batch_size = self.config.batch_size
        stream_name = stream or RAW_STREAM_NAME
        # Either engine measures its own ingest and originates its trace.
        if trace is None:
            count = self._engine.push_many(stream_name, frames, batch_size=batch_size)
        else:
            with use_context(trace):
                count = self._engine.push_many(stream_name, frames, batch_size=batch_size)
        if self._durability is not None:
            self._durability.maybe_snapshot()
        return count

    def feed_frame(self, frame: Mapping[str, float], stream: Optional[str] = None) -> None:
        """Push a single sensor frame (interactive / live sources)."""
        self._ensure_started()
        self._engine.push(stream or RAW_STREAM_NAME, frame)
        if self._durability is not None:
            self._durability.maybe_snapshot()

    # -- events and handlers --------------------------------------------------------------

    def on(self, gesture: str, handler: GestureHandler) -> None:
        """Call ``handler`` for every detection of ``gesture``.

        Handlers are exception-isolated: a raising handler is recorded in
        :attr:`handler_errors` without breaking delivery to other handlers
        or to the engine's sinks.
        """
        self.detector.on_gesture(gesture, self._guard(gesture, handler))

    def on_any(self, handler: GestureHandler) -> None:
        """Call ``handler`` for every detection of any gesture."""
        self.detector.on_any_gesture(self._guard("*", handler))

    # Alias so the session satisfies the detector protocol that
    # :class:`repro.apps.binding.GestureBindings` expects.
    on_gesture = on
    on_any_gesture = on_any

    def on_error(self, callback: Callable[[HandlerFailure], None]) -> None:
        """Observe handler failures (each also lands in ``handler_errors``)."""
        self._error_handlers.append(callback)

    def _guard(self, gesture: str, handler: GestureHandler) -> GestureHandler:
        def wrapped(event: GestureEvent) -> None:
            try:
                handler(event)
            except Exception as error:  # noqa: BLE001 — isolation is the point
                failure = HandlerFailure(gesture=gesture, event=event, error=error)
                self.handler_errors.append(failure)
                for observer in self._error_handlers:
                    observer(failure)

        return wrapped

    @property
    def events(self) -> List[GestureEvent]:
        """The gesture events of every detection so far.

        Derived from the engine's detection log on each read, in its order
        — ``(timestamp, partition key, arrival)``, the same on every engine
        — and keeping an undeployed gesture's events.  Collected results
        stay readable after :meth:`close` — only feeding and deploying are
        lifecycle-guarded.  On a sharded session the read waits for queued
        frames to finish processing first, so events are consistent with
        everything already fed.
        """
        if self._detector is None:
            return []
        # Reads never raise: a failed shard surfaces on the next feed or drain.
        with contextlib.suppress(ShardFailedError):
            self._engine.drain()
        return self._detector.events

    def detections(
        self, name: Optional[str] = None, partition: Any = _UNSET
    ) -> List[Detection]:
        """Raw engine detections of one query or all queries.

        ``partition`` restricts the result to one player (compare
        :attr:`~repro.cep.matcher.Detection.partition`).  Like
        :attr:`events`, collected detections stay readable after close.
        """
        if self._engine is None:
            self._ensure_started()
        return self._engine.detections(name, partition=partition)

    def feedback(self) -> DetectionFeedback:
        """Partial-match progress of every deployed gesture (Fig. 5 style)."""
        return self.detector.feedback()

    def drain(self) -> None:
        """Block until every fed frame has been fully processed.

        A no-op on an inline session (feeding is synchronous there); on a
        sharded session this is the explicit barrier — reads like
        :attr:`events` and :meth:`detections` take it implicitly.  Raises
        :class:`~repro.errors.ShardFailedError` if a worker shard died.
        """
        self._ensure_started()
        self._engine.drain()

    # -- telemetry ---------------------------------------------------------------------

    def query_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-query matcher counters (runs started / advanced / pruned /
        completed / evicted, predicate evaluations, gate rejections, …).

        On a sharded session the counters are summed across shards; they
        stay readable after :meth:`close` (last collected values).
        """
        if self._engine is None:
            return {}
        return self._engine.query_stats()

    def export_trace(self, path: Optional[Union[str, Path]] = None) -> Dict[str, Any]:
        """The sampled spans as a Chrome trace-event document.

        Loadable in Perfetto / ``chrome://tracing``, or summarised with
        ``python -m repro.observability summarize <file>``.  ``path``
        additionally writes the JSON document there.  Empty (but valid)
        unless ``SessionConfig.trace_sample_rate`` > 0.
        """
        if self._engine is None:
            self._ensure_started()
        document = self._engine.export_trace()
        if path is not None:
            Path(path).write_text(json.dumps(document, indent=2), encoding="utf-8")
        return document

    def health(self, now: Optional[float] = None) -> HealthReport:
        """Evaluate the health rules on the session's live state.

        Reads the runtime's per-shard liveness rows
        (:meth:`~repro.runtime.ShardedRuntime.shard_liveness`; an inline
        session has none) and the durable log's counters, which arm the
        fsync rule under ``FSYNC_OWED_AFTER[fsync]``.  Nothing polls in
        the background: each call moves the rules' progress marks, so a
        stall is timed between reads.  ``now`` substitutes the monotonic
        clock.  Never starts the session, and answers after :meth:`close`.
        Safe from any thread.
        """
        reading: Dict[str, Any] = {}
        if self._runtime is not None:
            reading["shards"] = self._runtime.shard_liveness()
        if self._durability is not None:
            reading["durability"] = self._metrics.durability.values()
        return self._health.evaluate(reading, now=now)

    def profile(self) -> Dict[str, Any]:
        """Per-query attribution of matcher time, from the traced spans.

        Sums the durations of the ``matcher:<name>`` spans in the tracer's
        ring buffer — the shards' spans are collected first — and
        joins each query's share with :meth:`query_stats`.  A traced tuple
        is offered to every query, so the share is of *traced* matcher
        work.  With ``trace_sample_rate=0`` (the default) returns
        ``{"enabled": False}``.
        """
        tracer = self._tracer
        if tracer is None or not tracer.active:
            return {"enabled": False, "spans": 0, "queries": {}}
        self._engine.collect_telemetry()
        seconds: Dict[str, float] = {}
        spans: Dict[str, int] = {}
        for event in tracer.spans():
            if event["cat"] == "matcher":
                name = event["name"].partition(":")[2]
                seconds[name] = seconds.get(name, 0.0) + event["dur"] / 1e6
                spans[name] = spans.get(name, 0) + 1
        total = sum(seconds.values())
        stats = self.query_stats()
        queries: Dict[str, Dict[str, Any]] = {}
        for name in sorted(set(seconds) | set(stats)):
            queries[name] = {
                "cpu_share": round(seconds.get(name, 0.0) / total, 4) if total else 0.0,
                "seconds": round(seconds.get(name, 0.0), 6),
                "spans": spans.get(name, 0),
                "stats": dict(stats.get(name, {})),
            }
        return {"enabled": True, "spans": sum(spans.values()), "queries": queries}

    def clear(self) -> None:
        """Reset for a fresh scene: events, detections, runs, transform state."""
        self._ensure_started()
        self.detector.clear()
        self.handler_errors.clear()

    # -- durability: snapshot, recover, replay -------------------------------------------

    @property
    def durability(self) -> Optional[DurabilityManager]:
        """The durability manager (``None`` when durability is off)."""
        return self._durability

    def snapshot(self) -> int:
        """Persist the whole session state now; returns the log anchor offset.

        The snapshot spans every layer: deployed query texts, matcher run
        tables (partial matches), collected detections, transformer
        smoothing state, stream counters and the simulated clock.  On a
        sharded session the runtime drains its queues first and captures
        each shard's engine keyed by the router topology.
        """
        self._ensure_started()
        manager = self._require_durability()
        return manager.snapshot()

    def _require_durability(self) -> DurabilityManager:
        if self._durability is None:
            raise SessionStateError(
                "durability is off; construct the session with "
                "GestureSession(durability=DurabilityConfig(...))"
            )
        return self._durability

    @classmethod
    def recover(
        cls,
        durability: DurabilityConfig,
        config: Optional[SessionConfig] = None,
        database: Optional[GestureDatabase] = None,
    ) -> "GestureSession":
        """Rebuild a session from its durability directory after a crash.

        Loads the newest snapshot (if any), replays the event-log tail
        beyond its anchor, and returns a *started* session whose
        detections, events and partial matches per partition are exactly
        those of an uninterrupted run.  ``config`` must match the recorded
        run (a sharded directory refuses a different shard topology).  The
        recovered session keeps appending to the same directory, so
        repeated crash/recover cycles compose; what was replayed is
        reported in :attr:`last_recovery`.  The snapshot and the log tail
        go straight into the session's engine, whose detection log
        :attr:`events` reads.

        Raises :class:`~repro.errors.RecoveryError` — on either engine —
        when the snapshot or any replayed entry fails, including a tail
        that kills a shard; the half-built session is closed first.
        """
        session = cls(config=config, database=database, durability=durability)
        try:
            session.start()
            result = session._require_durability().recover_into()
        except BaseException:
            # No worker thread, process or open log outlives a failed recovery.
            session.close()
            raise
        session.last_recovery = result
        return session

    def replay(
        self,
        speed: Optional[float] = None,
        config: Optional[SessionConfig] = None,
    ) -> ReplayController:
        """A :class:`~repro.persistence.ReplayController` over this
        session's recorded log.

        Replay targets are fresh, durability-off sessions built from
        ``config`` (this session's configuration by default) — the live
        session is never touched.  ``speed=None`` replays as fast as
        possible; ``speed=1.0`` paces tuples at the recorded event-time
        rate; :meth:`~repro.persistence.ReplayController.seek` jumps to any
        log offset (backward seeks rebuild from the best snapshot).
        """
        directory = self._durability_config
        if directory is None:
            raise SessionStateError(
                "durability is off; construct the session with "
                "GestureSession(durability=DurabilityConfig(...))"
            )
        if self._durability is not None and not self._durability.closed:
            # Make everything appended so far visible to the reader.
            self._durability.log.flush(sync=False)
        target_config = config or self.config
        return ReplayController(
            directory.directory,
            lambda: GestureSession(config=target_config).start(),
            speed=speed,
        )

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("started" if self._started else "new")
        deployed = self.deployed_gestures() if self._started else []
        return f"GestureSession(state={state}, deployed={deployed})"
