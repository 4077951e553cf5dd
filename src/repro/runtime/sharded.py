"""The sharded concurrent runtime: N engines behind one engine surface.

:class:`ShardedRuntime` runs the single-threaded
:class:`~repro.cep.engine.CEPEngine` on N worker shards, routed by
partition hash, and implements the same :class:`~repro.cep.engine.Engine`
protocol, so the whole detection stack runs sharded unchanged.
``docs/runtime.md`` explains why per-partition detections stay
byte-identical to the inline path, the shard protocol, and what the
``"thread"`` and ``"process"`` executors each can do and cost.

Example
-------
>>> from repro.runtime import ShardedRuntime, ShardEngineSpec
>>> with ShardedRuntime(shard_count=2) as runtime:
...     _ = runtime.register_query(
...         'SELECT "hands_up" MATCHING kinect_t(rhand_y > 400);'
...     )
...     runtime.push_many(
...         "kinect_t",
...         [{"ts": 0.0, "player": p, "rhand_y": 500.0} for p in (1, 2)],
...     )
...     sorted(d.partition for d in runtime.detections())
2
[1, 2]
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple, Union

from repro.cep.engine import _UNSET, Taps, coerce_query
from repro.cep.matcher import Detection, MatcherConfig
from repro.cep.query import Query
from repro.cep.sinks import DetectionLog, FanOutSink
from repro.cep.views import RAW_STREAM_NAME, TRANSFORMED_STREAM_NAME
from repro.errors import (
    QueryRegistrationError,
    RuntimeStateError,
    SerializationError,
    ShardFailedError,
    SnapshotError,
    UnknownQueryError,
    UnknownStreamError,
)
from repro.observability.tracing import TraceContext, Tracer, current_context
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.router import HashPartitionRouter
from repro.runtime.shard import Emitted, Shard, ShardEngineSpec, ShardFailure
from repro.runtime.transport import TRANSPORTS
from repro.streams.clock import Clock, SimulatedClock

__all__ = ["ShardedRuntime", "ShardedQuery"]


class ShardedQuery:
    """A query deployed on every shard of a :class:`ShardedRuntime`.

    Like :class:`~repro.cep.engine.DeployedQuery` it is a
    :class:`~repro.cep.engine.QueryHandle` whose reads filter its engine's
    detection log — here the runtime's merge of every shard's.
    """

    def __init__(self, runtime: "ShardedRuntime", query: Query, name: str) -> None:
        self._runtime = runtime
        self.query = query
        self.name = name
        #: Parent-side sinks: every detection of every shard is emitted
        #: here, in global arrival order, from the runtime's dispatch lock.
        self.sink = FanOutSink([])
        self.enabled = True

    def detections(self, partition: Any = _UNSET) -> List[Detection]:
        """Merged, timestamp-ordered detections of this query so far."""
        self._runtime._drain_for_read()
        return self._runtime._log.snapshot(query_name=self.name, partition=partition)

    def clear_detections(self) -> None:
        self._runtime._drain_for_read()
        self._runtime._log.clear_query(self.name)

    def __repr__(self) -> str:
        return (
            f"ShardedQuery(name={self.name!r}, "
            f"shards={self._runtime.shard_count}, enabled={self.enabled})"
        )


class ShardedRuntime(Taps):
    """Owns N engine shards, a partition-hash router and a metrics registry.

    Parameters
    ----------
    shard_count:
        Number of worker shards (engines).  ``1`` is legal and useful for
        A/B tests, but the inline engine is cheaper when no concurrency is
        wanted — :class:`~repro.api.session.SessionConfig` keeps ``shards=1``
        on the inline path for exactly that reason.
    spec:
        Per-shard engine recipe (matcher/transform configuration, view,
        trace sample rate).  Every shard builds an identical engine from it.
    executor:
        ``"thread"`` (default) or ``"process"`` — see ``docs/runtime.md``.
    queue_capacity:
        Per-shard bound on the tuples in flight to the worker; a producer
        that outruns a shard waits for it.  Nothing below the gateway's
        edge drops a tuple.
    metrics:
        Optional shared :class:`MetricsRegistry`; a private one is created
        by default.
    clock:
        Time source reported to callers (``feedback()`` timestamps);
        defaults to a fresh simulated clock.
    tracer:
        The parent-side tracer the workers' spans are collected into;
        built from the spec unless the caller shares one (the session
        does, so gateway and runtime spans land in one buffer).
    """

    def __init__(
        self,
        shard_count: int,
        spec: Optional[ShardEngineSpec] = None,
        executor: str = "thread",
        queue_capacity: int = 2048,
        metrics: Optional[MetricsRegistry] = None,
        clock: Optional[Clock] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be at least 1")
        if executor not in TRANSPORTS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {tuple(TRANSPORTS)}"
            )
        self.spec = spec or ShardEngineSpec()
        # The router hashes the field every query partitions on: a shard
        # holds all of a partition's tuples, so it detects what inline would.
        field = self.spec.matcher.partition_field
        if not field:
            raise ValueError(
                "a sharded runtime needs a partition field to route on; "
                "configure the spec's MatcherConfig.partition_field"
            )
        self.shard_count = shard_count
        self.executor = executor
        self.queue_capacity = queue_capacity
        self.router = HashPartitionRouter(shard_count, partition_field=field)
        self.metrics = metrics or MetricsRegistry()
        self.clock = clock or SimulatedClock()
        self.tuples_processed = 0
        self._shards: List[Shard] = []
        self._queries: Dict[str, ShardedQuery] = {}
        self._log = DetectionLog()
        self._dispatch_lock = threading.Lock()
        #: Every stream the shard engines have: the spec's and the queries'.
        self._streams = {TRANSFORMED_STREAM_NAME}
        if self.spec.install_view:
            self._streams.add(RAW_STREAM_NAME)
        #: Tuples were enqueued since the last :meth:`drain` (reads drain then).
        self._unflushed = False
        self._started = False
        self._stopped = False
        self._worker_idents: set = set()
        self._failure_handled = False
        self.tracer = tracer if tracer is not None else self.spec.build_tracer()
        self._query_stats_cache: Dict[str, Dict[str, int]] = {}
        self._progress_cache: Dict[str, Tuple[float, int]] = {}
        if self.tracer is not None:
            self._e2e_histogram = self.metrics.histogram("ingest_to_detection")
            self.metrics.add_refresh_hook(self._refresh_telemetry)
            # The refresh hook (run by ``collect()`` before any exposition)
            # already re-broadcasts and caches; the provider reads the cache
            # so one scrape costs one broadcast, not two.
            self.metrics.set_query_stats_provider(lambda: self._query_stats_cache)
        else:
            self._e2e_histogram = None

    # -- lifecycle ---------------------------------------------------------------------

    def start(self) -> "ShardedRuntime":
        """Build and start every shard.  Raises on double-start."""
        if self._started:
            raise RuntimeStateError("the runtime is already started")
        if self._stopped:
            raise RuntimeStateError("the runtime has been stopped")
        self._started = True
        transport_type = TRANSPORTS[self.executor]
        for shard_id in range(self.shard_count):
            shard_metrics = self.metrics.shard(shard_id)
            self._shards.append(
                Shard(
                    shard_id,
                    shard_metrics,
                    self._on_detections,
                    transport_type(shard_id, self.spec),
                    self.tracer,
                    capacity=self.queue_capacity,
                )
            )
        for shard in self._shards:
            shard.start()
            self._worker_idents |= shard.transport.worker_idents
        return self

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop every shard; with ``drain`` all queued work finishes first.

        Idempotent.  A failure recorded during shutdown is kept readable on
        :attr:`failure` but not raised — ``stop()`` is the cleanup path.
        """
        if not self._started or self._stopped:
            self._stopped = True
            return
        if drain and not self.failed and self.tracer is not None:
            # Final collection while the shards still answer controls: the
            # ``telemetry`` / ``query_stats`` controls are FIFO behind any
            # queued tuples, so this observes everything fed so far.
            with contextlib.suppress(Exception):
                self.collect_telemetry(timeout=timeout)
                self.query_stats()
        self._stopped = True
        for shard in self._shards:
            shard.stop(drain=drain and not self.failed, timeout=timeout)
        for shard in self._shards:
            shard.join(timeout=timeout)

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for every shard worker to exit (after :meth:`stop`)."""
        for shard in self._shards:
            shard.join(timeout=timeout)

    def drain(self, timeout: Optional[float] = None) -> None:
        """Barrier: block until every tuple fed so far has been processed.

        Raises the first shard failure.  A no-op on a shard's own worker or
        listener thread (a sink or ``on()`` handler), which the barrier
        would wait on forever.
        """
        if threading.get_ident() in self._worker_idents:
            return
        self._raise_if_failed()
        if not self._started or self._stopped:
            return
        # Cleared before the flushes: a push racing this drain sets it again.
        self._unflushed = False
        try:
            for shard in self._shards:
                shard.drain(timeout=timeout)
        except BaseException:
            self._unflushed = True
            self._raise_if_failed()  # graceful shutdown of healthy shards
            raise
        self._raise_if_failed()

    def __enter__(self) -> "ShardedRuntime":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def started(self) -> bool:
        return self._started

    @property
    def stopped(self) -> bool:
        return self._stopped

    # -- failure handling --------------------------------------------------------------

    @property
    def failure(self) -> Optional[ShardFailure]:
        """The first shard failure, if any shard died."""
        for shard in self._shards:
            if shard.failure is not None:
                return shard.failure
        return None

    @property
    def failed(self) -> bool:
        return self.failure is not None

    def _raise_if_failed(self) -> None:
        failure = self.failure
        if failure is None:
            return
        # Graceful shutdown: stop every shard once, without waiting on their
        # queues, then surface the failing shard's exception.  The failed
        # one too: its worker outlives a failure the transport reported
        # (a batch that could not be sent), and ``join`` waits for it.
        if not self._failure_handled:
            self._failure_handled = True
            for shard in self._shards:
                shard.stop(drain=False)
            self._stopped = True
        failure.raise_()

    # -- deployment (engine-compatible surface) ----------------------------------------

    def register_query(
        self, query: Union[str, Query, Any], name: Optional[str] = None
    ) -> ShardedQuery:
        """Deploy a query on **every** shard; returns the fan-out handle.

        Accepts exactly what :meth:`CEPEngine.register_query` accepts
        (query text, a :class:`Query`, or a builder chain).  The query is
        normalised to its canonical text and deployed shard-side through
        the standard parse → compiled-predicate-cache path, so cache keys
        and matcher behaviour are identical to an inline deployment.
        """
        self._raise_if_failed()
        self._ensure_running()
        query = coerce_query(query)
        registration_name = name or query.registration_name
        if registration_name in self._queries:
            raise QueryRegistrationError(
                f"a query named '{registration_name}' is already registered"
            )
        handle = ShardedQuery(self, query, registration_name)
        text = query.to_query()
        self._broadcast("deploy", (registration_name, text))
        self._queries[registration_name] = handle
        self._streams |= query.streams()
        self._notify_control("deploy", {"name": registration_name, "text": text})
        return handle

    def unregister_query(self, name: str) -> None:
        """Remove a deployed query from every shard."""
        handle = self.get_query(name)  # unknown names raise before any shard is asked
        self._broadcast("undeploy", name)
        del self._queries[name]
        handle.enabled = False
        self._notify_control("undeploy", {"name": name})

    def get_query(self, name: str) -> ShardedQuery:
        try:
            return self._queries[name]
        except KeyError:
            raise UnknownQueryError(
                f"no query named '{name}' is registered; "
                f"deployed queries: {self.query_names()}"
            ) from None

    def query_names(self) -> List[str]:
        return sorted(self._queries)

    @property
    def queries(self) -> Dict[str, ShardedQuery]:
        return dict(self._queries)

    def enable_query(self, name: str, enabled: bool = True) -> None:
        """Pause or resume a query on every shard."""
        handle = self.get_query(name)
        self._broadcast("enable", (name, enabled))
        handle.enabled = enabled
        self._notify_control("enable", {"name": name, "enabled": enabled})

    def register_function(self, name: str, function: Callable[..., Any], arity: Optional[int] = None) -> None:
        """Register a UDF on every shard.

        With the process executor the function must be picklable (a
        module-level function); closures and lambdas only work on the
        thread executor, and raise
        :class:`~repro.errors.SerializationError` here otherwise.
        """
        self._ensure_running()
        self._broadcast("register_function", (name, function, arity))

    @property
    def views(self) -> Dict[str, Any]:
        """Always empty: views live in the shards (see :meth:`reset_scene`)."""
        return {}

    @property
    def matcher_config(self) -> MatcherConfig:
        """The matcher defaults every shard engine is built with."""
        return self.spec.matcher

    def stream_fields(self) -> Dict[str, Optional[FrozenSet[str]]]:
        """Every stream of the shard engines; none declares a schema."""
        return dict.fromkeys(sorted(self._streams))

    # -- data path ---------------------------------------------------------------------

    def _originate_trace(self) -> Optional[TraceContext]:
        """Continue the caller's ambient trace, or make the head sampling decision."""
        tracer = self.tracer
        if tracer is None or not tracer.active:
            return None
        context = current_context()
        return context if context is not None else tracer.sample("ingest")

    def push(self, stream_name: str, record: Mapping[str, Any]) -> None:
        """Route one tuple to its partition's shard: :meth:`push_many` of one."""
        self.push_many(stream_name, [record])

    def push_many(
        self,
        stream_name: str,
        records: Iterable[Mapping[str, Any]],
        batch_size: Optional[int] = None,
    ) -> int:
        """Route many tuples; returns the number accepted for routing.

        Per-shard (and therefore per-partition) order is the input order.
        ``batch_size`` selects the shard engines' batched delivery path,
        exactly like :meth:`CEPEngine.push_many`; ``None`` keeps per-tuple
        fan-out inside each shard.  The call returns once every tuple is
        *enqueued* (waiting for credits when a shard is full); use :meth:`drain` — or any
        read, which drains implicitly — to wait for processing.

        The caller's ambient trace context (``use_context``; the session
        installs the gateway's request trace there) is continued; without
        one, a sampled tracer makes its head decision per call.  The
        routing/enqueue work is recorded as an ``ingest.route`` span and
        the chosen context rides each
        shard's queue, so downstream queue/shard/matcher spans share the
        trace id across thread *and* process executors.
        """
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be at least 1 when given")
        self._raise_if_failed()
        self._ensure_running()
        if stream_name not in self._streams:  # before any tap logs it: a shard would die
            raise UnknownStreamError(
                f"unknown stream '{stream_name}'; registered streams: {sorted(self._streams)}"
            )
        if self._ingest_taps:
            records = records if isinstance(records, list) else list(records)
            for tap in self._ingest_taps:
                tap(stream_name, records, batch_size)
        trace = self._originate_trace()
        span = None
        if trace is not None:
            span = self.tracer.span(
                "ingest.route", "ingest", trace, stream=stream_name
            )
        downstream = span.context if span is not None else trace
        buckets = self.router.split(records)
        count = 0
        try:
            for shard, bucket in zip(self._shards, buckets):
                if bucket:
                    shard.enqueue_tuples(stream_name, bucket, batch_size, trace=downstream)
                    count += len(bucket)
        except ShardFailedError:
            self._raise_if_failed()
            raise
        finally:
            self._unflushed = True
            if span is not None:
                span.close(tuples=count)
        self.tuples_processed += count
        return count

    # -- state capture / restore -------------------------------------------------------

    def capture_state(self) -> Dict[str, Any]:
        """Snapshot the whole runtime as a JSON-serialisable dictionary.

        Drains every shard first, so the snapshot is a consistent barrier:
        it reflects exactly the tuples fed before this call.  The snapshot
        records the routing topology (shard count, partition field, router
        epoch); :meth:`restore_state` refuses a topology mismatch, because
        per-shard run tables are only valid under the routing that built
        them.
        """
        self._raise_if_failed()
        self._ensure_running()
        self.drain()
        shard_states = self._broadcast("capture_state", None)
        # A shard keeps no detections once they left it; the format still
        # stores each shard's own, so they are filled from the parent's log.
        for state in shard_states:
            state["detections"] = []
        for detection in self._log.entries():
            shard_id = self.router.shard_for_key(detection.partition)
            shard_states[shard_id]["detections"].append(detection.to_state())
        clock_now = self.clock.now() if isinstance(self.clock, SimulatedClock) else None
        return {
            "kind": "sharded-runtime",
            "router": {
                "shard_count": self.router.shard_count,
                "partition_field": self.router.partition_field,
                "epoch": self.router.epoch,
            },
            "tuples_processed": self.tuples_processed,
            "clock": clock_now,
            "queries": [
                {"name": name, "text": handle.query.to_query(), "enabled": handle.enabled}
                for name, handle in self._queries.items()  # deploy order, as inline
            ],
            "shards": {str(shard_id): state for shard_id, state in enumerate(shard_states)},
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Restore a :meth:`capture_state` snapshot into this runtime.

        Queries missing parent-side are re-deployed from their captured
        text (which broadcasts the standard ``deploy`` to every shard);
        each shard then restores its own engine state in place, without
        detections: the parent's log is their one copy.  That log is
        rebuilt from the shards' lists: one player's detections are all on
        one shard, so merged reads equal the live ones.  Snapshots that
        also hold the parent's list (every one written before the shards'
        lists became the only copy) restore from that list.  Control taps
        then see ``restore``.

        Raises
        ------
        repro.errors.SerializationError
            If ``state`` is not a sharded-runtime snapshot.
        repro.errors.SnapshotError
            If the snapshot's routing topology (shard count, partition
            field or router epoch) differs from this runtime's — per-shard
            state cannot be re-routed here; re-sharding a snapshot is a
            separate migration.
        """
        if state.get("kind") != "sharded-runtime":
            raise SerializationError(
                f"cannot restore a ShardedRuntime from a "
                f"{state.get('kind')!r} state blob"
            )
        router_state = state.get("router", {})
        mine = {
            "shard_count": self.router.shard_count,
            "partition_field": self.router.partition_field,
            "epoch": self.router.epoch,
        }
        if dict(router_state) != mine:
            raise SnapshotError(
                f"snapshot routing topology {dict(router_state)!r} does not "
                f"match this runtime's {mine!r}; restore into a runtime with "
                f"the same sharding (re-sharding snapshots is not supported)"
            )
        self._raise_if_failed()
        self._ensure_running()
        for entry in state.get("queries", []):
            if entry["name"] not in self._queries:
                self.register_query(entry["text"], name=entry["name"])
            handle = self._queries[entry["name"]]
            handle.enabled = bool(entry.get("enabled", True))
        shard_states = state.get("shards", {})
        for shard_id, shard in enumerate(self._shards):
            shard_state = shard_states.get(str(shard_id))
            if shard_state is not None:
                shard.control("restore_state", {**shard_state, "detections": []})
                self._streams.update(shard_state.get("streams", {}))
        detections = state.get("detections")
        if detections is None:
            detections = [d for shard in shard_states.values() for d in shard.get("detections", [])]
        self._log.restore(Detection.from_state(d) for d in detections)
        clock_now = state.get("clock")
        if (
            clock_now is not None
            and isinstance(self.clock, SimulatedClock)
            and clock_now > self.clock.now()
        ):
            self.clock.set(clock_now)
        self.tuples_processed = int(state.get("tuples_processed", 0))
        self._notify_control("restore", {})

    # -- detections --------------------------------------------------------------------

    def _on_detections(self, shard_id: int, emitted: Emitted) -> None:
        """Serialisation point: every shard's detections pass through here,
        one batch (a ``done`` or ``failed`` message) per call.

        Runs on shard worker/listener threads, so it must never raise: a
        raising sink would otherwise kill the emitting shard (or wedge its
        credit stream); :class:`FanOutSink` has already
        recorded the failure in ``handle.sink.failures``.  Each detection
        comes with the ingest→detection time the worker measured at emit
        (``None`` with telemetry off).

        The global dispatch lock is taken once per batch and covers only
        the bookkeeping (metrics, histogram, log, handle lookups); sinks
        run *outside* it, in emission order.  They are internally
        thread-safe, and holding the lock across user code
        would let one slow (or blocking) handler stall every other
        shard's detections — in the worst case a handler feeding a full
        ``block``-policy shard would deadlock the whole runtime.
        """
        detections = [detection for detection, _latency in emitted]
        with self._dispatch_lock:
            self.metrics.shard(shard_id).add(detections=len(detections))
            if self._e2e_histogram is not None:
                for _detection, latency in emitted:
                    if latency is not None:
                        self._e2e_histogram.record(latency)
            self._log.extend(detections)
            handles = [self._queries.get(detection.query_name) for detection in detections]
        for detection, handle in zip(detections, handles):
            if handle is not None and handle.enabled:
                with contextlib.suppress(Exception):  # recorded in handle.sink.failures
                    handle.sink.emit(detection)

    def detections(
        self, name: Optional[str] = None, partition: Any = _UNSET
    ) -> List[Detection]:
        """Merged, timestamp-ordered detections (drains pending work first).

        Same contract as :meth:`CEPEngine.detections`: optionally one
        query's, optionally restricted to one partition.  Restricted to a
        single partition the sequence is identical to what an inline
        engine would have produced.
        """
        if name is not None:
            self.get_query(name)  # unknown names raise
        self._drain_for_read()
        return self._log.snapshot(query_name=name, partition=partition)

    def clear_detections(self) -> None:
        """Drop collected detections (the parent's log is their one copy)."""
        self._drain_for_read()
        self._log.clear()

    def reset_scene(self) -> None:
        """:meth:`CEPEngine.reset_scene` on every shard, and clear the merged log."""
        self._drain_for_read()
        self._broadcast("reset_scene", None)
        self._log.clear()
        self._notify_control("clear", {})

    # -- telemetry ---------------------------------------------------------------------

    def query_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-query matcher counters, summed across every shard.

        Broadcasts the ``query_stats`` control (FIFO behind queued work, so
        the counters reflect everything fed before the call) and caches the
        merged result.  From a worker/listener thread — or once the runtime
        is stopped or failed — the cached counters are returned instead:
        broadcasting from a worker would deadlock on its own queue.
        """
        if not self._can_broadcast():
            return {name: dict(stats) for name, stats in self._query_stats_cache.items()}
        per_shard = self._broadcast("query_stats", None)
        merged: Dict[str, Dict[str, int]] = {}
        for shard_stats in per_shard:
            if not isinstance(shard_stats, Mapping):
                continue
            for name, counters in shard_stats.items():
                bucket = merged.setdefault(name, {})
                for key, value in counters.items():
                    bucket[key] = bucket.get(key, 0) + int(value)
        self._query_stats_cache = merged
        return {name: dict(stats) for name, stats in merged.items()}

    def query_progress(self) -> Dict[str, Tuple[float, int]]:
        """Per-query ``(progress, active_runs)``, merged across every shard.

        Broadcasts the ``progress`` control (FIFO behind queued work) and
        merges the answers: a partition lives on one shard, so the best
        progress is the shards' maximum and the live runs are their sum.
        From a worker/listener thread, or once the runtime is stopped or
        failed, the last merged values are returned, as in
        :meth:`query_stats`.
        """
        if not self._can_broadcast():
            return dict(self._progress_cache)
        merged: Dict[str, Tuple[float, int]] = {}
        for shard_progress in self._broadcast("progress", None):
            for name, (progress, runs) in shard_progress.items():
                best, total = merged.get(name, (0.0, 0))
                merged[name] = (max(best, progress), total + runs)
        self._progress_cache = merged
        return dict(merged)

    def collect_telemetry(self, timeout: Optional[float] = None) -> None:
        """Pull every worker's spans parent-side
        (:meth:`Shard.collect_telemetry`).  Safe to call any time; quietly
        skips when there is nothing to collect.
        """
        if not self._can_broadcast():
            return
        for shard in self._shards:
            with contextlib.suppress(Exception):
                shard.collect_telemetry(timeout=timeout)

    def _refresh_telemetry(self) -> None:
        """Metrics-registry refresh hook: make ``/metrics`` reads current."""
        self.collect_telemetry(timeout=5.0)
        with contextlib.suppress(Exception):
            self.query_stats()

    def shard_liveness(self) -> List[Dict[str, float]]:
        """One cheap parent-visible liveness row per shard.

        The shard health rules' input, read by ``GestureSession.health()``
        on every call: worker aliveness, whether the runtime marked the
        shard failed, current backlog (enqueued − processed),
        processed count (the progress heartbeat), and the tuples in
        flight.  Reads only parent-side counters and thread/process flags
        — no control broadcast, so it never blocks behind queued work and
        is safe from any thread.
        """
        rows: List[Dict[str, float]] = []
        for shard in self._shards:
            snapshot = shard.metrics.snapshot()
            rows.append(
                {
                    "shard_id": shard.shard_id,
                    "alive": bool(shard.transport.alive),
                    "failed": bool(shard.failed),
                    "backlog": max(
                        0.0, snapshot["tuples_enqueued"] - snapshot["tuples_processed"]
                    ),
                    "tuples_processed": snapshot["tuples_processed"],
                    "queue_depth": float(shard.queue_depth),
                    "queue_capacity": float(shard.capacity),
                }
            )
        return rows

    def export_trace(self) -> Dict[str, Any]:
        """The collected spans as a Chrome trace-event document.

        Collects the workers' spans first, so an export after a drain holds the
        full gateway → queue → shard → matcher span tree.  Empty (but
        valid) when tracing is off.
        """
        if self.tracer is None:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        self.collect_telemetry()
        return self.tracer.export()

    # -- internals ---------------------------------------------------------------------

    def _ensure_running(self) -> None:
        if not self._started:
            self.start()
            return
        if self._stopped:
            raise RuntimeStateError("the runtime has been stopped")

    def _can_broadcast(self) -> bool:
        """Running, healthy, and not on a thread that a shard waits on.

        A control broadcast from a worker/listener thread would deadlock
        behind the very message that thread is delivering.
        """
        return (
            self._started
            and not self._stopped
            and not self.failed
            and threading.get_ident() not in self._worker_idents
        )

    def _drain_for_read(self) -> None:
        """Drain before a read — if anything was fed since the last drain,
        and unless called *from* a worker context.

        A sink or ``on()`` handler runs on a shard's worker (or listener)
        thread; draining from there would deadlock on the very queue the
        handler is servicing.  Such callers read the current state instead,
        which for their own shard is consistent up to the triggering tuple.

        Reads never raise: after a shard failure (surfaced by the next
        :meth:`push_many` / :meth:`drain`) the detections collected so far
        stay readable, exactly like results stay readable after ``stop``.
        """
        if self._unflushed and self._can_broadcast():
            # The failure surfaces on feed/drain; reads stay usable.
            with contextlib.suppress(ShardFailedError):
                self.drain()

    def _broadcast(self, op: str, payload: Any) -> List[Any]:
        """Run a control on every shard; first error wins after all acks."""
        self._ensure_running()
        results = []
        first_error: Optional[BaseException] = None
        for shard in self._shards:
            try:
                results.append(shard.control(op, payload))
            except ShardFailedError:
                self._raise_if_failed()
                raise
            except Exception as error:  # noqa: BLE001 — collect, finish fan-out, re-raise
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error
        return results

    def __repr__(self) -> str:
        state = (
            "failed"
            if self.failed
            else "stopped"
            if self._stopped
            else "started"
            if self._started
            else "new"
        )
        return (
            f"ShardedRuntime(shards={self.shard_count}, executor={self.executor!r}, "
            f"state={state}, queries={self.query_names()}, "
            f"tuples={self.tuples_processed})"
        )
