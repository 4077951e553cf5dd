"""A stream's one subscription to the queries deployed on it.

Each stream that deployed queries read has **one** subscription, a
:class:`Fanout`, and one :class:`~repro.cep.index.StepIndex` over the steps
of every query on it, built on the first tuple after a deploy, undeploy or
``restore_state``.  Per tuple (or per chunk) the fan-out computes the index
verdicts and event times once, then hands the tuple to its queries: each
keeps its own matcher, ``MatcherStats``, ``matcher:<name>`` span and sinks,
and :meth:`Fanout._take` is the one place a query is given a tuple or a
chunk (repo lint RL016 keeps matchers entered nowhere else).  A chunk is
grouped by partition once (:class:`~repro.cep.matcher.ChunkPlan`) and goes,
in deploy order, to every enabled query but the tracked ones (below) whose
gate bit no tuple of it carries and which hold no run in any of its
partitions: those are counted in bulk (:meth:`NFAMatcher.settle`).  Each
query that takes the chunk passes over the partitions and tuples of it
that cannot change its runs (see "Batched path" in
:mod:`repro.cep.matcher`).  A tuple goes only to the queries it can
change — its gate bit, the bit of a step its player's runs wait for (a step
without a bit always), a prune of those runs due — and the rest are counted
in bulk (:meth:`NFAMatcher.settle`; the fan-out keeps per-player wake masks
and expiries), so a tuple that wakes nothing costs the lookup, a few mask
tests and a counter increment, whatever the vocabulary's size.  Of the
woken queries, those that can complete a run on the tuple take it first, in
deploy order, and the others after the detections went out; a sink still
sees the tuple delivered in deploy order, since whatever could tell the
difference from inside it — a counter or progress read, a control, a tuple
fed from the sink — first hands the earlier ones the tuple.  A traced tuple
(or chunk) goes to every query, so each keeps its span; so does every
tuple when no query is woken by bit.  A tuple the index cannot read (a
missing or non-numeric field) falls back to every query's closures, and so
does a stream where the index would answer no query's gate: there a lookup
per tuple would buy nothing.  A query that raises costs only itself, as a
separate subscription would: the rest still get the tuple, each query
records its own failure, and the producer sees the first error in deploy
order.  An event time that does not convert fails every query, and an
unhashable partition value every query's matcher, each on its own.

Wake state
----------
A tuple calls :meth:`NFAMatcher.process` only on the queries it can change;
every other tracked query is owed the count ``process`` would have made,
settled in bulk by :meth:`Fanout.release`.  The state is built on the first
per-tuple tuple after a release, which a batch (once per chunk), a control
and a read of a matcher's counters all cause (the matcher's ``release``
hook).  ``ready`` is false until it is built, and while detections are
emitted (``busy``).
Every release bumps ``epoch``: a delivery that sees it move stops keeping
the wake state it started with, and settles the state rebuilt since before
its next query's runs change.

A woken query that cannot complete a run on the tuple (``late``) takes it
after every query that can, so detections go out first.  While a sink
runs, the late ones deploy order puts before the emitting query are
``deferred``: whatever could see the difference — a tuple fed from the
sink, a release, a progress read — hands them the tuple first
(:meth:`Fanout.flush`), from ``held``, the tuple's delivery.

Idle sweep
----------
The fan-out also runs the idle sweep (:meth:`NFAMatcher.sweep`) of every
enabled query on the stream, without waking one: after each tuple that
brings the stream's ``pushed`` counter to a multiple of
:data:`_IDLE_SWEEP_TUPLES`, at its event time (batched: at the end of the
chunk reaching one, at its last).  A query reading two streams is swept by
both, and a restored engine sweeps on the tuples the live one would.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cep.index import ALWAYS, StepIndex
from repro.cep.matcher import UNPARTITIONED, ChunkPlan
from repro.cep.sinks import DetectionLog
from repro.observability.tracing import current_context
from repro.streams.stream import Stream

if TYPE_CHECKING:
    from repro.cep.engine import CEPEngine, DeployedQuery

#: Tuples of a stream between idle sweeps of its queries; the phase is the
#: stream's ``pushed`` counter, which snapshots keep.
_IDLE_SWEEP_TUPLES = 512


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


class Fanout:
    """A stream's one subscription: the queries reading it, in deploy order,
    the index over their steps (``members`` is ``None`` until the first
    tuple after they changed), and the wake state of the per-tuple path
    (see the module docstring).  :meth:`handle` and :meth:`handle_batch`
    are the subscription's callbacks."""

    def __init__(self, engine: CEPEngine, stream: Stream, log: DetectionLog) -> None:
        self.engine = engine
        self.stream = stream
        self.name = stream.name
        self.stats = stream.stats
        self.log = log
        self.clock = engine.clock
        config = engine.matcher_config
        self.time_field, self.field = config.timestamp_field, config.partition_field
        self.queries: List[DeployedQuery] = []
        self.members: Optional[Tuple[_Member, ...]] = None
        self.index = StepIndex(())
        self.ready = self.fresh = self.busy = self.tracking = False
        #: Bumped by every :meth:`release`.
        self.epoch = 0
        #: Flags of the enabled queries, and of the untracked ones, which
        #: every tuple wakes.
        self.enabled = self.always = 0
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
        self.subscription = stream.subscribe(
            self.handle, name=f"queries:{self.name}", batch_callback=self.handle_batch, reads=()
        )

    # -- the queries -------------------------------------------------------------------

    def changed(self) -> None:
        """The queries changed: rebind on the next tuple, and declare at
        once the fields they read, so the view producing the stream
        projects that very tuple."""
        self.rebind()
        self.subscription.declare(
            frozenset().union(*(deployed.reads[self.name] for deployed in self.queries))
        )

    def rebind(self) -> None:
        self.release()
        self.members = None

    def bind(self) -> Tuple[_Member, ...]:
        """(Re)build the index and bind every query to it."""
        matchers = [deployed.matcher for deployed in self.queries]
        index = StepIndex(
            atoms for matcher in matchers for atoms in matcher.indexable_steps(self.name)
        )
        gates = [matcher.bind_index(self.name, index) for matcher in matchers]
        if all(gate in (0, ALWAYS) for gate in gates):
            # The lookup costs every tuple and pays off by answering gates;
            # with none to answer, the few later-step verdicts stay closures.
            index = StepIndex(())
            gates = [matcher.bind_index(self.name, index) for matcher in matchers]
        self.index = index
        self.members = tuple(
            _Member(
                deployed,
                self.name,
                gate,
                order,
                # Woken by bit: the index answers its gate, and every tuple it
                # counts arrives here.
                tracked=gate not in (0, ALWAYS) and len(deployed.reads) == 1,
            )
            for order, (deployed, gate) in enumerate(zip(self.queries, gates))
        )
        return self.members

    def sweep(self, now: float) -> None:
        """Sweep every enabled query at event time ``now``: one that drops a
        partition releases the wake state first, one that drops nothing
        leaves it."""
        for deployed in tuple(self.queries):
            if deployed.enabled:
                deployed.matcher.sweep(now)

    # -- delivery ----------------------------------------------------------------------

    def time(self, record: Mapping[str, Any]) -> float:
        """``record``'s event time: its timestamp field, else the clock's now."""
        value = record.get(self.time_field)
        return float(value) if value is not None else self.clock.now()

    def _take(
        self, member: _Member, plan: Optional[ChunkPlan], items: Any, times: Any, verdicts: Any,
        context: Any,
    ) -> Optional[Exception]:
        """Give ``member``'s query the tuple ``items`` at event time
        ``times``, or (with ``plan``) the chunk ``items`` at theirs
        (``None``: no time converted, so it fails on its own conversion).
        Returns the error it raised, recorded as its own subscription's
        would be."""
        deployed = member.deployed
        try:
            if times is None:
                if plan is not None:
                    times = [self.time(record) for record in items]
                else:
                    times = self.time(items)
            span = None
            if context is not None:
                span = self.engine.tracer.span(f"matcher:{deployed.name}", "matcher", context)
            if plan is not None:
                detections = member.matcher.process_batch(items, self.name, times, verdicts, plan)
            else:
                detections = member.matcher.process(items, self.name, times, verdicts)
            if span is not None:
                tuples = len(items) if plan is not None else 1
                span.close(tuples=tuples, detections=len(detections))
            if detections:
                self.log.extend(detections)
                outer = self.busy
                self.busy, self.ready = True, False
                try:
                    for detection in detections:
                        deployed.sink.emit(detection)
                finally:
                    self.busy = outer
                    self.ready = self.fresh and not outer
        except Exception as error:  # noqa: BLE001 — isolate, deliver to the rest
            self.stream.record_failure(f"query:{deployed.name}", error)
            return error
        return None

    def handle(self, record: Mapping[str, Any]) -> None:
        """The per-tuple callback: hand ``record`` to the queries it wakes."""
        if not self.ready:
            if self.members is None:
                self.bind()
            elif self.busy:
                # Fed by a sink: settle the delivery under way, which
                # then stops keeping the state rebuilt here.
                self.release()
            if not self.fresh:
                self.awaken()
        if not self.enabled:
            return
        # Read before delivery: a tuple fed from a sink counts after this one.
        sweep = not self.stats.pushed % _IDLE_SWEEP_TUPLES
        # The wake state the tuple is booked in; None: it is not.
        epoch = self.epoch
        timestamp = key = awake = None
        try:
            timestamp = self.time(record)
            if self.tracking:
                field = self.field
                key = record.get(field) if field is not None else UNPARTITIONED
                awake = self.parts.get(key)
        except Exception:  # noqa: BLE001 — no event time, or an unhashable partition value
            # Every enabled query fails on the tuple, each on its own (_take).
            self.release()
            epoch = None
        index = self.index
        verdicts = index.lookup(record) if index.fields else None
        tracer = self.engine.tracer
        # A traced tuple keeps one span per query: every query is woken then.
        context = current_context() if tracer is not None and tracer.active else None
        try:
            late = 0
            if epoch is None:
                flags = self.enabled
            else:
                self.count += 1
                if awake is not None:
                    awake.count += 1
                if verdicts is None or context is not None:
                    flags = self.enabled
                else:
                    flags = early = self.always
                    hit = verdicts & self.gate_mask
                    if hit:
                        gated = self.gates.get(hit) or self.gated(hit)
                        flags |= gated
                        early |= gated & self.singles
                    if awake is not None and (verdicts & awake.mask or timestamp >= awake.expiry):
                        flags |= self.due(awake, verdicts, timestamp)
                        early |= self.completing
                    if not flags:
                        return  # the tuple wakes nothing
                    late = flags & ~early
                    flags = early
            by_flag = self.by_flag
            failures: Optional[List[Tuple[int, Exception]]] = None
            while flags:
                flag = flags & -flags
                flags ^= flag
                member = by_flag[flag]
                if not member.deployed.enabled:
                    continue
                booked = member.tracked
                if booked:
                    if self.epoch != epoch:
                        # A sink released the state mid-delivery: settle what
                        # the state rebuilt since owes before runs change.
                        self.release()
                        booked = False
                    else:
                        member.claimed += 1  # process counts it
                # What a sink does may release the state: tell it which
                # queries have not started on the tuple yet (none once the
                # state it is booked in is gone), and which one has not been
                # read back.  The sinks run as if deploy order had been kept:
                # what could tell the late queries before this one apart
                # hands them the tuple first (flush).
                self.inflight = awake
                self.pending = flags | late if self.epoch == epoch else 0
                self.unread = flag if booked else 0
                deferred = late & (flag - 1)
                if deferred:
                    late ^= deferred
                    self.deferred = deferred
                    self.held = (record, timestamp, verdicts, key, awake, epoch)
                error = self._take(member, None, record, timestamp, verdicts, context)
                self.inflight, self.pending, self.unread = None, 0, 0
                if deferred:
                    late |= self.deferred
                    self.deferred, self.held = 0, None
                if error is not None:
                    failures = (failures or []) + [(flag, error)]
                # Read back after the detections went out, off the path to
                # them; a sink that released the state meanwhile settled it.
                if booked and self.epoch == epoch:
                    self.processed(member, key, awake)
            if late:
                self.late(late, record, timestamp, verdicts, key, awake, epoch)
            if self.failures:
                failures = (failures or []) + self.failures
                self.failures = []
            if self.epoch != epoch:
                self.release()
            if failures:
                # The producer sees the first error in deploy order.
                raise min(failures, key=itemgetter(0))[1]
        finally:
            if sweep and timestamp is not None:
                self.sweep(timestamp)

    def flush(self) -> None:
        """Hand the deferred queries the tuple in flight."""
        if self.deferred:
            flags, self.deferred = self.deferred, 0
            self.late(flags, *self.held)

    def late(
        self, flags: int, record: Mapping[str, Any], timestamp: float, verdicts: Optional[int],
        key: Any, awake: Optional[_Awake], epoch: int,
    ) -> None:
        """Hand the late queries ``flags`` names the tuple, in deploy order,
        booked in the wake state of ``epoch`` while it lasts.  They cannot
        complete a run on it, so no sink of theirs runs; their errors wait
        in ``failures`` for the tuple's delivery to raise."""
        while flags:
            flag = flags & -flags
            flags ^= flag
            member = self.by_flag[flag]
            if not member.deployed.enabled:
                continue
            booked = self.epoch == epoch
            if booked:
                self.pending &= ~flag
                member.claimed += 1
            else:
                self.release()
            error = self._take(member, None, record, timestamp, verdicts, None)
            if error is not None:
                self.failures.append((flag, error))
            if booked and self.epoch == epoch:
                self.processed(member, key, awake)

    def handle_batch(self, records: Sequence[Mapping[str, Any]]) -> None:
        """The batch callback: group the chunk by partition once, give it to
        the enabled queries it can change, in deploy order, and count it in
        bulk for the rest."""
        # The chunk is counted already; a tuple fed from a sink counts after it.
        pushed = self.stats.pushed
        members = self.members or self.bind()
        # The chunk changes runs behind the wake state: settle it once.
        self.release()
        lookup = self.index.lookup
        verdicts = [lookup(record) for record in records] if self.index.fields else None
        tracer = self.engine.tracer
        context = current_context() if tracer is not None and tracer.active else None
        time = self.time
        try:
            timestamps: Optional[List[float]] = [time(record) for record in records]
        except Exception:  # noqa: BLE001 — every query fails on it, each on its own (_take)
            timestamps = None
        plan = ChunkPlan(records, self.field, verdicts)
        # The verdicts of the whole chunk, when a tracked query may be passed
        # over on them (a traced chunk keeps every query's span).
        quiet = plan.mask
        if timestamps is None or context is not None or plan.size < len(records):
            quiet = None
        keys = plan.groups.keys()
        first: Optional[Exception] = None
        for member in members:
            if not member.deployed.enabled:
                continue
            if (
                quiet is not None
                and member.tracked
                and not quiet & member.gate
                and keys.isdisjoint(member.runs)
            ):
                # It opens no run and holds none the chunk can touch.
                member.matcher.settle(self.name, len(records), 0)
                continue
            error = self._take(member, plan, records, timestamps, verdicts, context)
            first = first or error
        # At the end of a chunk that reaches a multiple of the period.
        if timestamps and pushed % _IDLE_SWEEP_TUPLES < len(records):
            self.sweep(timestamps[-1])
        if first is not None:
            raise first

    # -- wake state --------------------------------------------------------------------

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
            member.matcher.settle(self.name, tuples, evaluations)
        member.base, member.claimed, member.owed = upto, 0, 0

    def awaken(self) -> None:
        """Build the wake state from the enabled queries' run tables."""
        self.fresh = True
        self.ready = not self.busy
        self.count = 0
        self.parts = {}
        enabled = [member for member in self.members if member.deployed.enabled]
        self.by_flag = {member.flag: member for member in enabled}
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

    def processed(self, member: _Member, key: Any, awake: Optional[_Awake]) -> None:
        """After ``member`` processed a tuple of ``key``'s partition
        (``awake`` when the tuple came): settle the tuples it skipped there
        before, at the cost they saw, and read back its runs."""
        entry = awake.runs.get(member) if awake is not None else None
        if entry is None:
            self.rejoin(member, key)
            return
        member.owed += (awake.count - 1 - entry[1]) * entry[2]
        part = member.runs.get(key)
        if part is None:
            del awake.runs[member]
            if not awake.runs:
                del self.parts[key]
        elif part is entry[0] and part.occupied == entry[6] and part.oldest == entry[4]:
            entry[1] = awake.count  # the tuple changed nothing the entry reads
        else:
            awake.enter(member, part)

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
