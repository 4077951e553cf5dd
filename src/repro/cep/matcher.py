"""NFA runtime for sequence pattern matching.

The :class:`NFAMatcher` consumes tuples and maintains a set of *runs* —
partial matches, each remembering which step of the compiled pattern it has
reached and when each step was matched.  Semantics follow the paper's match
operator:

* a tuple that satisfies the predicate of a run's next step advances that
  run (each tuple advances a given run by at most one step),
* a tuple that satisfies the first step's predicate additionally starts a
  new run, so a gesture may begin at any time ("skip till next match"),
* ``within`` constraints bound the time between the first and last event of
  the corresponding sequence group; runs that can no longer satisfy a
  constraint are pruned,
* ``select first`` reports a single detection when several runs complete on
  the same tuple; ``select all`` reports all of them,
* ``consume all`` clears every run once a detection fires, so the same
  movement is not reported twice; ``consume none`` keeps partial matches.

Partitioning
------------
A shared sensor space carries the movements of several users at once: every
Kinect tuple declares the ``player`` id that performed it.
``MatcherConfig.partition_field`` (default ``"player"``) keys the run table
by that field, so a run started by one player's tuples can only ever be
advanced, pruned, completed or consumed by tuples of the same player —
matching on N interleaved users behaves exactly like N isolated matchers.
``max_active_runs`` and ``run_ttl_seconds`` apply per partition,
``consume all`` clears only the completing player's runs, and a completed
:class:`Detection` carries the partition value so applications know *who*
gestured.  Tuples missing the field share one partition (key ``None``);
an engine built with ``MatcherConfig(partition_field=None)`` runs every
query on the single global run table.  Partitions
hold state only while they have live runs, so idle players cost nothing.

Fast path
---------
Step predicates are lowered to plain Python closures at construction time
(``Expression.compile``).  A matcher deployed on a
:class:`~repro.cep.engine.CEPEngine` is also handed each tuple's *verdicts*:
one :class:`~repro.cep.index.StepIndex` per stream answers every indexable
step of every query on it with one ``bisect`` per field, and the step's bit
in that mask replaces its closure (:meth:`NFAMatcher.bind_index`).  Steps
without a bit — UDFs, disjunctions, multi-field arithmetic — and tuples the
index cannot read (``verdicts`` is ``None``: a missing or non-numeric
field) evaluate the closures, so errors and verdicts are the closure's
either way.  An indexed verdict counts in ``predicate_evaluations`` exactly
like the closure it replaces.

Whether a tuple lies inside step *i*'s pose window depends on the tuple and
the step, never on the run asking, so each partition keeps **one bucket of
runs per step** (``waiting[i]`` holds the runs whose next step is *i*) and a
tuple evaluates step *i*'s predicate at most once, and only while
``waiting[i]`` is non-empty.  A rejected bucket is skipped whole; an
accepted bucket moves whole to ``waiting[i + 1]`` (or completes), each run
still checked on its own against the ``within`` constraints that end at
step *i*.  Buckets are visited last step first, so a run that just moved is
not looked at again and every run advances by at most one step per tuple.
Tuples from streams that appear nowhere in the pattern short-circuit before
any predicate is evaluated.  ``MatcherStats.predicate_evaluations`` counts
the atoms actually evaluated: at most once per tuple and step.

With verdicts, most tuples can change nothing of a query but its counters:
the gate bit is clear, no step its partition's runs wait for holds and
none of them can expire yet.  Bit *i* of a partition's
``occupied`` is set while ``waiting[i]`` holds runs, and
:meth:`NFAMatcher.wake_tables` folds an occupancy into what an engine needs
to tell such tuples apart without calling the matcher: the bits that can
move the runs (a step without a bit counts as always set), what a tuple
missing them adds to ``predicate_evaluations``, and the bit that completes
a run.  Runs may be pruned once ``timestamp - oldest`` exceeds
:attr:`~NFAMatcher.expiry_window`, the very test ``_prune`` starts with.
An engine reads the live tables (:attr:`NFAMatcher.runs`), calls
:meth:`~NFAMatcher.process` only on a tuple that can change them, and
hands the matcher what it would have counted for every other tuple in
bulk (:meth:`~NFAMatcher.settle`).  What it owes is settled before anyone
can see it: :attr:`~NFAMatcher.stats`, :meth:`~NFAMatcher.capture_state`,
and every change to the runs outside ``process``
(:meth:`~NFAMatcher.process_batch`, :meth:`~NFAMatcher.reset`,
:meth:`~NFAMatcher.restore_state`, a :meth:`~NFAMatcher.sweep` that drops
a partition) call the fan-out's ``release`` hook first, so every reader
sees what ``process`` on every tuple would have counted.
The same tables let :meth:`~NFAMatcher.process_batch` pass over the
tuples of a chunk that cannot change its runs (see "Batched path").

Expiry is checked only when something can expire.  Each partition keeps a
lower bound ``oldest`` on every timestamp its runs hold, and pruning returns
before touching a run while ``now - oldest`` is within the shortest window
(``within`` or TTL) that can expire one.  The shortcut is exact, not
approximate: a run is expired when ``now - anchor > seconds`` for one of its
own timestamps ``anchor >= oldest``, and floating-point subtraction is
monotone in the anchor, so ``now - anchor <= now - oldest <= seconds`` — the
full scan would have removed nothing.  Recording a timestamp may only lower
the bound; it is raised only by a prune, to the exact minimum of what
survives.  The same bound lets the idle sweep pass over an ordered
partition with ``now - oldest <= partition_idle_seconds`` without looking
at a run (an unordered one may hold NaN, which the bound ignores).

**Ordered partitions.**  When something can expire, a prune costs
O(expired runs + buckets), not O(runs), as long as the partition's time
runs forward.  Take a partition whose processed timestamps never
decreased (and were never NaN) since it was empty: runs start and advance
in arrival order, so each bucket holds its runs in ``sequence_number``
order, every step's timestamp is nondecreasing along a bucket, and each
run's own timestamps are nondecreasing.  Expiry is ``now - anchor >
seconds`` for one anchor step per window, so for every ``within`` and for
the TTL the expired runs of a bucket are a prefix of it, the cut stops at
the first survivor, and the new ``oldest`` is the start of each bucket's
first survivor.  The same prefix cut filters a bucket that advances
against the ``within`` constraints ending at its step, and a bucket's
newest timestamp is its last run's.  Each partition keeps ``latest``, the
last timestamp it processed, and an ``ordered`` flag: a tuple older than
``latest``, or a NaN timestamp, clears the flag, and the partition takes
the full scan (``_prune_scan``) until it empties and is dropped.  A
restored partition starts ordered only if :meth:`NFAMatcher.restore_state`
finds its runs as a live ordered partition holds them: taken in
``sequence_number`` order, each waits for no later step than the one
before it and holds no earlier timestamp at any step they share.
Both ways give the same runs, the same ``oldest`` and ``occupied`` and the
same counters; only the work differs, and a jittery player never slows
another player, since a partition never spans players.  The cut is exact
only while the matcher is the one writer of its run tables: repo lint
RL015 keeps every other module from writing them.

Batched path
------------
:meth:`NFAMatcher.process_batch` feeds a whole chunk of tuples (sharing one
prune window) through the same buckets: expired runs are pruned once per
partition, at the chunk's first tuple of it, instead of per tuple, while
``within`` constraints are still enforced exactly on every advancement.
Expired runs that linger mid-batch cannot change the outcome: advancement
past an expired constraint is rejected when the constraint's span ends,
TTL-governed patterns prune per tuple, and hitting the run cap lazily
evicts expired runs before suppressing a new one — so with monotone
timestamps the batched detections are identical to the per-tuple path's.
Every tuple of a chunk checks its partition's order as a tuple fed alone
does, so a chunk that runs backwards inside one partition moves that
partition to the full scan from the next prune on.

A chunk is grouped by partition once (:class:`ChunkPlan`: each tuple's
key, each partition's tuple positions and the OR of their verdicts); an
engine builds the plan once for all the queries on a stream, and a
standalone call builds its own.  After the first tuple's prune, a
partition whose OR misses the gate bit and every bit its runs wait for
(``wake_tables`` of its ``occupied``) is passed over whole, as is a single
tuple that misses them; under a TTL, only while no prune is due on any of
them.  Each is counted as :meth:`NFAMatcher.process` would count it —
``tuples_processed``, ``gate_rejections`` and the wake tables'
``predicate_evaluations`` — and an emptied partition is dropped as it would
be.  A tuple without verdicts is never passed over.  The remaining tuples
are processed in arrival order, so sequence numbers, ``select`` /
``consume`` and the detections' order are those of the full loop.  Such a
skip leaves ``latest`` and ``ordered`` where they were, as the per-tuple
wake does: only processed tuples write timestamps into runs, and the
order they were processed in is what "Ordered partitions" relies on.
A tuple that raises ends the chunk for its matcher; what was passed over
up to it, and every partition passed over whole, is counted all the same.

Run-cap semantics
-----------------
``max_active_runs`` bounds *partial* matches only, counted per partition
over all of its buckets.  A tuple completing an existing run always
reports, and a single-step pattern — whose matches never occupy a run slot
— fires even when the table is full; only the start of a new multi-step run
is suppressed at the cap.  ``select``/``consume`` policies apply to the
completions of one tuple as usual: ``select first`` reports the oldest
completed run (lowest ``sequence_number``), and ``consume all`` clears the
completing partition's buckets, including a run started by that same
tuple.

The matcher also exposes the live progress information (how far the best
partial match has advanced) that the paper's testing phase visualises to
help users understand why a movement was not detected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import repeat
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple
)

from repro.cep.expressions import CompiledExpression, CompiledPredicateCache
from repro.cep.index import ALWAYS, Atom, StepIndex, step_atoms
from repro.cep.nfa import CompiledPattern, TimeConstraint
from repro.cep.query import ConsumePolicy, SelectPolicy
from repro.cep.tuples import DEFAULT_PARTITION_FIELD
from repro.cep.udf import FunctionRegistry, default_functions
from repro.errors import SerializationError

#: Run-table key used when ``partition_field`` is ``None``: all tuples share
#: one partition, which is exactly the pre-partitioning behaviour.
UNPARTITIONED: Any = object()


@dataclass
class MatcherConfig:
    """Tuning knobs of the NFA runtime.

    Attributes
    ----------
    max_active_runs:
        Upper bound on simultaneously tracked partial matches *per
        partition*.  A user holding the start pose produces one matching
        tuple per frame; the bound keeps that player's state finite when no
        window expires their runs (a TTL of ``None`` on a pattern without
        ``within``), without letting one player's noisy stream starve the
        others.  Per-tuple cost still grows with the runs a tuple advances;
        pruning them costs what expires (see "Ordered partitions").  When
        the bound is reached no new runs are started in that partition until
        existing ones advance, finish or are pruned.  Completions are never
        suppressed: single-step patterns detect even at the cap because they
        need no run slot.
    run_ttl_seconds:
        Optional hard lifetime for a partial match, applied only while a
        run sits at a step that no ``within`` constraint covers (in
        particular: every step of a pattern with no ``within`` at all).
        Runs inside a constraint window are governed by that constraint
        alone, so long-window patterns are never cut short by the TTL.
        ``None`` disables the TTL.
    store_matched_tuples:
        Whether detections keep the matched tuples (useful for debugging
        and the Fig. 5 style visual feedback) or only timestamps.  A tuple
        is kept as the stream delivered it: on ``kinect_t`` that is the
        view's projection, not the full transformed frame (see
        :attr:`Detection.matched`).
    timestamp_field:
        Tuple field carrying the event time in seconds.
    partition_field:
        Tuple field that keys the run table (default ``"player"``, the
        Kinect player id).  Runs advance, prune and consume strictly within
        their own partition, so interleaved multi-user streams detect
        exactly like isolated single-user streams.  Tuples missing the field
        fall into one shared partition; ``None`` disables partitioning
        entirely (one global run table, the pre-partitioning semantics).
        Every stream of a pattern must agree on the field: a run started by
        a player-stamped tuple can only be advanced by tuples carrying the
        same value, so a query mixing streams *with* and *without* the
        field should run on an engine whose configuration has
        ``partition_field=None`` (queries run under their engine's).
    partition_idle_seconds:
        Drop all partial matches of a partition whose newest run activity is
        older than this (measured against a stream's latest event time
        every 512 tuples of the stream, see :meth:`NFAMatcher.sweep`).
        A player who left the scene mid-gesture otherwise parks runs — and
        stale :meth:`NFAMatcher.furthest_step` feedback — forever, since
        pruning only ever runs against a partition's own tuples.  Pick it
        far above every ``within`` window (players between gestures hold no
        runs at all, so eviction only ever hits abandoned mid-gesture
        state).  ``None`` disables the sweep; unpartitioned matchers never
        sweep (the seed's single-table lifetime rules apply unchanged).
    """

    max_active_runs: int = 256
    run_ttl_seconds: Optional[float] = 10.0
    store_matched_tuples: bool = True
    timestamp_field: str = "ts"
    partition_field: Optional[str] = DEFAULT_PARTITION_FIELD
    partition_idle_seconds: Optional[float] = 30.0


@dataclass
class Detection:
    """A completed pattern match.

    ``partition`` is the value of the matcher's partition field shared by
    every tuple of the match (the player id on the default configuration);
    ``None`` when the matcher runs unpartitioned or the tuples carried no
    partition field.

    ``matched`` holds the matched tuples as the stream delivered them
    (``None`` unless ``MatcherConfig.store_matched_tuples``).  On
    ``kinect_t`` those are projections: every non-joint field, ``scale``,
    both hands and the joints the vocabulary deployed at that tuple reads,
    so a detection spanning a deploy that widened the vocabulary mixes
    widths.  The full frame is ``session.transformer.transform(frame)``,
    or what a ``kinect_t`` subscriber that declares no ``reads`` receives.
    """

    output: str
    query_name: str
    timestamp: float
    start_timestamp: float
    step_timestamps: Tuple[float, ...]
    matched: Optional[Tuple[Mapping[str, Any], ...]] = None
    partition: Any = None

    @property
    def duration(self) -> float:
        """Seconds between the first and the last matched event."""
        return self.timestamp - self.start_timestamp

    def to_state(self) -> Dict[str, Any]:
        """A JSON-serialisable copy (snapshot / event-log format)."""
        return {
            "output": self.output,
            "query_name": self.query_name,
            "timestamp": self.timestamp,
            "start_timestamp": self.start_timestamp,
            "step_timestamps": list(self.step_timestamps),
            "matched": None
            if self.matched is None
            else [dict(record) for record in self.matched],
            "partition": self.partition,
        }

    @staticmethod
    def from_state(state: Mapping[str, Any]) -> "Detection":
        """Rebuild a detection from a :meth:`to_state` copy."""
        matched = state.get("matched")
        return Detection(
            output=str(state["output"]),
            query_name=str(state["query_name"]),
            timestamp=float(state["timestamp"]),
            start_timestamp=float(state["start_timestamp"]),
            step_timestamps=tuple(float(t) for t in state["step_timestamps"]),
            matched=None
            if matched is None
            else tuple(dict(record) for record in matched),
            partition=state.get("partition"),
        )

    def __repr__(self) -> str:
        who = f", player={self.partition!r}" if self.partition is not None else ""
        return (
            f"Detection(output={self.output!r}, t={self.timestamp:.3f}, "
            f"duration={self.duration:.3f}s{who})"
        )


@dataclass(eq=False, slots=True)
class _Run:
    """One partial match.

    ``eq=False`` keeps identity comparison/hashing: two runs started by
    different users in the same frame carry identical field values and must
    never be confused.  The step a run waits for is not stored here — it is
    the index of the bucket holding the run, and always equals
    ``len(step_timestamps)``.
    """

    start_timestamp: float
    step_timestamps: List[float]
    matched: List[Mapping[str, Any]]
    sequence_number: int


@dataclass(eq=False, slots=True)
class _Partition:
    """One partition's partial matches, bucketed by the step they wait for.

    ``waiting[i]`` holds the runs whose next step is ``i`` (slot 0 stays
    empty: a run exists only once step 0 matched), bit ``i`` of
    ``occupied`` is set while it does, ``count`` is the number of runs over
    all buckets, and ``oldest`` is a lower bound on every timestamp those
    runs hold (``inf`` while there are none).  ``latest`` is the last
    timestamp the partition processed and ``ordered`` says that none ran
    backwards or was NaN; it never comes back once cleared (see "Ordered
    partitions" in the module docstring).
    """

    waiting: List[List[_Run]]
    count: int = 0
    oldest: float = math.inf
    occupied: int = 0
    latest: float = -math.inf
    ordered: bool = True

    def clear(self) -> None:
        for bucket in self.waiting:
            bucket.clear()
        self.count = 0
        self.oldest = math.inf
        self.occupied = 0


@dataclass
class MatcherStats:
    """Counters exposed for the optimisation / throughput benchmarks.

    ``predicate_evaluations`` counts the atomic comparisons the matcher
    evaluated (a step's atom count per evaluation of that step, at most
    once per tuple and step).  ``runs_evicted`` counts idle-partition sweep
    reclamations only; those runs are *also* counted in ``runs_pruned``
    (the historical aggregate), so ``runs_pruned`` keeps its old meaning of
    "runs discarded for any expiry reason".  ``gate_rejections`` counts
    tuples that arrived on the pattern's first stream but failed the
    first-step predicate — they never touched run state.

    Every field is an integer counter: ``reset``, ``as_dict`` and the
    matcher's snapshot format are all derived from the field list.
    """

    tuples_processed: int = 0
    predicate_evaluations: int = 0
    gate_rejections: int = 0
    runs_started: int = 0
    runs_advanced: int = 0
    runs_completed: int = 0
    runs_pruned: int = 0
    runs_evicted: int = 0
    runs_suppressed: int = 0
    detections: int = 0

    def reset(self) -> None:
        self.restore({})

    def as_dict(self) -> Dict[str, int]:
        """Plain-number copy, keyed like the ``/metrics`` query families."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def restore(self, state: Mapping[str, Any]) -> None:
        """Load an :meth:`as_dict` copy; counters it lacks restart at zero
        (snapshots written before a counter existed still load)."""
        for f in fields(self):
            setattr(self, f.name, int(state.get(f.name, 0)))


class _Folds(Dict[int, int]):
    """Per bucket occupancy, the values of the occupied steps OR-ed (or,
    with ``add``, summed): folded on first use, since a partition takes
    few shapes."""

    def __init__(self, steps: Sequence[Tuple[int, int]], add: bool = False) -> None:
        super().__init__()
        self._steps = steps
        self._add = add

    def __missing__(self, occupied: int) -> int:
        folded = 0
        for step, value in self._steps:
            if occupied & step:
                folded = folded + value if self._add else folded | value
        self[occupied] = folded
        return folded


def _tightest(constraints: Iterable[TimeConstraint]) -> Tuple[Tuple[int, float], ...]:
    """Per anchor step, the shortest of ``constraints``' windows.

    Windows measured from the same step's timestamp expire in order of
    length, so only the shortest can bind — the generated queries nest one
    ``within`` per step, all anchored at step 0.
    """
    windows: Dict[int, float] = {}
    for constraint in constraints:
        windows[constraint.first] = min(
            constraint.seconds, windows.get(constraint.first, math.inf)
        )
    return tuple(windows.items())


def _expired(bucket: List[_Run], windows: Tuple[Tuple[int, float], ...], timestamp: float) -> int:
    """How many runs at the front of an ordered partition's ``bucket`` one of
    ``windows`` (anchor step, seconds) expires at ``timestamp``: they are a
    prefix of it (see "Ordered partitions" in the module docstring)."""
    cut, size = 0, len(bucket)
    for first, seconds in windows:
        while cut < size and timestamp - bucket[cut].step_timestamps[first] > seconds:
            cut += 1
    return cut


def _in_order(runs: Sequence[Tuple[int, _Run]]) -> bool:
    """Whether ``(next step, run)`` pairs in ``sequence_number`` order hold
    what an ordered partition's runs hold: later runs wait no further,
    each step's timestamp never falls from one run to the next, and each
    run starts at its first timestamp and never runs backwards (a NaN fails
    every comparison)."""
    for position, (step, run) in enumerate(runs):
        stamps = run.step_timestamps
        if not run.start_timestamp == stamps[0] or any(
            not a <= b for a, b in zip(stamps, stamps[1:])
        ):
            return False
        if position:
            prior_step, prior = runs[position - 1]
            if not (prior.sequence_number < run.sequence_number and prior_step >= step):
                return False
            if any(not a <= b for a, b in zip(prior.step_timestamps, stamps)):
                return False
    return True


class ChunkPlan:
    """A chunk grouped by partition, once for every query reading it.

    ``keys`` holds each tuple's partition key (by ``field``, or
    :data:`UNPARTITIONED` when ``field`` is ``None``) and ``groups`` maps
    each key, in order of first arrival, to ``[positions, mask]``: its
    tuples' positions in the chunk and the OR of their verdicts (``None``
    when a tuple has none).  ``mask`` is the OR over the chunk.  ``size``
    is how many tuples were grouped: the plan stops at the first tuple
    whose key cannot be looked up, which each query then raises on after
    taking the tuples before it, as it would without a plan.
    """

    __slots__ = ("keys", "groups", "mask", "size")

    def __init__(
        self,
        records: Sequence[Mapping[str, Any]],
        field: Optional[str],
        verdicts: Optional[Sequence[Optional[int]]] = None,
    ) -> None:
        keys: List[Any] = []
        groups: Dict[Any, List[Any]] = {}
        masks = repeat(None) if verdicts is None else verdicts
        size = len(records)
        try:
            for position, (record, mask) in enumerate(zip(records, masks)):
                key = record.get(field) if field is not None else UNPARTITIONED
                group = groups.get(key)
                if group is None:
                    groups[key] = [[position], mask]
                else:
                    group[0].append(position)
                    if group[1] is not None:
                        group[1] = None if mask is None else group[1] | mask
                keys.append(key)
        except Exception:  # noqa: BLE001 — each query raises on that tuple (process_batch)
            size = len(keys)
        self.keys = keys
        self.groups = groups
        self.size = size
        chunk: Optional[int] = 0
        for _, mask in groups.values():
            if mask is None:
                chunk = None
                break
            chunk |= mask
        self.mask = chunk


class NFAMatcher:
    """Evaluates one compiled gesture pattern against a tuple stream.

    Parameters
    ----------
    pattern:
        The flattened NFA description.
    output / query_name:
        Detection labels.
    functions:
        UDF registry predicates are resolved against.
    config:
        Runtime knobs; see :class:`MatcherConfig`.
    compile_cache:
        Optional engine-wide :class:`CompiledPredicateCache` so identical
        predicates across deployed queries share one compiled closure.
    """

    def __init__(
        self,
        pattern: CompiledPattern,
        output: str,
        query_name: str = "",
        functions: Optional[FunctionRegistry] = None,
        config: Optional[MatcherConfig] = None,
        compile_cache: Optional[CompiledPredicateCache] = None,
    ) -> None:
        self.pattern = pattern
        self.output = output
        self.query_name = query_name or output
        self.functions = functions or default_functions()
        self.config = config or MatcherConfig()
        self._stats = MatcherStats()
        #: Set by an engine that counts this matcher's untouched tuples in
        #: bulk (see "Fast path"): settles what it still owes and forgets what
        #: it knew of the runs.  Called before the counters are read and
        #: before the runs change outside :meth:`process`.
        self.release: Optional[Callable[[], None]] = None
        # Run buckets keyed by partition value (player id).  Entries exist
        # only while a partition has live runs, so idle players cost nothing.
        self._partitions: Dict[Any, _Partition] = {}
        self._partition_field = self.config.partition_field
        self._run_counter = 0

        steps = pattern.steps
        self._length = len(steps)
        self._step_costs: Tuple[int, ...] = tuple(
            step.predicate.predicate_count() or 1 for step in steps
        )
        # Per step, its closure and what a StepIndex may answer it with
        # (None: the closure only), resolved together.
        if compile_cache is not None:
            compiled = [compile_cache.compile_step(step.predicate) for step in steps]
        else:
            compiled = [
                (step.predicate.compile(self.functions), step_atoms(step.predicate, self.functions))
                for step in steps
            ]
        self._step_predicates: Tuple[CompiledExpression, ...] = tuple(c for c, _ in compiled)
        self._step_atoms = tuple(atoms for _, atoms in compiled)
        self._step_bits: List[int] = [0] * len(steps)
        self._no_bits: Tuple[int, ...] = (0,) * len(steps)
        self._first_stream = steps[0].stream
        # Per stream, the steps a run can be waiting for on it, last step
        # first: a bucket that moves lands in one already visited, so no run
        # advances twice on one tuple.
        self._advance_order: Dict[str, Tuple[int, ...]] = {
            stream: tuple(
                index
                for index in range(self._length - 1, 0, -1)
                if steps[index].stream == stream
            )
            for stream in pattern.streams()
        }
        self._wake_tables: Dict[str, Tuple[_Folds, _Folds, _Folds]] = {}
        self._bind_wake_tables()
        # Per-step (anchor step, seconds) tables so the hot path never
        # rebuilds lists.  A within around a single event spans no time:
        # there is nothing to check when it ends (and no timestamp of that
        # step to check yet).
        self._constraints_ending: Tuple[Tuple[Tuple[int, float], ...], ...] = tuple(
            _tightest(c for c in pattern.constraints_ending_at(i) if c.first < i)
            for i in range(self._length)
        )
        self._constraints_covering: Tuple[Tuple[Tuple[int, float], ...], ...] = tuple(
            _tightest(pattern.constraints_covering(i)) for i in range(self._length)
        )
        # Active runs sit at positions 0..length-2; when any of those is not
        # covered by a constraint, the TTL can govern and batch processing
        # must prune per tuple to stay equivalent to the per-tuple path.
        uncovered = any(not self._constraints_covering[i] for i in range(self._length - 1))
        self._ttl: Optional[float] = self.config.run_ttl_seconds if uncovered else None
        # Per step, the windows that expire a run waiting for it: the
        # constraints covering the step it last matched, else the TTL
        # measured from its start (step 0's timestamp).
        ttl_window = () if self._ttl is None else ((0, self._ttl),)
        self._expiring: Tuple[Tuple[Tuple[int, float], ...], ...] = ((),) + tuple(
            self._constraints_covering[i] or ttl_window for i in range(self._length - 1)
        )
        # The shortest span after which pruning can remove a run at all; see
        # "Fast path" in the module docstring for why _prune may trust it.
        windows = [constraint.seconds for constraint in pattern.constraints]
        if self._ttl is not None:
            windows.append(self._ttl)
        self._shortest_window: float = min(windows, default=math.inf)

    # -- introspection -------------------------------------------------------------

    @property
    def stats(self) -> MatcherStats:
        """The counters, exact: what an engine still owes is settled first."""
        self._released()
        return self._stats

    @property
    def active_runs(self) -> int:
        """Number of partial matches currently tracked, over all partitions."""
        return sum(part.count for part in self._partitions.values())

    @property
    def active_partitions(self) -> int:
        """Number of partitions (players) with at least one partial match."""
        return len(self._partitions)

    def partition_keys(self) -> List[Any]:
        """Partition values that currently hold partial matches."""
        return [
            None if key is UNPARTITIONED else key for key in self._partitions
        ]

    def furthest_step(self, partition: Any = UNPARTITIONED) -> int:
        """Index of the furthest step any partial match has reached.

        This is the "how far did my movement get" feedback of the testing
        phase: 0 means no pose has been matched yet, ``len(steps)`` would be
        a full match (which is reported as a detection instead).  Pass
        ``partition`` to restrict the answer to one player; the default
        looks across all partitions.
        """
        if partition is UNPARTITIONED and self._partition_field is not None:
            parts: Sequence[_Partition] = list(self._partitions.values())
        else:
            key = partition if self._partition_field is not None else UNPARTITIONED
            part = self._partitions.get(key)
            parts = [part] if part is not None else []
        for index in range(self._length - 1, 0, -1):
            if any(part.waiting[index] for part in parts):
                return index
        return 0

    def progress(self, partition: Any = UNPARTITIONED) -> float:
        """Furthest progress as a fraction of the pattern length."""
        return self.furthest_step(partition) / self.pattern.length

    def reset(self) -> None:
        """Discard all partial matches (used when a query is redeployed)."""
        self._released()
        self._partitions.clear()

    def _released(self) -> None:
        if self.release is not None:
            self.release()

    # -- state capture / restore --------------------------------------------------------

    def capture_state(self) -> Dict[str, Any]:
        """Snapshot the full run state as a JSON-serialisable dictionary.

        Everything the matcher would need to continue *exactly* where it
        is: each partition's runs (step positions, timestamps and matched
        tuples by value, never by object identity) in ``sequence_number``
        order — so captures of the same stream taken on the per-tuple,
        batched and sharded paths converge —, the run sequence counter
        (detection ordering under ``select first/last`` depends on it) and
        the stats counters.  Restoring the captured state into a matcher
        compiled from the same query text makes every subsequent detection
        byte-identical to an uninterrupted run — the recovery tests assert
        it on the per-tuple and batched paths.

        Raises
        ------
        repro.errors.SerializationError
            If a partition key is not a JSON value (the default ``player``
            ids — ints, floats, strings — always are).
        """
        self._released()
        partitions = []
        for key, part in self._partitions.items():
            if key is UNPARTITIONED:
                encoded_key: Dict[str, Any] = {"unpartitioned": True}
            else:
                if key is not None and not isinstance(key, (str, int, float, bool)):
                    raise SerializationError(
                        f"partition key {key!r} of query "
                        f"'{self.query_name}' is not JSON-serialisable; "
                        f"snapshots require scalar partition values"
                    )
                encoded_key = {"value": key}
            runs = [
                {
                    "next_step": next_step,
                    "start_timestamp": run.start_timestamp,
                    "step_timestamps": list(run.step_timestamps),
                    "matched": [dict(record) for record in run.matched],
                    "sequence_number": run.sequence_number,
                }
                for next_step, bucket in enumerate(part.waiting)
                for run in bucket
            ]
            runs.sort(key=lambda run_state: run_state["sequence_number"])
            partitions.append({"key": encoded_key, "runs": runs})
        return {
            "kind": "nfa-matcher",
            "query_name": self.query_name,
            "run_counter": self._run_counter,
            "stats": self._stats.as_dict(),
            "partitions": partitions,
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Replace the run state with a :meth:`capture_state` snapshot.

        The matcher must have been built from the same pattern the
        snapshot was taken from (recovery redeploys the captured query
        text before restoring); predicates, constraints and configuration
        are *not* part of the state.  Runs may come in any order, and a
        ``tuples_since_sweep`` key (older snapshots) is ignored.

        Raises
        ------
        repro.errors.SerializationError
            If ``state`` is not a matcher snapshot, or holds a run this
            pattern cannot hold (a step outside ``1 .. length - 1``, or a
            timestamp / matched-tuple history that is not one entry per
            matched step).  Every run is checked before anything is
            replaced, so the matcher keeps its old state on failure.
        """
        if state.get("kind") != "nfa-matcher":
            raise SerializationError(
                f"cannot restore query '{self.query_name}' from a "
                f"{state.get('kind')!r} state blob"
            )
        store_tuples = self.config.store_matched_tuples
        partitions: Dict[Any, _Partition] = {}
        for entry in state["partitions"]:
            encoded_key = entry["key"]
            key = UNPARTITIONED if encoded_key.get("unpartitioned") else encoded_key["value"]
            runs: List[Tuple[int, _Run]] = []
            for run_state in entry["runs"]:
                next_step = int(run_state["next_step"])
                run = _Run(
                    start_timestamp=float(run_state["start_timestamp"]),
                    step_timestamps=[float(t) for t in run_state["step_timestamps"]],
                    matched=[dict(record) for record in run_state["matched"]],
                    sequence_number=int(run_state["sequence_number"]),
                )
                if (
                    not 1 <= next_step < self._length
                    or len(run.step_timestamps) != next_step
                    or (store_tuples and len(run.matched) != next_step)
                ):
                    raise SerializationError(
                        f"cannot restore query '{self.query_name}': run "
                        f"{run.sequence_number} of partition {encoded_key} waits "
                        f"for step {next_step} with {len(run.step_timestamps)} "
                        f"timestamps and {len(run.matched)} matched tuples, but "
                        f"the pattern has {self._length} steps"
                    )
                runs.append((next_step, run))
            # Buckets in sequence order, as live ones are; the partition
            # takes the prefix cut only if its runs are in time order too.
            runs.sort(key=lambda pair: pair[1].sequence_number)
            part = self._new_partition(
                max((run.step_timestamps[-1] for _, run in runs), default=-math.inf)
            )
            part.ordered = part.ordered and _in_order(runs)
            for next_step, run in runs:
                part.waiting[next_step].append(run)
                part.occupied |= 1 << next_step
                part.count += 1
                part.oldest = min(part.oldest, *run.step_timestamps)
            if part.count:
                partitions[key] = part
        self._released()
        self._partitions.clear()
        self._partitions.update(partitions)
        self._run_counter = int(state["run_counter"])
        stats_state = state.get("stats")
        if stats_state:
            self._stats.restore(stats_state)

    # -- matching -----------------------------------------------------------------------

    def indexable_steps(self, stream: str) -> List[Tuple[Atom, ...]]:
        """The atoms of each step on ``stream`` a StepIndex can answer."""
        return [
            atoms
            for step, atoms in zip(self.pattern.steps, self._step_atoms)
            if step.stream == stream and atoms is not None
        ]

    def bind_index(self, stream: str, index: StepIndex) -> int:
        """Answer this pattern's steps on ``stream`` from ``index``'s bits
        from now on; return :meth:`gate`."""
        for position, step in enumerate(self.pattern.steps):
            if step.stream == stream:
                atoms = self._step_atoms[position]
                self._step_bits[position] = 0 if atoms is None else index.bits.get(atoms, 0)
        self._bind_wake_tables()
        return self.gate(stream)

    def _bind_wake_tables(self) -> None:
        last = self._length - 1
        self._wake_tables = {
            stream: (
                _Folds([(1 << index, self._step_bits[index] or ALWAYS) for index in order]),
                _Folds([(1 << index, self._step_costs[index]) for index in order], add=True),
                _Folds([(1 << last, self._step_bits[last] or ALWAYS)] if last in order else []),
            )
            for stream, order in self._advance_order.items()
        }

    def gate(self, stream: str) -> int:
        """The bit a tuple's verdicts must carry to start a run from ``stream``:
        0 when the pattern does not start there, and
        :data:`~repro.cep.index.ALWAYS` when its first step has no bit."""
        if stream != self._first_stream:
            return 0
        return self._step_bits[0] or ALWAYS

    def process(
        self,
        record: Mapping[str, Any],
        stream: str,
        timestamp: Optional[float] = None,
        verdicts: Optional[int] = None,
    ) -> List[Detection]:
        """Feed one tuple; return the detections it completed (possibly none).

        Parameters
        ----------
        record:
            The tuple.
        stream:
            Name of the stream the tuple arrived on; tuples from streams
            that appear nowhere in the pattern short-circuit immediately.
        timestamp:
            Event time; defaults to the tuple's timestamp field.
        verdicts:
            The tuple's mask from the :class:`~repro.cep.index.StepIndex`
            this matcher was bound to on ``stream``; ``None`` evaluates
            every step's closure.
        """
        self._stats.tuples_processed += 1
        if stream not in self._advance_order:
            return []
        if timestamp is None:
            timestamp = float(record.get(self.config.timestamp_field, 0.0))
        field = self._partition_field
        key = record.get(field) if field is not None else UNPARTITIONED
        part = self._partitions.get(key)
        if part is not None:
            self._prune(part, timestamp)
        detections: List[Detection] = []
        self._process_tuple(record, stream, timestamp, key, part, detections, verdicts)
        return detections

    @property
    def runs(self) -> Mapping[Any, _Partition]:
        """The live run tables, by the tuple's partition value
        (:data:`UNPARTITIONED` when the matcher is unpartitioned).  A table
        stays the same object until its partition empties; read its
        ``occupied`` and ``oldest``, never write them."""
        return self._partitions

    def wake_tables(
        self, stream: str
    ) -> Tuple[Mapping[int, int], Mapping[int, int], Mapping[int, int]]:
        """Per ``occupied`` value of a partition, what can make
        :meth:`process` change its runs on a tuple from ``stream``: the
        bits of the steps its runs wait for there
        (:data:`~repro.cep.index.ALWAYS` for a step without one); what a
        tuple whose verdicts miss them and :meth:`gate` adds to
        ``predicate_evaluations`` beyond the gate's own cost; and the bit a
        tuple must carry to complete one of the runs (0: none can).  Runs
        may expire once ``timestamp - oldest`` exceeds
        :attr:`expiry_window`; a single-step pattern completes on its gate."""
        return self._wake_tables[stream]

    @property
    def expiry_window(self) -> float:
        """The shortest span after which pruning can remove a run."""
        return self._shortest_window

    def settle(self, stream: str, tuples: int, evaluations: int) -> None:
        """Count ``tuples`` tuples from ``stream`` that :meth:`process` would
        only have counted; ``evaluations`` is what they cost beyond their
        gate's (see :meth:`wake_tables`), which is added here."""
        stats = self._stats
        stats.tuples_processed += tuples
        if stream == self._first_stream:
            stats.gate_rejections += tuples
            evaluations += tuples * self._step_costs[0]
        stats.predicate_evaluations += evaluations

    def process_many(
        self,
        records: Sequence[Mapping[str, Any]],
        stream: str,
    ) -> List[Detection]:
        """Feed a whole recording tuple-at-a-time; return all detections."""
        detections: List[Detection] = []
        for record in records:
            detections.extend(self.process(record, stream))
        return detections

    def process_batch(
        self,
        records: Sequence[Mapping[str, Any]],
        stream: str,
        timestamps: Optional[Sequence[float]] = None,
        verdicts: Optional[Sequence[Optional[int]]] = None,
        plan: Optional[ChunkPlan] = None,
    ) -> List[Detection]:
        """Feed a chunk of tuples sharing one prune window.

        Expired runs are pruned once per partition, at the chunk's first
        tuple of that partition, instead of per tuple; ``within``
        constraints are still enforced exactly whenever a run advances.
        When the TTL can govern a run (some step is not covered by any
        constraint and ``run_ttl_seconds`` is set) pruning falls back to per
        tuple, and reaching the run cap mid-batch lazily evicts expired runs
        before suppressing a new one — so with monotone timestamps this
        produces the same detections as calling :meth:`process` per tuple
        (``tests/test_execution_modes.py`` asserts it at a binding cap).

        A partition whose verdicts, OR-ed over the chunk, miss :meth:`gate`
        and every bit its runs wait for (:meth:`wake_tables`) is passed over
        whole, and so is a single tuple that misses them, provided no prune
        is due on it: each is counted as :meth:`process` would count it.
        The other tuples are processed in arrival order; a tuple that raises
        ends the chunk, and what was passed over is counted all the same.

        Parameters
        ----------
        records:
            The chunk, in arrival order.
        stream:
            Stream all tuples of the chunk arrived on.
        timestamps:
            Optional pre-extracted event times, parallel to ``records``;
            defaults to each tuple's timestamp field.
        verdicts:
            Optional index masks, parallel to ``records`` (see
            :meth:`process`).
        plan:
            The chunk grouped by this matcher's partition field, with
            ``verdicts``; built here when absent.
        """
        self._released()
        stats = self._stats
        stats.tuples_processed += len(records)
        if not records or stream not in self._advance_order:
            return []
        if timestamps is None:
            timestamp_field = self.config.timestamp_field
            timestamps = [float(r.get(timestamp_field, 0.0)) for r in records]
        field = self._partition_field
        if plan is None:
            plan = ChunkPlan(records, field, verdicts)
        partitions = self._partitions
        gate = self.gate(stream)
        wake, costs, _ = self._wake_tables[stream]
        window = self._shortest_window
        # TTL expiry is not re-checked on advancement (unlike within
        # constraints), so under a TTL only per-tuple pruning keeps equivalence.
        prune_every_tuple = self._ttl is not None
        skipped = evaluations = 0
        visited: List[int] = []
        for key, (positions, mask) in plan.groups.items():
            part = partitions.get(key)
            if part is not None:
                timestamp = timestamps[positions[0]]
                if timestamp - part.oldest > window:
                    self._prune(part, timestamp)
                if (
                    mask is not None
                    and not mask & (gate | wake[part.occupied])
                    and not (
                        prune_every_tuple
                        and any(timestamps[p] - part.oldest > window for p in positions)
                    )
                ):
                    skipped += len(positions)
                    evaluations += len(positions) * costs[part.occupied]
                    if not part.count:
                        del partitions[key]
                    continue
            elif mask is not None and not mask & gate:
                skipped += len(positions)
                continue
            visited += positions
        order: Iterable[int] = range(plan.size)
        if len(visited) < plan.size:
            visited.sort()
            order = visited
        keys = plan.keys
        detections: List[Detection] = []
        try:
            for position in order:
                key = keys[position]
                part = partitions.get(key)
                timestamp = timestamps[position]
                mask = None if verdicts is None else verdicts[position]
                if part is not None:
                    if prune_every_tuple and timestamp - part.oldest > window:
                        self._prune(part, timestamp)
                    if mask is not None and not mask & (gate | wake[part.occupied]):
                        skipped += 1
                        evaluations += costs[part.occupied]
                        if not part.count:
                            del partitions[key]
                        continue
                elif mask is not None and not mask & gate:
                    skipped += 1
                    continue
                self._process_tuple(
                    records[position], stream, timestamp, key, part, detections, mask
                )
        finally:
            # Even when a tuple raises (see "Batched path").
            if stream == self._first_stream:
                stats.gate_rejections += skipped
                evaluations += skipped * self._step_costs[0]
            stats.predicate_evaluations += evaluations
        if plan.size < len(records):
            # The tuple the plan could not group raises here, on its lookup.
            record = records[plan.size]
            partitions.get(record.get(field) if field is not None else UNPARTITIONED)
        return detections

    # -- internals -----------------------------------------------------------------------

    def _new_partition(self, latest: float) -> _Partition:
        return _Partition(
            [[] for _ in range(self._length)], latest=latest, ordered=not math.isnan(latest)
        )

    def _process_tuple(
        self,
        record: Mapping[str, Any],
        stream: str,
        timestamp: float,
        key: Any,
        part: Optional[_Partition],
        detections: List[Detection],
        verdicts: Optional[int],
    ) -> None:
        """Advance buckets / start a run for one tuple; append its detections.

        ``part`` is the tuple's own partition (``None`` while it holds no
        runs); other players' runs are invisible to this tuple.  A step with
        a bit takes its verdict from ``verdicts``; without verdicts every
        bit reads as absent and each step runs its closure.
        """
        stats = self._stats
        length = self._length
        store_tuples = self.config.store_matched_tuples
        bits = self._no_bits if verdicts is None else self._step_bits
        completed: List[_Run] = []

        # One verdict per step: a rejected bucket stays put, an accepted one
        # moves whole (each run by at most one step — see _advance_order).
        if part is not None:
            if part.ordered:
                if timestamp >= part.latest:
                    part.latest = timestamp
                else:
                    part.ordered = False
            waiting = part.waiting
            for index in self._advance_order[stream]:
                bucket = waiting[index]
                if not bucket:
                    continue
                stats.predicate_evaluations += self._step_costs[index]
                bit = bits[index]
                if not (verdicts & bit if bit else self._step_predicates[index](record)):
                    continue
                waiting[index] = []
                # The within constraints ending here are each run's own.
                ending = self._constraints_ending[index]
                if ending:
                    if part.ordered:
                        expired = _expired(bucket, ending, timestamp)
                        del bucket[:expired]
                    else:
                        accepted = len(bucket)
                        for first, seconds in ending:
                            bucket = [
                                run
                                for run in bucket
                                if not timestamp - run.step_timestamps[first] > seconds
                            ]
                        expired = accepted - len(bucket)
                    if expired:
                        stats.runs_pruned += expired
                        part.count -= expired
                for run in bucket:
                    run.step_timestamps.append(timestamp)
                    if store_tuples:
                        run.matched.append(dict(record))
                stats.runs_advanced += len(bucket)
                if timestamp < part.oldest:
                    part.oldest = timestamp
                part.occupied &= ~(1 << index)
                if index + 1 == length:
                    completed = bucket
                    part.count -= len(bucket)
                else:
                    waiting[index + 1].extend(bucket)
                    if bucket:
                        part.occupied |= 2 << index

        # Possibly start a new run from this tuple.
        if stream == self._first_stream:
            stats.predicate_evaluations += self._step_costs[0]
            bit = bits[0]
            if not (verdicts & bit if bit else self._step_predicates[0](record)):
                stats.gate_rejections += 1
            elif length == 1:
                # A single-step match never occupies a run slot, so the
                # run cap must not suppress it.
                completed.append(self._new_run(record, timestamp))
            else:
                if part is None:
                    part = self._partitions[key] = self._new_partition(timestamp)
                if (
                    part.count >= self.config.max_active_runs
                    and not self._evict_expired(part, timestamp)
                ):
                    stats.runs_suppressed += 1
                else:
                    part.waiting[1].append(self._new_run(record, timestamp))
                    part.occupied |= 2
                    part.count += 1
                    if timestamp < part.oldest:
                        part.oldest = timestamp

        if completed:
            stats.runs_completed += len(completed)
            detections.extend(self._report(key, part, completed, timestamp))
        # Drop emptied partitions so the table only tracks live players.
        if part is not None and not part.count:
            self._partitions.pop(key, None)

    def _new_run(self, record: Mapping[str, Any], timestamp: float) -> _Run:
        run = _Run(
            start_timestamp=timestamp,
            step_timestamps=[timestamp],
            matched=[dict(record)] if self.config.store_matched_tuples else [],
            sequence_number=self._run_counter,
        )
        self._run_counter += 1
        self._stats.runs_started += 1
        return run

    def sweep(self, now: float) -> None:
        """Drop the partitions of players who stopped streaming.

        A partition is only ever pruned by its own tuples, so a player who
        leaves the scene mid-gesture would park runs (and stale progress
        feedback) forever.  The fan-out calls this every 512 tuples of each
        stream the query reads, at that stream's event time ``now``.  A
        partition survives if some run's newest timestamp lags ``now`` by
        at most ``partition_idle_seconds`` (a NaN is never recent; a NaN
        ``now`` reclaims nothing).  Unpartitioned matchers never sweep — the
        single table keeps the seed's lifetime rules.  ``release`` runs
        only when a partition is about to go.
        """
        idle = self.config.partition_idle_seconds
        if idle is None or self._partition_field is None or math.isnan(now):
            return
        stale = [key for key, part in self._partitions.items() if self._stale(part, now, idle)]
        if not stale:
            return
        self._released()
        for key in stale:
            reclaimed = self._partitions.pop(key).count
            self._stats.runs_pruned += reclaimed
            self._stats.runs_evicted += reclaimed

    @staticmethod
    def _stale(part: _Partition, now: float, idle: float) -> bool:
        """Whether no run of ``part`` holds a newest timestamp within
        ``idle`` of ``now``.  An ordered partition holds no NaN, so
        ``oldest`` bounds every timestamp of it: one within ``idle`` of it
        is not read at all, and otherwise each bucket's last run holds its
        bucket's newest timestamp.  Any other partition reads every run."""
        if part.ordered:
            return now - part.oldest > idle and not any(
                now - bucket[-1].step_timestamps[-1] <= idle for bucket in part.waiting if bucket
            )
        return not any(
            now - run.step_timestamps[-1] <= idle for bucket in part.waiting for run in bucket
        )

    def _evict_expired(self, part: _Partition, timestamp: float) -> bool:
        """At the run cap, prune expired runs; return whether a slot freed up.

        The batched path prunes once per chunk, so expired runs may still
        occupy slots mid-batch; evicting them lazily here keeps cap
        behaviour identical to the per-tuple path (which prunes before
        every tuple).  On the per-tuple path this re-prune finds nothing,
        except a run this very tuple moved from a step a ``within`` covers
        to one only the TTL governs.
        """
        self._prune(part, timestamp)
        return part.count < self.config.max_active_runs

    def _prune(self, part: _Partition, timestamp: float) -> None:
        """Drop one partition's runs that can no longer complete in time.

        A run inside a ``within`` constraint window is pruned by that
        constraint alone; the TTL fallback applies only while a run sits at
        a step no constraint covers (see :class:`MatcherConfig`), so
        long-window patterns are never cut short while runs at uncovered
        steps still cannot accumulate forever.  Pruning happens with the
        partition's own event time, never another player's, so interleaving
        cannot change when a run expires.

        Returns without looking at a run while nothing can have expired
        (``oldest`` bound, exact — see "Fast path" in the module docstring),
        and cuts an expired prefix off each bucket of an ordered partition
        ("Ordered partitions"); any other partition takes
        :meth:`_prune_scan`.  An emptied partition is left for
        ``_process_tuple`` to drop: pruning is always followed by processing
        a tuple of the same partition.
        """
        if timestamp - part.oldest <= self._shortest_window:
            return
        if not part.ordered:
            self._prune_scan(part, timestamp)
            return
        waiting = part.waiting
        oldest = math.inf
        occupied = 0
        for index in range(1, self._length):
            bucket = waiting[index]
            if not bucket:
                continue
            expired = _expired(bucket, self._expiring[index], timestamp)
            if expired:
                del bucket[:expired]
                self._stats.runs_pruned += expired
                part.count -= expired
            if bucket:
                start = bucket[0].step_timestamps[0]
                if start < oldest:
                    oldest = start
                occupied |= 1 << index
        part.oldest = oldest
        part.occupied = occupied

    def _prune_scan(self, part: _Partition, timestamp: float) -> None:
        """:meth:`_prune` for a partition that is not ordered: checks every
        run and takes ``oldest`` over every timestamp."""
        ttl = self._ttl
        waiting = part.waiting
        oldest = math.inf
        occupied = 0
        for index in range(1, self._length):
            bucket = waiting[index]
            if not bucket:
                continue
            kept = bucket
            constraints = self._constraints_covering[index - 1]
            for first, seconds in constraints:
                kept = [
                    run for run in kept if not timestamp - run.step_timestamps[first] > seconds
                ]
            if not constraints and ttl is not None:
                kept = [run for run in bucket if not timestamp - run.start_timestamp > ttl]
            if len(kept) != len(bucket):
                self._stats.runs_pruned += len(bucket) - len(kept)
                part.count -= len(bucket) - len(kept)
                waiting[index] = kept
            if kept:
                oldest = min(oldest, min(map(min, [run.step_timestamps for run in kept])))
                occupied |= 1 << index
        part.oldest = oldest
        part.occupied = occupied

    def _report(
        self,
        key: Any,
        part: Optional[_Partition],
        completed: List[_Run],
        timestamp: float,
    ) -> List[Detection]:
        completed.sort(key=lambda run: run.sequence_number)
        if self.pattern.select is SelectPolicy.FIRST:
            selected = [completed[0]]
        elif self.pattern.select is SelectPolicy.LAST:
            selected = [completed[-1]]
        else:
            selected = completed

        partition = None if key is UNPARTITIONED else key
        detections = [
            Detection(
                output=self.output,
                query_name=self.query_name,
                timestamp=timestamp,
                start_timestamp=run.start_timestamp,
                step_timestamps=tuple(run.step_timestamps),
                matched=tuple(run.matched) if self.config.store_matched_tuples else None,
                partition=partition,
            )
            for run in selected
        ]
        self._stats.detections += len(detections)

        if part is not None and self.pattern.consume is ConsumePolicy.ALL:
            # Consumption is per player: only the completing partition's
            # partial matches are discarded.
            part.clear()
        return detections
