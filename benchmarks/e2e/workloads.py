"""The three workloads that drive a :class:`~repro.api.GestureSession` directly.

Every workload runs the same five phases over its own deployment shape, so
every end-to-end metric exists on every workload:

========== ==========================================================================
set-up     start the session, learn and deploy the vocabulary — three times
throughput closed loop: ``feed()`` a slice of the tile, drain, repeat
latency    one sensor frame at a time, stamped at hand-over, at ack and in ``on_any``
learn      ``session.learn(..., deploy=True)`` of each gesture from 3, 4 and 5 samples
recover    a journalled twin is fed, snapshotted, fed again, abandoned and recovered
========== ==========================================================================

and then checks its detections against the reference path (``check.py``).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import shutil
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.api import GestureSession, SessionConfig
from repro.persistence import DurabilityConfig

from . import check, layers
from .harness import Bench
from .inputs import GESTURE_NAMES, LIGHT_VOCABULARY, SETUP_SAMPLES, Frame, Inputs, generate, transformed
from .measure import perf

#: How often set-up is repeated (its time is the positional median).
SETUP_REPEATS = 3

#: Sample counts the learn phase cycles through, one per segment.
LEARN_SAMPLE_COUNTS = (3, 4, 5)

#: Tick-at-a-time latency phases: sensor ticks per slice, slices per segment.
TICKS_PER_SLICE = 40
SLICES_PER_SEGMENT = 5

#: The paced diagnostic of a traced run: 60 sensor ticks a second, a reference
#: reading every 12 ticks, and this share of ``--seconds``.
PACED_TICK_S = 1.0 / 60.0
PACED_TICKS_PER_SLICE = 12
PACED_SHARE = 0.12


def chunks(frames: Sequence[Frame], count: int) -> Iterator[Sequence[Frame]]:
    """``frames`` cut into ``count`` nearly equal consecutive parts."""
    size = -(-len(frames) // count)
    for start in range(0, len(frames), size):
        yield frames[start : start + size]


def wait_until(due: float) -> None:
    """Sleep most of the way to ``due``, then spin: sleep alone overshoots by ~0.1 ms."""
    while True:
        remaining = due - perf()
        if remaining <= 0:
            return
        if remaining > 0.001:
            time.sleep(remaining - 0.0005)


class SessionWorkload:
    """One deployment shape of ``GestureSession``; subclasses set the shape."""

    name = ""
    why = ""
    players = 8
    #: A segment of a closed-loop phase feeds this many tiles, cut into this
    #: many slices — sized so a slice is 40-200 ms of work on every shape.
    segment_tiles = 1
    segment_slices = 4
    #: Most segments a closed-loop phase runs (``None`` = as many as fit).
    max_segments: Optional[int] = None
    #: Shares of ``--seconds`` per phase; the rest is slack for set-up and the check.
    shares = {"throughput": 0.30, "latency": 0.30, "learn": 0.12, "recover": 0.18}
    #: The latency phase hands the session one frame at a time (a live
    #: sensor's ``feed_frame()``); shapes that answer asynchronously hand over
    #: one *tick* — a frame of every player — and wait for it to come back.
    by_tick = False
    #: Feed already-transformed tuples through the two hand-written queries.
    light = False
    #: Tiles the recovery has to replay after its snapshot.
    recover_tail_tiles = 2
    #: Phases whose time does not follow the reference kernel like pure
    #: Python does (``measure.py``); calibrated with ``calibrate.py``.
    sensitivity: Dict[str, float] = {}
    #: The work runs in worker processes, one pinned to each core: read the
    #: reference kernel on every core (``measure.RefClock.every_core``).
    worker_processes = False

    def __init__(self, bench: Bench, seed: int) -> None:
        self.bench = bench
        bench.sensitivity = dict(self.sensitivity, untraced=self.sensitivity.get("throughput", 0.9))
        bench.ref.every_core = self.worker_processes
        self.seed = seed
        self.inputs: Inputs
        self.raw_inputs: Inputs
        self.session: Optional[GestureSession] = None
        self.tile_index = 0
        self.captured: Optional[check.Canonical] = None
        self.checked_tiles = 0
        #: The ``on_any`` handler appends (player, ts, stamp) here while a
        #: latency slice is open.
        self._events: Optional[List[Tuple[Any, float, float]]] = None
        self.extra: Dict[str, float] = {}
        #: What a traced run reads off the program's own counters (``layers.py``).
        self.probe: Dict[str, Any] = {}

    # -- shape -------------------------------------------------------------------------

    def session_config(self) -> SessionConfig:
        raise NotImplementedError

    def durability(self) -> Optional[DurabilityConfig]:
        """Journal configuration of the live session (``None`` = in memory)."""
        return None

    @property
    def stream(self) -> Optional[str]:
        return "kinect_t" if self.light else None

    # -- the run -----------------------------------------------------------------------

    def run(self) -> None:
        try:
            self.generate_inputs()
            self.setup()
            self.throughput()
            self.latency()
            self.learn()
            self.recover()
            # Before the check: its reference session is the harness's, not the program's.
            self.extra["peak_rss_mb"] = self.bench.cpu.peak_rss_mb()
            if self.bench.tracer is not None:
                with self.bench.tracer.paused():
                    self.trace_extras()
            self.check()
        finally:
            if self.session is not None:
                self.session.close()

    def generate_inputs(self) -> None:
        phase = self.bench.phase("inputs")
        self.bench.segment(phase)
        with self.bench.slice(phase) as piece:
            self.raw_inputs = generate(self.seed, self.players)
            self.inputs = self.raw_inputs
            if self.light:
                self.inputs = dataclasses.replace(
                    self.raw_inputs, tile=transformed(self.raw_inputs.tile)
                )
            piece.units = 1

    def deploy_vocabulary(self, session: GestureSession) -> None:
        """Learn the vocabulary and deploy what this workload detects, one slice each.

        The light shape learns too — into its on-disk gesture database, as an
        operator would — but deploys the two hand-written queries.
        """
        phase = self.bench.phase("setup")
        for name in GESTURE_NAMES:
            with self.bench.slice(phase) as piece:
                session.learn(
                    name,
                    self.raw_inputs.samples[name][:SETUP_SAMPLES],
                    joints=self.raw_inputs.joints[name],
                    deploy=not self.light,
                )
                piece.units = 1
        if self.light:
            with self.bench.slice(phase) as piece:
                session.deploy_vocabulary(dict(LIGHT_VOCABULARY))
                piece.units = 1

    def setup(self) -> None:
        """Program set-up, ``SETUP_REPEATS`` times; the last session stays live.

        Two phases, because they follow the machine differently: ``start``
        (session, journal, worker processes up and answering) and ``setup``
        (learn and deploy); ``setup_s`` is their sum.
        """
        start, phase = self.bench.phase("start"), self.bench.phase("setup")
        for repeat in range(SETUP_REPEATS):
            self.bench.segment(start)
            with self.bench.slice(start) as piece:
                session = GestureSession(self.session_config(), durability=self.durability())
                self.session = session  # from here on ``run`` closes it, whatever happens
                session.start()
                session.drain()  # returns once every shard worker answers
                piece.units = 1
            self.bench.segment(phase)
            self.deploy_vocabulary(session)
            if repeat < SETUP_REPEATS - 1:
                session.close()
                self.session = None
        assert self.session is not None
        self.session.on_any(self._on_event)
        # Shard workers, if this shape has any: their CPU and memory count,
        # and each is pinned to a core of its own (the parent floats).  Left
        # to the scheduler, three busy processes on two cores migrate, and
        # the same code read 5 % apart from run to run instead of 2 %.
        workers = sorted(child.pid for child in multiprocessing.active_children())
        cores = sorted(os.sched_getaffinity(0))
        for index, pid in enumerate(workers):
            os.sched_setaffinity(pid, {cores[index % len(cores)]})
        self.bench.cpu.pids = workers

    def _on_event(self, event: Any) -> None:
        events = self._events
        if events is not None:
            events.append((event.partition, event.timestamp, perf()))

    def next_tile(self) -> List[Frame]:
        tile = self.inputs.shifted(self.tile_index)
        self.tile_index += 1
        return tile

    def next_segment(self) -> List[Frame]:
        """The frames of the next closed-loop segment (``segment_tiles`` tiles)."""
        return [frame for _ in range(self.segment_tiles) for frame in self.next_tile()]

    def repeats(self, share: float) -> Iterator[int]:
        """Segments of a closed-loop phase: ``share`` of the run, capped by ``max_segments``."""
        for index in self.bench.repeats(share):
            if self.max_segments is not None and index >= self.max_segments:
                return
            yield index

    # -- throughput --------------------------------------------------------------------

    def throughput(self) -> None:
        """Closed loop.  A traced run spends a third of the phase untraced
        first (the tracing overhead is the ratio of the two rates) and reads
        the program's counters around the traced part."""
        tracer = self.bench.tracer
        share = self.shares["throughput"]
        if tracer is None:
            self._throughput("throughput", share)
            return
        with tracer.paused():
            self._throughput("untraced", share / 3)
        before = self.read_counters()
        self._throughput("throughput", share * 2 / 3)
        self.note_counters(before, self.read_counters())

    def read_counters(self) -> Dict[str, Any]:
        session = self.session
        assert session is not None
        if session.runtime is not None:
            session.runtime.collect_telemetry()
        return {
            "stats": layers.stat_totals(session.query_stats()),
            "metrics": session.metrics.snapshot() if session.metrics is not None else {},
        }

    def note_counters(self, before: Dict[str, Any], after: Dict[str, Any]) -> None:
        assert self.session is not None
        phase = self.bench.phases["throughput"]
        self.probe.update(
            tuples=phase.units,
            wall_s=phase.wall_s,
            shards=self.session.config.shards if self.session.runtime is not None else 0,
            stats={key: after["stats"][key] - before["stats"][key] for key in after["stats"]},
            metrics_before=before["metrics"],
            metrics_after=after["metrics"],
        )

    def _throughput(self, name: str, share: float) -> None:
        bench, session = self.bench, self.session
        assert session is not None
        phase = bench.phase(name)
        probing = bench.tracer is not None and name == "throughput"
        for _ in self.repeats(share):
            if self.captured is not None:
                # Detections would otherwise pile up for as long as the run
                # lasts, and peak memory would measure --seconds.
                session.clear()
            frames = self.next_segment()
            bench.segment(phase)
            for part in chunks(frames, self.segment_slices):
                with bench.slice(phase) as piece:
                    session.feed(part, stream=self.stream)
                    session.drain()
                    piece.units = len(part)
                if probing:
                    self.probe["active_runs_peak"] = max(
                        self.probe.get("active_runs_peak", 0),
                        sum(session.feedback().active_runs.values()),
                    )
            bench.count(len(frames))
            if self.captured is None and self.tile_index >= check.check_tiles(self.inputs):
                self.capture()
        if self.captured is None:
            self.capture()

    def capture(self) -> None:
        """Keep the workload's own detections of the tiles fed so far for the check."""
        assert self.session is not None
        self.checked_tiles = self.tile_index
        phase = self.bench.phase("merge")
        self.bench.segment(phase)
        with self.bench.slice(phase) as piece:
            detections = self.session.detections()
            piece.units = len(detections)
        self.captured = check.canonical(detection.to_state() for detection in detections)

    # -- latency -----------------------------------------------------------------------

    def latency(self) -> None:
        if not self.by_tick:
            self._latency_by_frame()
            return
        self._latency_by_tick()
        if self.bench.tracer is not None:
            self._paced()

    def _latency_by_frame(self) -> None:
        """Per-frame ``feed_frame()``: the path a live sensor uses, back to back."""
        bench, session = self.bench, self.session
        assert session is not None
        phase = bench.phase("latency")
        stream = self.stream
        for _ in self.repeats(self.shares["latency"]):
            frames = self.next_segment()
            session.clear()
            bench.segment(phase)
            for part in chunks(frames, self.segment_slices):
                acks: List[float] = []
                detects: List[float] = []
                events = self._events = []
                with bench.slice(phase) as piece:
                    for frame in part:
                        handed_over = perf()
                        session.feed_frame(frame, stream=stream)
                        acks.append(perf() - handed_over)
                        if events:
                            detects.extend(stamp - handed_over for _, _, stamp in events)
                            events.clear()
                    piece.units = len(part)
                    piece.samples = {"ack": acks, "detect": detects}
                self._events = None
            bench.count(len(frames))

    def _ticks(self) -> Iterator[Sequence[Frame]]:
        """The stream as sensor ticks: one frame of every player per tick."""
        while True:
            tile = self.next_tile()
            for start in range(0, len(tile), self.players):
                yield tile[start : start + self.players]

    def _latency_by_tick(self) -> None:
        """Closed loop, one sensor tick in flight: hand over, wait until it is through.

        Nothing queues behind anything, so this is service time — what an
        open loop far below saturation measures too, without the idle
        wake-ups between ticks, which on this box do not repeat (paced at
        60 ticks/s the median moved 25 % between runs of unchanged code;
        the paced figures stay available as diagnostics of a traced run).
        """
        bench, session = self.bench, self.session
        assert session is not None
        phase = bench.phase("latency")
        ticks = self._ticks()
        for _ in bench.repeats(self.shares["latency"]):
            session.clear()
            bench.segment(phase)
            for _ in range(SLICES_PER_SEGMENT):
                batch = [next(ticks) for _ in range(TICKS_PER_SLICE)]
                acks: List[float] = []
                detects: List[float] = []
                events = self._events = []
                with bench.slice(phase) as piece:
                    for tick in batch:
                        handed_over = perf()
                        session.feed(tick)
                        acks.append(perf() - handed_over)
                        session.drain()
                        if events:
                            detects.extend(stamp - handed_over for _, _, stamp in events)
                            events.clear()
                    piece.units = sum(len(tick) for tick in batch)
                    piece.samples = {"ack": acks, "detect": detects}
                self._events = None
                bench.count(piece.units)

    def _paced(self) -> None:
        """Open loop (traced runs only): a tick is due every 1/60 s whatever the session does.

        Latencies run from the tick's *due* time, so a stall delays — and is
        charged to — every tick behind it; how late the generator itself ran
        is ``loadgen.lag_*``.  Raw milliseconds: the phase idles ~94 % of the
        time and does not follow the reference kernel.
        """
        bench, session = self.bench, self.session
        assert session is not None
        phase = bench.phase("paced")
        ticks = self._ticks()
        for _ in bench.repeats(PACED_SHARE):
            session.clear()
            bench.segment(phase)
            for _ in range(SLICES_PER_SEGMENT):
                batch = [next(ticks) for _ in range(PACED_TICKS_PER_SLICE)]
                due_of: Dict[Tuple[Any, float], float] = {}
                acks: List[float] = []
                lags: List[float] = []
                events = self._events = []
                with bench.slice(phase) as piece:
                    first_due = perf() + 0.002
                    for number, tick in enumerate(batch):
                        due = first_due + number * PACED_TICK_S
                        wait_until(due)
                        lags.append(perf() - due)
                        for frame in tick:
                            due_of[(frame["player"], frame["ts"])] = due
                        session.feed(tick)
                        acks.append(perf() - due)
                    session.drain()
                    piece.units = sum(len(tick) for tick in batch)
                    piece.samples = {
                        "ack": acks,
                        "lag": lags,
                        "detect": [stamp - due_of[(player, ts)] for player, ts, stamp in events],
                    }
                self._events = None
                bench.count(piece.units)

    # -- learn -------------------------------------------------------------------------

    def learn(self) -> None:
        """Learn and deploy every gesture into the live session, then retire it."""
        bench, session = self.bench, self.session
        assert session is not None
        phase = bench.phase("learn")
        for index in bench.repeats(self.shares["learn"]):
            bench.segment(phase)
            choice = index % len(LEARN_SAMPLE_COUNTS)
            samples = LEARN_SAMPLE_COUNTS[choice]
            for number, name in enumerate(GESTURE_NAMES):
                scratch = f"{name}.bench"
                with bench.slice(phase, position=choice * len(GESTURE_NAMES) + number) as piece:
                    session.learn(
                        scratch,
                        self.raw_inputs.samples[name][:samples],
                        joints=self.raw_inputs.joints[name],
                        deploy=True,
                    )
                    session.drain()
                    piece.units = 1
                session.undeploy(scratch)
            bench.count(len(GESTURE_NAMES))

    # -- recover -----------------------------------------------------------------------

    def recover(self) -> None:
        """Crash and recover a journalled twin of the live session."""
        bench = self.bench
        phase = bench.phase("recover")
        config = self.session_config()
        home = bench.directory("twin")
        twin = GestureSession(config, durability=DurabilityConfig(home, fsync="rotate"))
        try:
            twin.start()
            if self.light:
                twin.deploy_vocabulary(dict(LIGHT_VOCABULARY))
            else:
                check.learn_vocabulary(twin, self.inputs)
            twin.feed(self.inputs.shifted(0), stream=self.stream)
            snapshots = bench.phase("snapshot")
            bench.segment(snapshots)
            with bench.slice(snapshots) as piece:
                twin.snapshot()
                piece.units = 1
            self.probe["snapshot_bytes"] = sum(
                path.stat().st_size for path in home.rglob("snapshot-*.json")
            )
            for index in range(1, 1 + self.recover_tail_tiles):
                twin.feed(self.inputs.shifted(index), stream=self.stream)
            twin.drain()
            assert twin.durability is not None
            twin.durability.log.flush(sync=False)
            expected = check.canonical(d.to_state() for d in twin.detections())
            for _ in bench.repeats(self.shares["recover"]):
                # The image of a crash: the directory as it is while the
                # twin is still open and unsealed.
                image = bench.directory("crash")
                shutil.copytree(home, image, dirs_exist_ok=True)
                bench.segment(phase)
                with bench.slice(phase) as piece:
                    recovered = GestureSession.recover(
                        DurabilityConfig(image, fsync="rotate"), config=config
                    )
                    piece.units = 1
                try:
                    actual = check.canonical(d.to_state() for d in recovered.detections())
                    assert recovered.last_recovery is not None
                    self.probe["replayed_tuples"] = recovered.last_recovery.replayed_tuples
                    self.probe["replayed_entries"] = recovered.last_recovery.replayed_entries
                finally:
                    recovered.close()
                shutil.rmtree(image)
                wrong = check.mismatched_players(expected, actual)
                bench.count(1, 1 if wrong else 0)
                if wrong:
                    bench.error(f"recovered detections differ for players {wrong}")
        finally:
            twin.close()

    # -- traced runs only ---------------------------------------------------------------

    def trace_extras(self) -> None:
        """Side measurements of a traced run that belong to one shape (untraced)."""

    def compare_rates(self, configs: Dict[str, SessionConfig], repeats: int = 3) -> Dict[str, float]:
        """Closed-loop tuples/s of the tile on fresh sessions of each config, interleaved."""
        sessions = {label: GestureSession(config) for label, config in configs.items()}
        try:
            for session in sessions.values():
                check.learn_vocabulary(session, self.raw_inputs)
            for index in range(repeats):
                tile = self.raw_inputs.shifted(index)
                for label, session in sessions.items():
                    phase = self.bench.phase(f"compare.{label}")
                    self.bench.segment(phase)
                    with self.bench.slice(phase) as piece:
                        session.feed(tile)
                        session.drain()
                        piece.units = len(tile)
                    session.clear()
            return {label: self.bench.phases[f"compare.{label}"].rate() for label in sessions}
        finally:
            for session in sessions.values():
                session.close()

    # -- check -------------------------------------------------------------------------

    def check(self) -> None:
        assert self.captured is not None
        expected = check.reference(self.inputs, self.checked_tiles, light=self.light)
        if not expected:
            self.bench.error("the reference detected nothing; the comparison is vacuous")
        wrong = check.mismatched_players(expected, self.captured)
        self.bench.count(0, len(wrong))
        if wrong:
            self.bench.error(f"detections differ from the reference for players {wrong}")
        scored = expected if not self.light else check.reference(self.raw_inputs, 1)
        self.extra["macro_f1"] = check.macro_f1(scored, self.raw_inputs)


class InlineVocab8(SessionWorkload):
    name = "inline_vocab8"
    why = (
        "one inline session, raw frames, 8 players, learned vocabulary: matcher and transform "
        "do ~97 % of the work, runtime/gateway/persistence none; batched vs per-tuple path"
    )
    players = 8

    def session_config(self) -> SessionConfig:
        return SessionConfig(batch_size=64)

    def trace_extras(self) -> None:
        """What the telemetry layer costs: the same tile with it on and off."""
        rates = self.compare_rates(
            {
                "telemetry_on": SessionConfig(batch_size=64),
                "telemetry_off": SessionConfig(batch_size=64, telemetry=False),
            },
            repeats=4,
        )
        self.probe["telemetry_us_per_tuple"] = (
            1.0 / rates["telemetry_on"] - 1.0 / rates["telemetry_off"]
        ) * 1e6


class ShardedProc2(SessionWorkload):
    name = "sharded_proc2"
    why = (
        "2 process shards, 16 players: router, queues, pickle transport, credit backpressure "
        "and result merge are on the path and absent inline; latency of one 16-tuple sensor tick"
    )
    players = 16
    segment_slices = 2
    by_tick = True
    # A recovery is mostly two worker processes starting; one tile of tail is plenty.
    recover_tail_tiles = 1
    worker_processes = True
    # Against the slowest core's reading; the paced diagnostic idles 94 % of the time.
    sensitivity = {
        "throughput": 0.85,
        "latency": 0.7,
        "start": 0.7,
        "recover": 0.7,
        "setup": 0.8,
        "paced": 0.0,
    }

    def session_config(self) -> SessionConfig:
        return SessionConfig(shards=2, shard_executor="process", batch_size=64)

    def trace_extras(self) -> None:
        assert self.session is not None
        counts = self.session.runtime.router.counts(self.inputs.tile)
        self.probe["router_skew"] = max(counts) / (sum(counts) / len(counts))
        layers.time_pickle(self)
        # Thread shards against no shards at all, same tiles: what the
        # runtime costs when it cannot buy parallelism (ROADMAP 3a).
        rates = self.compare_rates(
            {
                "thread2": SessionConfig(shards=2, shard_executor="thread", batch_size=64),
                "inline": SessionConfig(batch_size=64),
            }
        )
        self.probe["thread2_vs_inline_ratio"] = rates["thread2"] / rates["inline"]


class DurableLifecycle(SessionWorkload):
    name = "durable_lifecycle"
    why = (
        "journalled session fed pre-transformed tuples through 2 light queries: persistence and "
        "serialization dominate, transform is bypassed, matcher nearly idle; learn and recover"
    )
    players = 8
    light = True
    # ~115k tuples/s: eight tiles a segment make 35 ms slices, and ten segments
    # of each closed-loop phase keep the journal under ~300 MB of disk.
    segment_tiles = 8
    max_segments = 10
    shares = {"throughput": 0.15, "latency": 0.15, "learn": 0.30, "recover": 0.30}
    recover_tail_tiles = 12
    # JSON encoding and file writes slow down less than bytecode does.
    sensitivity = {"throughput": 0.62, "latency": 0.65, "recover": 0.8, "start": 0.45}

    def session_config(self) -> SessionConfig:
        return SessionConfig(
            batch_size=64, database_path=self.bench.directory("gestures") / "gestures.db"
        )

    def durability(self) -> Optional[DurabilityConfig]:
        return DurabilityConfig(self.bench.directory("journal"), fsync="rotate")
