"""``gateway_ws2``: sensor frame in over a websocket, detection pushed back out.

One :class:`~repro.gateway.GatewayServer` on loopback shares an asyncio loop
with two :class:`~repro.gateway.GatewayClient` connections, one per tenant,
both subscribed to detection pushes; each tenant's session is fed the same
8-player stream of raw frames against the learned vocabulary.  The same five
phases as the session workloads, through the wire:

========== ==========================================================================
set-up     start the server, connect and attach both clients, learn the vocabulary
           in an operator session, deploy its query texts over the wire
throughput closed loop: 64-tuple frames, 4 in flight per client
latency    one 8-tuple frame per client in flight: sent -> ack, sent -> ``event``
           frame parsed at the client (a traced run adds the open loop at
           60 frames/s per client, ~20 % of saturation, timed from due time)
learn      learn in the operator session, ``deploy`` the text over the wire
recover    the gateway keeps no journal: a replacement is started, the clients
           re-attach, redeploy and re-send the last tiles
========== ==========================================================================
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api import GestureSession, SessionConfig
from repro.gateway import GatewayClient, GatewayConfig, GatewayServer, TenantConfig

from . import check, layers
from .harness import Bench
from .inputs import GESTURE_NAMES, SETUP_SAMPLES, Frame
from .measure import perf
from .workloads import (
    LEARN_SAMPLE_COUNTS,
    SETUP_REPEATS,
    PACED_SHARE,
    PACED_TICK_S,
    PACED_TICKS_PER_SLICE,
    SLICES_PER_SEGMENT,
    SessionWorkload,
    chunks,
)

TENANTS = ("tenant-a", "tenant-b")
FRAME_TUPLES = 64
IN_FLIGHT = 4
#: A tick's round trip is ~6 ms here, so 20 of them make a ~0.12 s slice.
GATEWAY_TICKS_PER_SLICE = 20


class StampedQueue(asyncio.Queue):
    """``GatewayClient.events`` that records when each ``event`` frame was parsed."""

    def put_nowait(self, item: Any) -> None:
        super().put_nowait((perf(), item))


class Stack:
    """A started server with one attached, subscribed client per tenant."""

    def __init__(self) -> None:
        self.server = GatewayServer(
            GatewayConfig(
                port=0,
                default_tenant=TenantConfig(
                    session=SessionConfig(batch_size=FRAME_TUPLES),
                    policy="block",
                    pending_capacity=8192,
                ),
            )
        )
        self.clients: List[GatewayClient] = []

    async def start(self) -> "Stack":
        await self.server.start()
        for tenant in TENANTS:
            # Reading a tenant's detections back for the check is one large message.
            client = await GatewayClient.connect(
                "127.0.0.1", self.server.port, max_message_bytes=1 << 26
            )
            client.events = StampedQueue()
            self.clients.append(client)
            await client.hello(tenant, subscribe=True)
        return self

    async def deploy(self, manifest: Dict[str, str]) -> None:
        for client in self.clients:
            await client.deploy_vocabulary(manifest)

    async def drain(self) -> None:
        await asyncio.gather(*(client.drain() for client in self.clients))

    async def call(self, function) -> List[Any]:
        """Run ``function(session)`` on every tenant's feed thread, behind its queue."""
        return list(
            await asyncio.gather(
                *(self.server.tenants[tenant].control("call", function) for tenant in TENANTS)
            )
        )

    def pushed_events(self) -> List[Tuple[float, Dict[str, Any]]]:
        """Every (arrival stamp, ``event`` frame) pushed since the last call."""
        events = []
        for client in self.clients:
            while not client.events.empty():
                events.append(client.events.get_nowait())
        return events

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        await self.server.close()


async def send_closed_loop(client: GatewayClient, frames: Sequence[Sequence[Frame]]) -> int:
    """Send ``frames`` with at most ``IN_FLIGHT`` unacknowledged; tuples accepted."""
    accepted = 0
    pending: set = set()
    for frame in frames:
        if len(pending) >= IN_FLIGHT:
            done, pending = await asyncio.wait(pending, return_when=asyncio.FIRST_COMPLETED)
            accepted += sum(future.result()["accepted"] for future in done)
        pending.add(asyncio.ensure_future(client.send_tuples(frame)))
    return accepted + sum(ack["accepted"] for ack in await asyncio.gather(*pending))


async def send_timed(
    client: GatewayClient, tick: Sequence[Frame], since: float, acks: List[float]
) -> int:
    """Send one frame, note how long after ``since`` its ack came; tuples refused."""
    ack = await client.send_tuples(tick)
    acks.append(perf() - since)
    return len(tick) - ack["accepted"]


class GatewayWs2(SessionWorkload):
    name = "gateway_ws2"
    why = (
        "server + 2 websocket clients (one tenant each, 8 players): ws codec, JSON, admission, "
        "tenant queue hop and event push are >50 % of the work; frame in -> detection pushed out"
    )
    players = 8
    # Re-sending a tile through the wire is ~0.4 s per tenant: one is enough.
    recover_tail_tiles = 1
    # JSON, sockets and the asyncio loop are C and syscalls.
    sensitivity = {"throughput": 0.7, "recover": 0.7, "latency": 0.7, "paced": 0.0}

    def __init__(self, bench: Bench, seed: int) -> None:
        super().__init__(bench, seed)
        self.stack: Optional[Stack] = None
        #: Where an operator learns gestures before deploying their text.
        self.operator = GestureSession(SessionConfig())

    def run(self) -> None:
        asyncio.run(self._run())

    async def _run(self) -> None:
        try:
            self.generate_inputs()
            await self._setup()
            await self._throughput()
            await self._latency()
            await self._learn()
            await self._recover()
            self.extra["peak_rss_mb"] = self.bench.cpu.peak_rss_mb()
            self.extra.update(self.stack_metrics())
            self.check()
        finally:
            if self.stack is not None:
                await self.stack.close()
            self.operator.close()

    def stack_metrics(self) -> Dict[str, float]:
        assert self.stack is not None
        edge = self.stack.server.metrics.snapshot()
        return {
            "gateway.loop_lag_max_ms": edge["loop_lag_max_seconds"] * 1e3,
            "gateway.dropped_ratio": edge["tuples_dropped"] / max(1, edge["tuples_in"]),
        }

    def learn_text(self, name: str, gesture: str, samples: int) -> str:
        """Learn ``gesture`` in the operator session; the generated query's text."""
        description = self.operator.learn(
            name,
            self.inputs.samples[gesture][:samples],
            joints=self.inputs.joints[gesture],
        )
        return self.operator.detector.generator.generate(description).to_query()

    # -- set-up ------------------------------------------------------------------------

    async def _setup(self) -> None:
        bench = self.bench
        start, phase = bench.phase("start"), bench.phase("setup")
        for repeat in range(SETUP_REPEATS):
            bench.segment(start)
            stack = self.stack = Stack()  # owned before it starts: closed on every path
            with bench.slice(start) as piece:
                await stack.start()
                piece.units = 1
            bench.segment(phase)
            manifest = {}
            for name in GESTURE_NAMES:
                with bench.slice(phase) as piece:
                    manifest[name] = self.learn_text(name, name, SETUP_SAMPLES)
                    piece.units = 1
            with bench.slice(phase) as piece:
                await stack.deploy(manifest)
                piece.units = 1
            if repeat < SETUP_REPEATS - 1:
                await stack.close()
                self.stack = None
        self.manifest = manifest

    # -- throughput --------------------------------------------------------------------

    async def _throughput(self) -> None:
        tracer = self.bench.tracer
        share = self.shares["throughput"]
        if tracer is None:
            await self._closed_loop("throughput", share)
            return
        with tracer.paused():
            await self._closed_loop("untraced", share / 3)
        before = await self._read_counters()
        await self._closed_loop("throughput", share * 2 / 3)
        after = await self._read_counters()
        phase = self.bench.phases["throughput"]
        self.probe.update(
            tuples=phase.units,
            wall_s=phase.wall_s,
            stats={key: after[key] - before[key] for key in after},
        )

    async def _read_counters(self) -> Dict[str, int]:
        """Matcher counters summed over both tenants' sessions."""
        assert self.stack is not None
        per_tenant = await self.stack.call(
            lambda session: layers.stat_totals(session.query_stats())
        )
        return {key: sum(stats[key] for stats in per_tenant) for key in per_tenant[0]}

    async def _closed_loop(self, name: str, share: float) -> None:
        bench, stack = self.bench, self.stack
        assert stack is not None
        phase = bench.phase(name)
        probing = bench.tracer is not None and name == "throughput"
        for _ in self.repeats(share):
            if self.captured is not None:
                await stack.call(lambda session: session.clear())
            frames_of_segment = self.next_segment()
            bench.segment(phase)
            for part in chunks(frames_of_segment, self.segment_slices):
                frames = [part[start : start + FRAME_TUPLES] for start in range(0, len(part), FRAME_TUPLES)]
                with bench.slice(phase) as piece:
                    results = await asyncio.gather(
                        *(send_closed_loop(client, frames) for client in stack.clients)
                    )
                    await stack.drain()
                    piece.units = len(part) * len(TENANTS)
                stack.pushed_events()  # not timed here; do not let them pile up
                if probing:
                    active = await stack.call(
                        lambda session: sum(session.feedback().active_runs.values())
                    )
                    self.probe["active_runs_peak"] = max(
                        self.probe.get("active_runs_peak", 0), sum(active)
                    )
                accepted = sum(results)
                bench.count(piece.units, piece.units - accepted)
            if self.captured is None and self.tile_index >= check.check_tiles(self.inputs):
                await self._capture()
        if self.captured is None:
            await self._capture()

    async def _capture(self) -> None:
        """Both tenants' detections of the tiles fed so far, read over the wire."""
        assert self.stack is not None
        self.checked_tiles = self.tile_index
        phase = self.bench.phase("merge")
        self.bench.segment(phase)
        with self.bench.slice(phase) as piece:
            states = [await client.detections() for client in self.stack.clients]
            piece.units = sum(len(tenant_states) for tenant_states in states)
        self.captured_tenants = [check.canonical(tenant_states) for tenant_states in states]
        self.captured = self.captured_tenants[0]

    # -- latency -----------------------------------------------------------------------

    async def _latency(self) -> None:
        """Closed loop, one tick in flight (see ``SessionWorkload._latency_by_tick``)."""
        bench, stack = self.bench, self.stack
        assert stack is not None
        phase = bench.phase("latency")
        ticks = self._ticks()
        for _ in bench.repeats(self.shares["latency"]):
            await stack.call(lambda session: session.clear())
            bench.segment(phase)
            for _ in range(SLICES_PER_SEGMENT):
                batch = [next(ticks) for _ in range(GATEWAY_TICKS_PER_SLICE)]
                acks: List[float] = []
                detects: List[float] = []
                refused = 0
                with bench.slice(phase) as piece:
                    for tick in batch:
                        sent = perf()
                        refused += sum(
                            await asyncio.gather(
                                *(send_timed(client, tick, sent, acks) for client in stack.clients)
                            )
                        )
                        await stack.drain()
                        detects.extend(stamp - sent for stamp, _ in stack.pushed_events())
                    piece.units = sum(len(tick) for tick in batch) * len(TENANTS)
                    piece.samples = {"ack": acks, "detect": detects}
                bench.count(piece.units, refused)
        if bench.tracer is not None:
            await self._paced()

    async def _paced(self) -> None:
        """Open loop (traced runs only; see ``SessionWorkload._paced``)."""
        bench, stack = self.bench, self.stack
        assert stack is not None
        phase = bench.phase("paced")
        ticks = self._ticks()
        for _ in bench.repeats(PACED_SHARE):
            await stack.call(lambda session: session.clear())
            bench.segment(phase)
            for _ in range(SLICES_PER_SEGMENT):
                batch = [next(ticks) for _ in range(PACED_TICKS_PER_SLICE)]
                due_of: Dict[Tuple[Any, float], float] = {}
                acks: List[float] = []
                lags: List[float] = []
                with bench.slice(phase) as piece:
                    first_due = perf() + 0.002
                    in_flight = []
                    for number, tick in enumerate(batch):
                        due = first_due + number * PACED_TICK_S
                        await asyncio.sleep(max(0.0, due - perf()))
                        lags.append(perf() - due)
                        for frame in tick:
                            due_of[(frame["player"], frame["ts"])] = due
                        in_flight.extend(
                            asyncio.ensure_future(send_timed(client, tick, due, acks))
                            for client in stack.clients
                        )
                    refused = sum(await asyncio.gather(*in_flight))
                    await stack.drain()
                    piece.units = sum(len(tick) for tick in batch) * len(TENANTS)
                    piece.samples = {
                        "ack": acks,
                        "lag": lags,
                        "detect": [
                            stamp - due_of[(event["player"], event["timestamp"])]
                            for stamp, event in stack.pushed_events()
                        ],
                    }
                bench.count(piece.units, refused)

    # -- learn -------------------------------------------------------------------------

    async def _learn(self) -> None:
        bench, stack = self.bench, self.stack
        assert stack is not None
        phase = bench.phase("learn")
        operator_client = stack.clients[0]
        for index in bench.repeats(self.shares["learn"]):
            bench.segment(phase)
            choice = index % len(LEARN_SAMPLE_COUNTS)
            for number, name in enumerate(GESTURE_NAMES):
                scratch = f"{name}.bench"
                with bench.slice(phase, position=choice * len(GESTURE_NAMES) + number) as piece:
                    text = self.learn_text(scratch, name, LEARN_SAMPLE_COUNTS[choice])
                    await operator_client.deploy(text, name=scratch)
                    piece.units = 1
                await stack.server.tenants[TENANTS[0]].control(
                    "call", lambda session, scratch=scratch: session.undeploy(scratch)
                )
            bench.count(len(GESTURE_NAMES))

    # -- recover -----------------------------------------------------------------------

    async def _recover(self) -> None:
        """Replace the gateway: start, re-attach, redeploy, re-send the last tiles."""
        bench = self.bench
        phase = bench.phase("recover")
        tail = [self.inputs.shifted(index) for index in range(self.recover_tail_tiles)]
        frames = [
            tile[start : start + FRAME_TUPLES]
            for tile in tail
            for start in range(0, len(tile), FRAME_TUPLES)
        ]
        expected = check.reference(self.inputs, self.recover_tail_tiles)
        for _ in bench.repeats(self.shares["recover"]):
            bench.segment(phase)
            replacement = Stack()
            try:
                with bench.slice(phase) as piece:
                    await replacement.start()
                    await replacement.deploy(self.manifest)
                    await asyncio.gather(
                        *(send_closed_loop(client, frames) for client in replacement.clients)
                    )
                    await replacement.drain()
                    piece.units = 1
                wrong: List[Any] = []
                for client in replacement.clients:
                    actual = check.canonical(await client.detections())
                    wrong.extend(check.mismatched_players(expected, actual))
            finally:
                await replacement.close()
            bench.count(1, 1 if wrong else 0)
            if wrong:
                bench.error(f"the replacement gateway's detections differ for players {wrong}")

    # -- check -------------------------------------------------------------------------

    def check(self) -> None:
        super().check()
        if self.captured_tenants[1] != self.captured_tenants[0]:
            self.bench.count(0, 1)
            self.bench.error("the two tenants, fed the same stream, detected differently")
