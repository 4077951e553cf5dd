"""End-to-end tests of the gateway server over real loopback sockets.

Every test starts a :class:`GatewayServer` on an ephemeral port, talks
to it with the real :class:`GatewayClient` (or raw sockets, for the
hostile cases) and shuts it down.  The robustness suite's invariant:
nothing a client does — malformed frames, oversized payloads, vanishing
mid-batch, protocol misuse — may wedge the server; a fresh connection
must always work afterwards.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import struct
import threading

import pytest

from repro.api.session import GestureSession, SessionConfig
from repro.errors import ConnectionClosedError, GatewayProtocolError
from repro.gateway import GatewayClient, GatewayConfig, GatewayServer, TenantConfig
from repro.gateway.cli import build_config, main as cli_main, tenant_config_from_dict

HIGH = 'SELECT "high" MATCHING kinect_t(rhand_y > 450);'
UPDOWN = (
    'SELECT "updown" MATCHING ( kinect_t(rhand_y > 400) -> '
    "kinect_t(rhand_y < 100) within 5 seconds );"
)
UNSAT = 'SELECT "never" MATCHING (kinect_t(abs(rhand_x - 400) < -5));'


def make_frames(players=3, rounds=20):
    frames = []
    ts = 0.0
    for round_index in range(rounds):
        for player in range(1, players + 1):
            phase = (round_index + player) % 4
            value = 500.0 if phase < 2 else 50.0
            ts += 0.01
            frames.append({"ts": ts, "player": player, "rhand_y": value})
    return frames


@contextlib.asynccontextmanager
async def serve(**kwargs):
    kwargs.setdefault("port", 0)
    server = GatewayServer(GatewayConfig(**kwargs))
    await server.start()
    try:
        yield server
    finally:
        await server.close()


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=60))


async def connect(server, tenant=None, **hello_kwargs):
    client = await GatewayClient.connect("127.0.0.1", server.port)
    if tenant is not None:
        await client.hello(tenant, **hello_kwargs)
    return client


async def http_get(server, target, headers=""):
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    writer.write(f"GET {target} HTTP/1.1\r\nHost: x\r\n{headers}\r\n".encode())
    await writer.drain()
    raw = await reader.read(-1)
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body.decode("utf-8")


class TestHappyPath:
    def test_full_session_matches_direct_feed(self):
        frames = make_frames()

        # The reference: the same tuples straight into the in-process API.
        with GestureSession(SessionConfig()) as direct:
            direct.deploy(HIGH)
            direct.deploy(UPDOWN)
            direct.feed(frames, stream="kinect_t")
            expected = [d.to_state() for d in direct.detections()]
        assert expected  # the workload actually detects something

        async def scenario():
            async with serve() as server:
                client = await connect(server, "t1")
                assert await client.deploy(HIGH) == ["high"]
                assert await client.deploy(UPDOWN) == ["updown"]
                ack = await client.send_tuples(frames, stream="kinect_t", seq=7)
                assert ack["accepted"] == len(frames)
                assert ack["dropped"] == 0
                assert ack["seq"] == 7
                drained = await client.drain()
                assert drained["type"] == "drained"
                detections = await client.detections()
                await client.bye()
                return detections

        assert run(scenario()) == expected

    def test_subscriber_receives_events_in_order(self):
        frames = [
            {"ts": i * 0.1, "player": 1, "rhand_y": 500.0 if i % 2 else 10.0}
            for i in range(10)
        ]

        async def scenario():
            async with serve() as server:
                feeder = await connect(server, "t1")
                watcher = await connect(server, "t1", subscribe=True)
                await feeder.deploy(HIGH)
                await feeder.send_tuples(frames, stream="kinect_t")
                await feeder.drain()
                events = [await watcher.next_event() for _ in range(5)]
                assert [e["type"] for e in events] == ["event"] * 5
                assert [e["gesture"] for e in events] == ["high"] * 5
                timestamps = [e["timestamp"] for e in events]
                assert timestamps == sorted(timestamps)
                # The non-subscribed feeder got no pushes.
                assert feeder.events.empty()

        run(scenario())

    def test_deploy_vocabulary_by_manifest_and_by_name(self, tmp_path):
        manifest_path = tmp_path / "vocab.json"
        manifest_path.write_text(json.dumps({"queries": {"high": HIGH}}))

        async def scenario():
            async with serve(vocabularies={"basic": str(manifest_path)}) as server:
                client = await connect(server, "t1")
                assert await client.deploy_vocabulary(manifest={"updown": UPDOWN}) == [
                    "updown"
                ]
                assert await client.deploy_vocabulary(vocabulary="basic") == ["high"]
                with pytest.raises(GatewayProtocolError) as info:
                    await client.deploy_vocabulary(vocabulary="nope")
                assert info.value.code == "unknown_vocabulary"

        run(scenario())

    def test_tenants_are_isolated_over_the_wire(self):
        frames = make_frames(players=2, rounds=10)

        async def scenario():
            async with serve() as server:
                alice = await connect(server, "alice")
                bob = await connect(server, "bob")
                await alice.deploy(HIGH)
                await bob.deploy(UPDOWN)
                await alice.send_tuples(frames, stream="kinect_t")
                await bob.send_tuples(frames, stream="kinect_t")
                alice_detections = await alice.detections()
                bob_detections = await bob.detections()
                assert {d["query_name"] for d in alice_detections} == {"high"}
                assert {d["query_name"] for d in bob_detections} == {"updown"}
                snapshot = server.tenants["alice"].snapshot()
                assert snapshot["tuples_fed"] == len(frames)

        run(scenario())

    def test_json_and_packed_frames_are_one_message_to_the_tenant(self):
        frames = make_frames(players=3, rounds=20)
        chunks = [frames[start : start + 7] for start in range(0, len(frames), 7)]

        def send_json(client, chunk, seq):
            return client.request(
                {"type": "tuples", "records": chunk, "stream": "kinect_t", "seq": seq}
            )

        def send_packed(client, chunk, seq):
            return client.send_tuples(chunk, stream="kinect_t", seq=seq)

        async def leg(server, name, send):
            """Everything a tenant and its client saw of the stream, sent by ``send``."""
            client = await connect(server, name, subscribe=True)
            await client.deploy_vocabulary({"high": HIGH, "updown": UPDOWN})
            binary_messages = []
            send_binary = client.ws.send_binary
            client.ws.send_binary = lambda payload: (
                binary_messages.append(len(payload)),
                send_binary(payload),
            )[1]
            tenant = server.tenants[name]
            # Hold the tenant's feed thread: every ack then reports all the
            # tuples admitted so far as pending, whatever the machine's pace.
            release = threading.Event()
            held = tenant.control("call", lambda session: release.wait(30))
            before = server.metrics.snapshot()
            acks = [await send(client, chunk, seq) for seq, chunk in enumerate(chunks)]
            after = server.metrics.snapshot()
            queued = tenant.snapshot()["pending_tuples"]
            release.set()
            assert await held
            await client.drain()
            events = []
            while not client.events.empty():
                events.append(client.events.get_nowait())
            seen = {
                "acks": [{k: v for k, v in ack.items() if k != "id"} for ack in acks],
                "edge": {
                    key: after[key] - before[key]
                    for key in ("frames_in", "tuples_in", "tuples_accepted", "tuples_dropped")
                },
                "queued": queued,
                "fed": tenant.snapshot()["tuples_fed"],
                "events": events,
                "detections": await client.detections(),
            }
            await client.bye()
            return seen, len(binary_messages)

        async def scenario():
            async with serve() as server:
                return await leg(server, "json", send_json), await leg(server, "packed", send_packed)

        (as_json, json_binaries), (as_packed, packed_binaries) = run(scenario())
        assert (json_binaries, packed_binaries) == (0, len(chunks))
        assert as_packed == as_json
        # ... and what they agree on is the whole stream, counted in tuples.
        assert [ack["pending"] for ack in as_json["acks"]] == [
            sum(len(chunk) for chunk in chunks[: index + 1]) for index in range(len(chunks))
        ]
        assert as_json["edge"] == {
            "frames_in": len(chunks),
            "tuples_in": len(frames),
            "tuples_accepted": len(frames),
            "tuples_dropped": 0,
        }
        assert as_json["queued"] == as_json["fed"] == len(frames)
        assert {event["gesture"] for event in as_json["events"]} == {"high", "updown"}
        assert len(as_json["events"]) == len(as_json["detections"])

    def test_sixty_concurrent_clients_match_direct_feed_while_http_answers(self):
        tenants, players, rounds, chunk_size = ("t0", "t1", "t2"), 20, 3, 4

        def player_frames(player):
            return [
                {
                    "ts": (step + 1) * 0.033,
                    "player": player,
                    "rhand_y": 500.0 if step % 2 == 0 else 50.0,
                }
                for step in range(rounds * chunk_size)
            ]

        def canonical(states):
            """Per-player detection sequences as byte-comparable JSON text."""
            grouped = {}
            for state in states:
                grouped.setdefault(state["partition"], []).append(
                    json.dumps(state, sort_keys=True)
                )
            return grouped

        # Every tenant runs the same workload, so one direct feed is the
        # reference for all three.
        with GestureSession(SessionConfig()) as direct:
            direct.deploy_vocabulary({"high": HIGH, "updown": UPDOWN})
            for player in range(1, players + 1):
                direct.feed(player_frames(player), stream="kinect_t")
            expected = canonical(d.to_state() for d in direct.detections())
        assert len(expected) == players

        async def stream_one_player(server, tenant, player, barrier):
            client = await connect(server, tenant)
            try:
                await barrier.wait()  # stream only once everyone is attached
                frames = player_frames(player)
                for index in range(rounds):
                    chunk = frames[index * chunk_size : (index + 1) * chunk_size]
                    ack = await client.send_tuples(chunk, stream="kinect_t", seq=index)
                    assert (ack["accepted"], ack["dropped"]) == (len(chunk), 0), ack
            finally:
                await client.close()

        async def poll_http(server, clients, statuses):
            while True:
                for target in statuses:
                    status, _ = await http_get(server, target)
                    statuses[target].append(status)
                if clients.done():
                    return
                await asyncio.sleep(0.01)

        async def scenario():
            async with serve() as server:
                admins = {}
                for tenant in tenants:
                    admins[tenant] = await connect(server, tenant)
                    deployed = await admins[tenant].deploy_vocabulary(
                        {"high": HIGH, "updown": UPDOWN}
                    )
                    assert sorted(deployed) == ["high", "updown"]

                barrier = asyncio.Barrier(len(tenants) * players + 1)
                clients = asyncio.gather(
                    *(
                        stream_one_player(server, tenant, player, barrier)
                        for tenant in tenants
                        for player in range(1, players + 1)
                    )
                )
                await barrier.wait()
                # A concurrency test, not a ramp: all sixty (plus the three
                # admins) are attached before the first tuple is sent.
                assert server.metrics.snapshot()["connections_active"] >= len(tenants) * (players + 1)
                statuses = {"/healthz": [], "/metrics": []}
                await asyncio.gather(clients, poll_http(server, clients, statuses))
                for target, seen in statuses.items():
                    assert seen and set(seen) == {200}, (target, seen)

                for tenant, admin in admins.items():
                    await admin.drain()
                    assert canonical(await admin.detections()) == expected, tenant
                    await admin.bye()

                total = len(tenants) * players * rounds * chunk_size
                edge = server.metrics.snapshot()
                assert edge["tuples_in"] == edge["tuples_accepted"] == total
                assert edge["tuples_dropped"] == 0

        run(scenario())


class TestProtocolRobustness:
    def test_deploy_before_hello_is_refused_but_recoverable(self):
        async def scenario():
            async with serve() as server:
                client = await GatewayClient.connect("127.0.0.1", server.port)
                with pytest.raises(GatewayProtocolError) as info:
                    await client.deploy(HIGH)
                assert info.value.code == "hello_required"
                assert not info.value.fatal
                # The connection survives and can attach normally.
                await client.hello("t1")
                assert await client.deploy(HIGH) == ["high"]

        run(scenario())

    def test_bad_json_and_unknown_type_cost_nothing(self):
        async def scenario():
            async with serve() as server:
                client = await connect(server, "t1")
                await client.ws.send_text("this is not json")
                await client.ws.send_text('{"type": "launch_missiles"}')
                await client.ws.send_text('[1,2,3]')
                await asyncio.sleep(0.05)
                codes = [e["code"] for e in client.errors]
                assert codes == ["bad_message", "unsupported_type", "bad_message"]
                # Still alive:
                assert (await client.ping())["type"] == "pong"

        run(scenario())

    def test_binary_message_is_a_packed_frame_or_a_bad_message(self):
        async def scenario():
            async with serve() as server:
                client = await connect(server, "t1")
                # JSON in a binary message is not JSON text; nor are these frames.
                await client.ws.send_binary(b'{"type":"ping"}')
                await client.ws.send_binary(b"\x00\x00\x00\x02{}")
                await client.ws.send_binary(bytes(range(256)))
                assert (await client.ping())["type"] == "pong"  # still alive, in order
                assert [(e["code"], e["fatal"]) for e in client.errors] == [
                    ("bad_message", False)
                ] * 3
                # A frame laid out by hand from docs/gateway.md is taken.
                header = json.dumps(
                    {
                        "type": "tuples",
                        "stream": "kinect_t",
                        "ack": False,
                        "fields": ["ts", "player", "rhand_y"],
                        "formats": "dqd",
                    }
                ).encode("utf-8")
                rows = struct.pack("<dqd", 0.1, 1, 500.0) + struct.pack("<dqd", 0.2, 1, 20.0)
                await client.deploy(HIGH)
                await client.ws.send_binary(struct.pack(">I", len(header)) + header + rows)
                (detection,) = await client.detections()
                assert (detection["query_name"], detection["partition"]) == ("high", 1)
                assert server.tenants["t1"].tuples_fed == 2

        run(scenario())

    def test_double_hello_is_refused(self):
        async def scenario():
            async with serve() as server:
                client = await connect(server, "t1")
                with pytest.raises(GatewayProtocolError) as info:
                    await client.hello("t2")
                assert info.value.code == "already_attached"
                assert (await client.ping())["type"] == "pong"

        run(scenario())

    def test_auth_and_unknown_tenant(self):
        tenants = {"secure": TenantConfig(token="s3cret")}

        async def scenario():
            async with serve(tenants=tenants, allow_dynamic_tenants=False) as server:
                # Wrong token: fatal, closed.
                client = await GatewayClient.connect("127.0.0.1", server.port)
                with pytest.raises(GatewayProtocolError) as info:
                    await client.hello("secure", token="wrong")
                assert info.value.code == "auth_failed"
                await client.close()
                # Unknown tenant: fatal unknown_tenant.
                client = await GatewayClient.connect("127.0.0.1", server.port)
                with pytest.raises(GatewayProtocolError) as info:
                    await client.hello("ghost")
                assert info.value.code == "unknown_tenant"
                await client.close()
                # Right token: welcome.
                client = await GatewayClient.connect("127.0.0.1", server.port)
                welcome = await client.hello("secure", token="s3cret")
                assert welcome["tenant"] == "secure"
                assert server.metrics.snapshot()["connections_rejected"] == 2

        run(scenario())

    def test_connection_cap_is_enforced(self):
        tenants = {"small": TenantConfig(max_connections=1)}

        async def scenario():
            async with serve(tenants=tenants) as server:
                first = await connect(server, "small")
                second = await GatewayClient.connect("127.0.0.1", server.port)
                with pytest.raises(GatewayProtocolError) as info:
                    await second.hello("small")
                assert info.value.code == "too_many_connections"
                await first.bye()
                # The slot is free again.
                third = await connect(server, "small")
                assert (await third.ping())["type"] == "pong"

        run(scenario())

    def test_strict_analyzer_rejection_is_a_typed_error(self):
        tenants = {"strict": TenantConfig(session=SessionConfig(analyze="strict"))}

        async def scenario():
            async with serve(tenants=tenants) as server:
                client = await connect(server, "strict")
                with pytest.raises(GatewayProtocolError) as info:
                    await client.deploy(UNSAT)
                assert info.value.code == "analysis_rejected"
                assert "QA" in "".join(info.value.extra["codes"])
                # All-or-nothing for vocabularies too.
                with pytest.raises(GatewayProtocolError) as info:
                    await client.deploy_vocabulary({"good": HIGH, "never": UNSAT})
                assert info.value.code == "analysis_rejected"
                # The session is untouched and usable.
                assert await client.deploy(HIGH) == ["high"]

        run(scenario())

    def test_deploy_failure_is_nonfatal(self):
        async def scenario():
            async with serve() as server:
                client = await connect(server, "t1")
                with pytest.raises(GatewayProtocolError) as info:
                    await client.deploy("SELECT THIS IS NOT THE DIALECT")
                assert info.value.code == "deploy_failed"
                assert (await client.ping())["type"] == "pong"

        run(scenario())

    def test_oversized_message_closes_only_that_connection(self):
        async def scenario():
            async with serve(max_message_bytes=4096) as server:
                client = await connect(server, "t1")
                big = [{"ts": float(i), "player": 1, "rhand_y": 0.0} for i in range(2000)]
                with pytest.raises(ConnectionClosedError):
                    await client.send_tuples(big, stream="kinect_t")
                # The server is fine; a fresh connection works.
                fresh = await connect(server, "t1")
                assert (await fresh.ping())["type"] == "pong"

        run(scenario())

    def test_garbage_after_handshake_never_wedges_the_server(self):
        async def scenario():
            async with serve() as server:
                client = await GatewayClient.connect("127.0.0.1", server.port)
                # Bypass the codec: raw garbage straight into the socket.
                client.ws._writer.write(b"\xff\x00\xde\xad\xbe\xef" * 10)
                await client.ws._writer.drain()
                await asyncio.sleep(0.05)
                fresh = await connect(server, "t1")
                assert (await fresh.ping())["type"] == "pong"

        run(scenario())

    def test_mid_batch_disconnect_preserves_the_tenant(self):
        frames = make_frames(players=1, rounds=30)

        async def scenario():
            async with serve() as server:
                dropper = await connect(server, "t1")
                await dropper.deploy(HIGH)
                # Fire-and-forget tuples, then vanish without a close frame.
                await dropper.send_tuples(frames, stream="kinect_t", ack=False)
                dropper.ws._writer.close()
                # The tenant survives with everything admitted before the
                # drop; a new connection drains and reads it.
                survivor = await connect(server, "t1")
                await survivor.drain()
                detections = await survivor.detections()
                assert detections  # admitted tuples were processed
                assert server.tenants["t1"].failure is None

        run(scenario())

    def test_rate_limit_error_policy_rejects_with_typed_error(self):
        tenants = {
            "limited": TenantConfig(
                policy="error", rate_limit_tuples_per_second=1.0, rate_burst=1.0
            )
        }

        async def scenario():
            async with serve(tenants=tenants) as server:
                client = await connect(server, "limited")
                frames = [{"ts": float(i), "player": 1, "rhand_y": 0.0} for i in range(50)]
                with pytest.raises(GatewayProtocolError) as info:
                    await client.send_tuples(frames, stream="kinect_t")
                assert info.value.code == "rate_limited"
                assert info.value.fatal

        run(scenario())

    def test_rate_limit_drop_policy_drops_and_reports(self):
        tenants = {
            "lossy": TenantConfig(
                policy="drop_newest", rate_limit_tuples_per_second=1.0, rate_burst=1.0
            )
        }

        async def scenario():
            async with serve(tenants=tenants) as server:
                client = await connect(server, "lossy")
                frames = [{"ts": float(i), "player": 1, "rhand_y": 0.0} for i in range(50)]
                ack = await client.send_tuples(frames, stream="kinect_t")
                assert ack["accepted"] == 0
                assert ack["dropped"] == 50
                assert server.metrics.snapshot()["tuples_dropped"] == 50
                assert server.tenants["lossy"].rate_dropped == 50

        run(scenario())

    def test_backpressure_error_policy_over_the_wire(self):
        tenants = {"tight": TenantConfig(policy="error", pending_capacity=8)}

        async def scenario():
            async with serve(tenants=tenants) as server:
                client = await connect(server, "tight")
                tenant = server.tenants["tight"]
                gate = threading.Event()
                # Hold the tenant worker hostage on the executor so the
                # pending queue genuinely fills.
                blocker = tenant.control("call", lambda session: gate.wait(10))
                await asyncio.sleep(0.05)
                frames = [{"ts": float(i), "player": 1, "rhand_y": 0.0} for i in range(6)]
                assert (await client.send_tuples(frames, stream="kinect_t"))[
                    "accepted"
                ] == 6
                with pytest.raises(GatewayProtocolError) as info:
                    await client.send_tuples(frames, stream="kinect_t")
                assert info.value.code == "backpressure"
                gate.set()
                await blocker

        run(scenario())


class TestHttpEndpoints:
    def test_healthz_and_metrics_formats(self):
        async def scenario():
            async with serve() as server:
                client = await connect(server, "t1")
                await client.deploy(HIGH)
                await client.send_tuples(
                    [{"ts": 1.0, "player": 1, "rhand_y": 500.0}], stream="kinect_t"
                )
                await client.drain()

                status, body = await http_get(server, "/healthz")
                assert status == 200
                health = json.loads(body)
                assert health["status"] == "ok"
                assert health["tenants"] == 1

                status, body = await http_get(server, "/metrics")
                assert status == 200
                assert "# TYPE repro_gateway_tuples_in_total counter" in body
                assert "repro_gateway_tuples_in_total 1" in body
                assert 'tenant="t1"' in body

                status, body = await http_get(server, "/metrics?format=json")
                document = json.loads(body)
                assert document["gateway"]["tuples_accepted"] == 1
                assert document["tenants"]["t1"]["tuples_fed"] == 1

                status, _ = await http_get(server, "/nope")
                assert status == 404
                status, body = await http_get(server, "/healthz")
                assert status == 200

        run(scenario())

    def test_sharded_tenant_metrics_include_shard_series(self):
        tenants = {"sharded": TenantConfig(session=SessionConfig(shards=2))}

        async def scenario():
            async with serve(tenants=tenants) as server:
                client = await connect(server, "sharded")
                await client.deploy(HIGH)
                await client.send_tuples(
                    make_frames(players=2, rounds=5), stream="kinect_t"
                )
                await client.drain()
                _, body = await http_get(server, "/metrics")
                assert 'repro_shard_tuples_processed_total{shard="0",tenant="sharded"}' in body
                assert 'repro_shard_tuples_processed_total{shard="1",tenant="sharded"}' in body

        run(scenario())

    def test_two_tenant_scrape_is_valid_exposition_text(self):
        # Each tenant's registry used to be rendered separately and the bodies
        # concatenated: every shared family's header was repeated per tenant
        # and the per-tenant gauges had none — a body Prometheus rejects.
        tenants = {"solo": TenantConfig(), "duo": TenantConfig(session=SessionConfig(shards=2))}

        async def scenario():
            async with serve(tenants=tenants) as server:
                solo = await connect(server, "solo")
                await solo.deploy(HIGH)  # so the repro_query_* families render
                await solo.send_tuples(make_frames(players=1, rounds=4), stream="kinect_t")
                await solo.drain()
                duo = await connect(server, "duo")
                await duo.send_tuples(make_frames(players=2, rounds=4), stream="kinect_t")
                await duo.drain()
                _, body = await http_get(server, "/metrics")
                return body

        body = run(scenario())
        assert body.endswith("\n")
        declared, order = {}, []
        for line in body.splitlines():
            assert line, "blank line inside the exposition"
            if line.startswith("#"):
                _, marker, name, _rest = line.split(" ", 3)
                assert marker in ("HELP", "TYPE")
                seen = declared.setdefault(name, [])
                assert marker not in seen, f"second # {marker} for {name}"
                seen.append(marker)
                owner = name
            else:
                sample = line.split("{", 1)[0].split(" ", 1)[0]
                owner = next(
                    (
                        name
                        for name in (sample, *(sample.removesuffix(s) for s in ("_bucket", "_sum", "_count")))
                        if name in declared
                    ),
                    None,
                )
                assert owner is not None, f"sample of an undeclared family: {line}"
            if not order or order[-1] != owner:
                order.append(owner)
        assert all(markers == ["HELP", "TYPE"] for markers in declared.values())
        assert len(order) == len(set(order)), "a family's samples are not contiguous"
        for family in (
            "repro_build_info",
            "repro_gateway_tenant_connections",
            "repro_shard_tuples_processed_total",
            "repro_durability_fsyncs_total",
            "repro_fsync_seconds",
            "repro_query_detections_total",
            "repro_scrape_duration_seconds",
            "repro_gateway_scrape_duration_seconds",
        ):
            assert family in declared
        assert 'repro_shard_tuples_processed_total{shard="1",tenant="duo"}' in body
        assert 'repro_build_info{python=' in body and 'tenant="solo",version=' in body

    def test_malformed_http_gets_400(self):
        async def scenario():
            async with serve() as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(b"COMPLETE NONSENSE\r\n\r\n")
                await writer.drain()
                raw = await reader.read(-1)
                writer.close()
                assert b"400" in raw.split(b"\r\n", 1)[0]

        run(scenario())

    def test_bad_websocket_upgrade_is_refused(self):
        async def scenario():
            async with serve() as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(
                    b"GET /ws HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\n"
                    b"Upgrade: websocket\r\nSec-WebSocket-Key: abc\r\n"
                    b"Sec-WebSocket-Version: 8\r\n\r\n"
                )
                await writer.drain()
                raw = await reader.read(-1)
                writer.close()
                assert b"426" in raw.split(b"\r\n", 1)[0]
                assert b"Sec-WebSocket-Version: 13" in raw

        run(scenario())


class TestCli:
    def test_tenant_config_from_dict_roundtrip(self):
        config = tenant_config_from_dict(
            {
                "token": "t",
                "policy": "drop_newest",
                "pending_capacity": 128,
                "max_connections": 3,
                "rate_limit_tuples_per_second": 100,
                "session": {"shards": 2, "analyze": "warn"},
            }
        )
        assert config.token == "t"
        assert config.policy == "drop_newest"
        assert config.session.shards == 2
        assert config.session.analyze == "warn"

    def test_tenant_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown tenant config"):
            tenant_config_from_dict({"tokens": "typo"})
        with pytest.raises(ValueError, match="unknown session config"):
            tenant_config_from_dict({"session": {"sharts": 2}})

    @pytest.mark.parametrize("key", ["raw_stream", "view_stream", "backpressure"])
    def test_removed_session_keys_are_unknown(self, key):
        # The edge policy is the tenant's; stream names are fixed.
        with pytest.raises(ValueError, match=f"unknown session config keys: \\['{key}'\\]"):
            tenant_config_from_dict({"policy": "drop_newest", "session": {key: "block"}})

    def test_build_config_merges_file_and_flags(self, tmp_path):
        config_path = tmp_path / "gateway.json"
        config_path.write_text(
            json.dumps(
                {
                    "port": 9000,
                    "tenants": {"a": {"policy": "error"}},
                    "vocabularies": {"v": "vocab.json"},
                }
            )
        )
        import argparse

        from repro.gateway.cli import _build_parser

        args = _build_parser().parse_args(
            [
                "--config", str(config_path),
                "--policy", "drop_oldest",
                "--shards", "2",
                "--vocabulary", "w=other.json",
                "--no-dynamic-tenants",
            ]
        )
        config = build_config(args)
        assert config.port == 9000
        assert config.tenants["a"].policy == "error"
        assert config.default_tenant.policy == "drop_oldest"
        assert config.default_tenant.session.shards == 2
        assert config.vocabularies == {"v": "vocab.json", "w": "other.json"}
        assert not config.allow_dynamic_tenants

    def test_cli_rejects_bad_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert cli_main(["--config", str(bad)]) == 2


class TestShutdown:
    def test_close_drains_tenants_and_refuses_new_work(self):
        frames = make_frames(players=1, rounds=10)

        async def scenario():
            async with serve() as server:
                client = await connect(server, "t1")
                await client.deploy(HIGH)
                # The awaited ack means the frames were admitted; close()
                # must then process them before stopping the worker.
                await client.send_tuples(frames, stream="kinect_t")
                await server.close()
                tenant = server.tenants["t1"]
                # Everything admitted before shutdown was processed.
                assert tenant.tuples_fed == len(frames)
                assert tenant.session.closed

        run(scenario())

    def test_loop_lag_monitor_reports(self):
        async def scenario():
            async with serve(loop_lag_interval=0.01) as server:
                await asyncio.sleep(0.1)
                snapshot = server.metrics.snapshot()
                assert snapshot["loop_lag_ewma_seconds"] >= 0.0
                assert snapshot["loop_lag_max_seconds"] >= 0.0

        run(scenario())


class TestControlPlaneEndpoints:
    """/debug/vars, the health-aware /healthz and build info."""

    def control_tenant(self):
        return TenantConfig(session=SessionConfig(trace_sample_rate=1.0))

    @staticmethod
    def stall_shard(monkeypatch, session, shard_id):
        """Freeze one shard's liveness row with backlog, and hand the
        health rules a clock the test moves (``clock[0]``)."""
        from repro.observability import health

        runtime = session.runtime
        rows = runtime.shard_liveness

        def stalled_rows():
            return [
                {**row, "backlog": 9, "tuples_processed": 42}
                if row["shard_id"] == shard_id
                else row
                for row in rows()
            ]

        clock = [0.0]
        monkeypatch.setattr(runtime, "shard_liveness", stalled_rows)
        monkeypatch.setattr(health, "monotonic_time", lambda: clock[0])
        return clock

    def test_debug_vars_serves_profile_and_health(self):
        tenants = {"ctl": self.control_tenant()}

        async def scenario():
            async with serve(tenants=tenants) as server:
                client = await connect(server, "ctl")
                await client.deploy(HIGH)
                await client.send_tuples(make_frames(rounds=40), stream="kinect_t")
                await client.drain()

                status, body = await http_get(server, "/debug/vars")
                assert status == 200
                document = json.loads(body)
                entry = document["tenants"]["ctl"]
                assert set(entry) == {"profile", "health"}
                assert entry["profile"]["enabled"]
                assert entry["health"]["status"] == "ok"
                assert "gateway" in document

        run(scenario())

    def test_top_renders_a_real_debug_vars_document(self):
        from repro.observability.__main__ import _render_top_frame

        tenants = {"ctl": self.control_tenant(), "plain": TenantConfig()}

        async def scenario():
            async with serve(tenants=tenants) as server:
                traced = await connect(server, "ctl")
                await traced.deploy(HIGH)
                await traced.deploy('SELECT "low" MATCHING kinect_t(rhand_y < 100);')
                await traced.send_tuples(make_frames(rounds=40), stream="kinect_t")
                await traced.drain()
                plain = await connect(server, "plain")
                await plain.deploy(HIGH)
                _, body = await http_get(server, "/debug/vars")
                return json.loads(body)

        frame = _render_top_frame(run(scenario()))
        ctl, plain = frame.split("tenant: plain")
        rows = [line.split() for line in ctl.splitlines() if line.rstrip().endswith("%")]
        assert sorted(row[0] for row in rows) == ["high", "low"]
        assert sum(float(row[-1].rstrip("%")) for row in rows) == pytest.approx(100.0, abs=0.2)
        assert "  health: " in ctl
        assert "trace_sample_rate" in plain and "%" not in plain

    def test_forced_stall_degrades_healthz_naming_the_shard(self, monkeypatch):
        tenants = {"ctl": TenantConfig(session=SessionConfig(shards=2))}

        async def scenario():
            async with serve(tenants=tenants) as server:
                await connect(server, "ctl")
                clock = self.stall_shard(monkeypatch, server.tenants["ctl"].session, 1)
                status, body = await http_get(server, "/healthz")
                assert (status, json.loads(body)["status"]) == (200, "ok")
                clock[0] = 6.0  # past the stall window
                status, body = await http_get(server, "/healthz")
                document = json.loads(body)
                assert document["status"] == "degraded"
                # Degraded serves 200 (load balancers keep routing); only
                # unhealthy turns 503.
                assert status == 200
                subjects = {reason["subject"] for reason in document["reasons"]}
                assert "shard-1" in subjects
                tenancy = {reason["tenant"] for reason in document["reasons"]}
                assert tenancy == {"ctl"}

        run(scenario())

    def test_cli_built_gateway_answers_health(self, tmp_path, monkeypatch):
        # The config file can set no health knob: every CLI-built tenant
        # is evaluated on read.
        from repro.gateway.cli import _build_parser

        config_path = tmp_path / "gateway.json"
        config_path.write_text(
            json.dumps({"port": 0, "default_tenant": {"session": {"shards": 2}}})
        )
        config = build_config(_build_parser().parse_args(["--config", str(config_path)]))

        async def scenario():
            server = GatewayServer(config)
            await server.start()
            try:
                await connect(server, "t1")
                clock = self.stall_shard(monkeypatch, server.tenants["t1"].session, 0)
                status, body = await http_get(server, "/healthz")
                assert (status, json.loads(body)["status"]) == (200, "ok")
                clock[0] = 6.0
                status, body = await http_get(server, "/healthz")
                document = json.loads(body)
                assert (status, document["status"]) == (200, "degraded")
                (reason,) = document["reasons"]
                assert (reason["tenant"], reason["subject"]) == ("t1", "shard-0")
                assert reason["code"] == "shard-stalled"
            finally:
                await server.close()

        run(scenario())

    def test_failed_tenant_makes_healthz_unhealthy(self):
        async def scenario():
            async with serve() as server:
                client = await connect(server, "t1")
                await client.deploy(HIGH)
                # A raw frame without torso fields: the kinect_t view
                # raises on the feed, which poisons the tenant.
                await client.send_tuples([{"ts": 0.0, "player": 1}])
                tenant = server.tenants["t1"]
                for _ in range(500):
                    if tenant.failure is not None:
                        break
                    await asyncio.sleep(0.01)
                assert isinstance(tenant.failure, KeyError)
                status, body = await http_get(server, "/healthz")
                document = json.loads(body)
                assert (status, document["status"]) == (503, "unhealthy")
                (reason,) = document["reasons"]
                assert reason["tenant"] == reason["subject"] == "t1"
                assert (reason["code"], reason["severity"]) == ("tenant-failed", "unhealthy")
                assert "torso_x" in reason["detail"]

        run(scenario())

    @staticmethod
    def patch_row(monkeypatch, session, shard_id, **fields):
        """Override fields of one shard's liveness row."""
        runtime = session.runtime
        rows = runtime.shard_liveness
        monkeypatch.setattr(
            runtime,
            "shard_liveness",
            lambda: [
                {**row, **fields} if row["shard_id"] == shard_id else row for row in rows()
            ],
        )

    @pytest.mark.parametrize(
        "fields, later, http_status, status, code",
        [
            ({"backlog": 9, "tuples_processed": 42}, 6.0, 200, "degraded", "shard-stalled"),
            ({"backlog": 9, "tuples_processed": 42}, 16.0, 503, "unhealthy", "shard-stalled"),
            ({"alive": False, "backlog": 3}, 0.0, 503, "unhealthy", "shard-dead"),
            ({"failed": True, "backlog": 3}, 0.0, 503, "unhealthy", "shard-failed"),
        ],
    )
    def test_healthz_maps_each_shard_verdict(
        self, monkeypatch, fields, later, http_status, status, code
    ):
        from repro.observability import health

        tenants = {"ctl": TenantConfig(session=SessionConfig(shards=2))}
        clock = [0.0]
        monkeypatch.setattr(health, "monotonic_time", lambda: clock[0])

        async def scenario():
            async with serve(tenants=tenants) as server:
                await connect(server, "ctl")
                self.patch_row(monkeypatch, server.tenants["ctl"].session, 1, **fields)
                await http_get(server, "/healthz")
                clock[0] = later
                response, body = await http_get(server, "/healthz")
                document = json.loads(body)
                assert (response, document["status"]) == (http_status, status)
                (reason,) = document["reasons"]
                assert (reason["tenant"], reason["subject"]) == ("ctl", "shard-1")
                assert (reason["code"], reason["severity"]) == (code, status)

        run(scenario())

    def test_healthz_is_the_worst_tenant_with_each_reason_tagged(self, monkeypatch):
        from repro.observability import health

        tenants = {
            name: TenantConfig(session=SessionConfig(shards=2)) for name in ("a", "b", "c")
        }
        clock = [0.0]
        monkeypatch.setattr(health, "monotonic_time", lambda: clock[0])

        async def scenario():
            async with serve(tenants=tenants) as server:
                for name in tenants:
                    await connect(server, name)
                sessions = {name: server.tenants[name].session for name in tenants}
                self.patch_row(monkeypatch, sessions["a"], 0, backlog=9, tuples_processed=42)
                self.patch_row(monkeypatch, sessions["b"], 1, alive=False, backlog=3)
                await http_get(server, "/healthz")
                clock[0] = 6.0
                response, body = await http_get(server, "/healthz")
                document = json.loads(body)
                assert (response, document["status"]) == (503, "unhealthy")
                assert [
                    (reason["tenant"], reason["subject"], reason["code"])
                    for reason in document["reasons"]
                ] == [("a", "shard-0", "shard-stalled"), ("b", "shard-1", "shard-dead")]

        run(scenario())

    def test_healthz_skips_tenants_without_a_session(self):
        # A refused hello registers its tenant without starting a session.
        tenants = {"locked": TenantConfig(token="s3cret"), "used": TenantConfig()}

        async def scenario():
            async with serve(tenants=tenants) as server:
                refused = await GatewayClient.connect("127.0.0.1", server.port)
                with pytest.raises(GatewayProtocolError):
                    await refused.hello("locked", token="wrong")
                await refused.close()
                await connect(server, "used")
                assert server.tenants["locked"].session is None
                response, body = await http_get(server, "/healthz")
                document = json.loads(body)
                assert (response, document["status"], document["reasons"]) == (200, "ok", [])
                assert document["tenants"] == 2
                assert set(document) == {"status", "reasons", "tenants", "connections"}
                _, body = await http_get(server, "/debug/vars")
                assert set(json.loads(body)["tenants"]) == {"used"}

        run(scenario())

    def test_alerts_endpoint_is_gone(self):
        async def scenario():
            async with serve() as server:
                await connect(server, "t1")
                return await http_get(server, "/alerts")

        status, body = run(scenario())
        assert status == 404
        assert "/healthz" in body

    def test_metrics_expositions_carry_build_info_and_scrape_duration(self):
        async def scenario():
            async with serve() as server:
                client = await connect(server, "t1")
                await client.deploy(HIGH)
                await client.send_tuples(
                    [{"ts": 1.0, "player": 1, "rhand_y": 500.0}], stream="kinect_t"
                )
                await client.drain()
                _, body = await http_get(server, "/metrics")
                return body

        body = run(scenario())
        assert "# TYPE repro_build_info gauge" in body
        assert 'repro_build_info{' in body
        assert 'version="' in body and 'python="' in body
        assert "# TYPE repro_gateway_scrape_duration_seconds gauge" in body
        assert "repro_gateway_scrape_duration_seconds" in body

    def test_session_prometheus_carries_build_info(self):
        with GestureSession(SessionConfig()) as session:
            session.deploy(HIGH)
            session.feed(
                [{"ts": 1.0, "player": 1, "rhand_y": 500.0}], stream="kinect_t"
            )
            text = session.metrics.to_prometheus()
        assert text.splitlines()[0].startswith("# HELP repro_build_info")
        assert "repro_scrape_duration_seconds" in text.splitlines()[-1]
