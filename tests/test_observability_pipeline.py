"""End-to-end telemetry through the pipeline: session, shards, gateway.

The acceptance-level properties: a sampled feed produces one trace whose
spans connect ingest → queue → shard worker → matcher (and gateway →
… when fed over the wire), with consistent trace ids across the
process-shard pickle boundary; ``/metrics`` serves the histogram
families and per-query matcher series; telemetry off means no registry
and no spans.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api.session import GestureSession, SessionConfig
from repro.gateway import GatewayClient, GatewayConfig, GatewayServer, TenantConfig
from repro.observability.__main__ import summarize_trace

HIGH = 'SELECT "high" MATCHING kinect_t(rhand_y > 450);'


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


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=120))


class TestInlineSession:
    def test_telemetry_on_by_default_records_histograms(self):
        with GestureSession(SessionConfig()) as session:
            session.deploy(HIGH)
            session.feed(make_frames(), stream="kinect_t")
            assert session.metrics is not None
            snapshot = session.metrics.snapshot()
            assert snapshot["histograms"]["batch_processing"]["count"] >= 1
            assert snapshot["histograms"]["ingest_to_detection"]["count"] >= 1

    def test_telemetry_off_restores_bare_session(self):
        with GestureSession(SessionConfig(telemetry=False)) as session:
            session.deploy(HIGH)
            session.feed(make_frames(), stream="kinect_t")
            assert session.metrics is None
            assert session.tracer is None
            assert session.export_trace()["traceEvents"] == []

    def test_query_stats_labelled_by_query(self):
        with GestureSession(SessionConfig()) as session:
            session.deploy(HIGH)
            session.feed(make_frames(), stream="kinect_t")
            stats = session.query_stats()
            assert set(stats) == {"high"}
            assert stats["high"]["runs_started"] > 0
            assert stats["high"]["detections"] > 0
            assert stats["high"]["predicate_evaluations"] > 0
            text = session.metrics.to_prometheus()
            assert 'repro_query_runs_started_total{query="high"}' in text

    def test_sampled_inline_feed_traces_feed_and_matcher(self):
        config = SessionConfig(trace_sample_rate=1.0)
        with GestureSession(config) as session:
            session.deploy(HIGH)
            session.feed(make_frames(), stream="kinect_t")
            events = session.export_trace()["traceEvents"]
            categories = {event["cat"] for event in events}
            assert {"ingest", "matcher"} <= categories
            assert len({event["args"]["trace_id"] for event in events}) == 1

    def test_traced_tuples_keep_one_matcher_span_per_query(self):
        # The step index lets an untraced tuple skip queries whose gate it
        # fails; a traced one still opens every query's span.
        frames = make_frames()
        with GestureSession(SessionConfig(trace_sample_rate=1.0)) as session:
            session.deploy('SELECT "low" MATCHING kinect_t(abs(rhand_y - 50) < 1);')
            session.deploy('SELECT "never" MATCHING kinect_t(abs(rhand_y - 900) < 1);')
            session.feed(frames, stream="kinect_t")
            spans = [
                event["name"]
                for event in session.export_trace()["traceEvents"]
                if event["cat"] == "matcher"
            ]
            assert sorted(set(spans)) == ["matcher:low", "matcher:never"]
            assert spans.count("matcher:never") == spans.count("matcher:low") == len(frames)
            assert session.detections("low")

    def test_aliased_query_is_one_name_in_spans_profile_and_stats(self):
        with GestureSession(SessionConfig(trace_sample_rate=1.0)) as session:
            session.deploy(HIGH, name="high_v2")
            session.feed(make_frames(players=1, rounds=4), stream="kinect_t")
            spans = {
                event["name"]
                for event in session.export_trace()["traceEvents"]
                if event["cat"] == "matcher"
            }
            assert spans == {"matcher:high_v2"}
            rows = session.profile()["queries"]
            assert set(rows) == {"high_v2"}
            assert rows["high_v2"]["spans"] == 4
            assert rows["high_v2"]["cpu_share"] == 1.0
            assert rows["high_v2"]["stats"]["tuples_processed"] == 4

    def test_export_trace_writes_file(self, tmp_path):
        config = SessionConfig(trace_sample_rate=1.0)
        path = tmp_path / "trace.json"
        with GestureSession(config) as session:
            session.deploy(HIGH)
            session.feed(make_frames(), stream="kinect_t")
            document = session.export_trace(path)
        assert json.loads(path.read_text(encoding="utf-8")) == document
        assert "Per-stage latency" in summarize_trace(document)

    def test_detections_identical_with_and_without_telemetry(self):
        frames = make_frames()
        results = []
        for config in (SessionConfig(telemetry=False), SessionConfig(),
                       SessionConfig(trace_sample_rate=1.0)):
            with GestureSession(config) as session:
                session.deploy(HIGH)
                session.feed(frames, stream="kinect_t")
                assert session.health().status == "ok"  # a read, not a feed
                results.append([d.to_state() for d in session.detections()])
        assert results[0], "workload produced no detections"
        assert all(result == results[0] for result in results[1:])


class TestShardedSession:
    def test_thread_shards_connect_one_trace(self):
        config = SessionConfig(shards=4, trace_sample_rate=1.0)
        with GestureSession(config) as session:
            session.deploy(HIGH)
            session.feed(make_frames(), stream="kinect_t")
            session.drain()
            events = session.export_trace()["traceEvents"]
            categories = {event["cat"] for event in events}
            assert {"ingest", "queue", "shard", "matcher"} <= categories
            assert len({event["args"]["trace_id"] for event in events}) == 1

    def test_sharded_histograms_and_query_stats_merge(self):
        config = SessionConfig(shards=4)
        with GestureSession(config) as session:
            session.deploy(HIGH)
            session.feed(make_frames(), stream="kinect_t")
            session.drain()
            stats = session.query_stats()
            assert stats["high"]["runs_started"] > 0
            merged = session.metrics.merged_histograms()
            assert merged["queue_wait"].count >= 1
            assert merged["batch_processing"].count >= 1
            assert merged["ingest_to_detection"].count > 0
            text = session.metrics.to_prometheus()
            assert "repro_queue_wait_seconds_bucket" in text
            assert 'repro_query_runs_started_total{query="high"}' in text

    def test_process_shards_one_trace_across_pids(self):
        config = SessionConfig(
            shards=2, shard_executor="process", trace_sample_rate=1.0
        )
        with GestureSession(config) as session:
            session.deploy(HIGH)
            session.feed(make_frames(), stream="kinect_t")
            session.drain()
            stats = session.query_stats()
            assert stats["high"]["runs_started"] > 0
            events = session.export_trace()["traceEvents"]
            categories = {event["cat"] for event in events}
            assert {"ingest", "queue", "shard", "matcher"} <= categories
            assert len({event["args"]["trace_id"] for event in events}) == 1
            worker_pids = {
                event["pid"] for event in events if event["cat"] in ("shard", "matcher")
            }
            parent_pids = {event["pid"] for event in events if event["cat"] == "ingest"}
            assert worker_pids and not (worker_pids & parent_pids)


class TestGateway:
    def test_gateway_metrics_and_trace_connect_to_shard_worker(self):
        config = GatewayConfig(
            port=0,
            tenants={
                "t1": TenantConfig(
                    session=SessionConfig(shards=4, trace_sample_rate=1.0)
                )
            },
        )

        async def scenario():
            server = GatewayServer(config)
            await server.start()
            try:
                client = await GatewayClient.connect("127.0.0.1", server.port)
                await client.hello("t1")
                assert await client.deploy(HIGH) == ["high"]
                ack = await client.send_tuples(make_frames(), stream="kinect_t")
                assert ack["accepted"] > 0
                await client.drain()

                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                await writer.drain()
                raw = await reader.read(-1)
                writer.close()
                text = raw.split(b"\r\n\r\n", 1)[1].decode("utf-8")

                session = server.tenants["t1"].session
                loop = asyncio.get_running_loop()
                document = await loop.run_in_executor(None, session.export_trace)
                await client.bye()
                return text, document
            finally:
                await server.close()

        text, document = run(scenario())
        for family in (
            "repro_gateway_request_seconds",
            "repro_queue_wait_seconds",
            "repro_batch_processing_seconds",
            "repro_ingest_to_detection_seconds",
        ):
            assert f"{family}_bucket" in text
            assert f"{family}_sum" in text
            assert f"{family}_count" in text
        assert 'le="+Inf"' in text
        assert 'repro_query_runs_started_total{query="high",tenant="t1"}' in text

        events = document["traceEvents"]
        gateway_traces = {
            event["args"]["trace_id"] for event in events if event["cat"] == "gateway"
        }
        assert gateway_traces
        connected = [
            event for event in events if event["args"]["trace_id"] in gateway_traces
        ]
        categories = {event["cat"] for event in connected}
        assert {"gateway", "ingest", "queue", "shard", "matcher"} <= categories

    def test_request_histogram_counts_every_tuples_frame(self):
        async def scenario():
            server = GatewayServer(GatewayConfig(port=0))
            await server.start()
            try:
                client = await GatewayClient.connect("127.0.0.1", server.port)
                await client.hello("t1")
                await client.deploy(HIGH)
                for _ in range(3):
                    await client.send_tuples(make_frames(rounds=2), stream="kinect_t")
                await client.bye()
                return server.metrics.snapshot()
            finally:
                await server.close()

        snapshot = run(scenario())
        assert snapshot["request_latency"]["count"] == 3
        assert snapshot["request_latency"]["max_seconds"] > 0


class TestTelemetryConfig:
    @pytest.mark.parametrize("field, value", [
        ("trace_sample_rate", 1.5),
        ("trace_sample_rate", -0.1),
    ])
    def test_invalid_telemetry_config_rejected(self, field, value):
        with pytest.raises(ValueError):
            SessionConfig(**{field: value})

    @pytest.mark.parametrize("rate", [0.0, 0.25, 1.0])
    def test_the_session_tracer_samples_at_the_configured_rate(self, rate):
        with GestureSession(SessionConfig(trace_sample_rate=rate)) as session:
            assert session.tracer.sample_rate == rate
            assert session.tracer.active == (rate > 0)
            assert session.tracer.buffer_size == 4096


def boom(value):
    """Poison UDF; module-level so it pickles to process shards."""
    return 1 / 0


class TestTelemetryUnderFailure:
    """Telemetry merging when a process shard dies, and ring overflow."""

    def test_process_shard_death_leaves_parent_telemetry_mergeable(self):
        from repro.errors import ShardFailedError
        from repro.runtime import HashPartitionRouter, ShardedRuntime
        from repro.runtime.shard import ShardEngineSpec

        spec = ShardEngineSpec(install_view=False, telemetry=1.0)
        router = HashPartitionRouter(2)
        p_bad = 1
        p_good = next(
            p for p in range(2, 20)
            if router.shard_for_key(p) != router.shard_for_key(p_bad)
        )
        runtime = ShardedRuntime(shard_count=2, spec=spec, executor="process")
        runtime.start()
        try:
            runtime.register_function("boom", boom, 1)
            runtime.register_query(HIGH)
            # Healthy work on both shards, pulled parent-side while alive.
            clean = [
                {"ts": index * 0.01, "player": player, "rhand_y": 500.0}
                for index in range(30)
                for player in (p_bad, p_good)
            ]
            runtime.push_many("kinect_t", clean)
            runtime.drain()
            runtime.collect_telemetry(timeout=10.0)
            merged_before = runtime.metrics.merged_histograms()
            count_before = merged_before["batch_processing"].count
            assert count_before >= 1

            # The boom() query poisons the next tuple on one partition.
            runtime.register_query(
                'SELECT "b" MATCHING kinect_t(boom(rhand_y) > 0);'
            )
            runtime.push_many(
                "kinect_t", [{"ts": 9.0, "player": p_bad, "rhand_y": 1.0}]
            )
            with pytest.raises(ShardFailedError):
                runtime.drain()
            assert runtime.failed

            # The collected telemetry survives the death: parent-side
            # merges still read, and further collection is a safe no-op.
            runtime.collect_telemetry(timeout=1.0)
            merged_after = runtime.metrics.merged_histograms()
            assert merged_after["batch_processing"].count >= count_before
            assert runtime.tracer.spans() is not None
            liveness = runtime.shard_liveness()
            assert {row["shard_id"] for row in liveness} == {0, 1}
        finally:
            import contextlib

            with contextlib.suppress(ShardFailedError):
                runtime.stop()

    def test_tracer_ring_overflow_keeps_newest_spans(self):
        from repro.observability.tracing import Tracer

        tracer = Tracer(sample_rate=1.0, buffer_size=8)
        context = tracer.sample("req")
        for index in range(50):
            tracer.record(
                f"span-{index}", "shard", context.child("shard"),
                float(index), float(index) + 0.5,
            )
        spans = tracer.spans()
        assert len(spans) == 8
        assert [event["name"] for event in spans] == [
            f"span-{index}" for index in range(42, 50)
        ]
        # An absorb over capacity is bounded the same way and stays sorted.
        tracer.absorb(
            [
                {"name": f"late-{index}", "ph": "X", "ts": 1e9 + index, "dur": 1.0}
                for index in range(20)
            ]
        )
        absorbed = tracer.spans()
        assert len(absorbed) == 8
        assert all(event["name"].startswith("late-") for event in absorbed)
        timestamps = [event["ts"] for event in absorbed]
        assert timestamps == sorted(timestamps)
