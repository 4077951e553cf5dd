"""Unit tests of the gateway's building blocks.

Covers the RFC 6455 codec (masking, length encodings, fragmentation,
protocol violations), the small HTTP reader, the JSON application
protocol and its packed ``tuples`` frames (round trip against the JSON
spelling, what the packer refuses, hostile bytes), the Prometheus
exposition helpers (including label escaping),
the token bucket, the per-tenant async ingest queue's policy matrix, and a
tenant's feed: the edge is its only drop point, and a failed feed stops it.
The end-to-end server behaviour lives in ``test_gateway_server.py``.
"""

from __future__ import annotations

import asyncio
import json
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api.session import SessionConfig
from repro.errors import (
    BackpressureError,
    ConnectionClosedError,
    GatewayError,
    GatewayProtocolError,
    MessageTooBigError,
    WebSocketError,
)
from repro.gateway import GatewayClient, GatewayConfig, GatewayServer, http, protocol, websocket
from repro.gateway.tenants import (
    AsyncIngestQueue,
    BackpressurePolicy,
    Tenant,
    TenantConfig,
    TokenBucket,
)
from repro.observability.registry import Family, exposition
from repro.runtime.metrics import MetricsRegistry


def run(coroutine):
    """Run one coroutine on a fresh loop (the suite has no asyncio plugin)."""
    return asyncio.run(coroutine)


def make_stream(payload: bytes) -> asyncio.StreamReader:
    """A pre-fed StreamReader (call inside a running loop only)."""
    reader = asyncio.StreamReader()
    reader.feed_data(payload)
    reader.feed_eof()
    return reader


class _SinkWriter:
    """A minimal StreamWriter stand-in capturing written bytes."""

    def __init__(self):
        self.data = bytearray()
        self.closed = False

    def write(self, data):
        self.data.extend(data)

    async def drain(self):
        return None

    def close(self):
        self.closed = True


def run_ws(wire: bytes, action, **kwargs):
    """Build a server-role connection over ``wire`` and run ``action`` on it.

    Returns ``(outcome, connection)`` where ``outcome`` is the action's
    result or the exception it raised — so tests can assert on both the
    error and the connection's post-mortem state.
    """

    async def scenario():
        connection = websocket.WebSocketConnection(
            make_stream(wire), _SinkWriter(), role="server", **kwargs
        )
        try:
            outcome = await action(connection)
        except Exception as error:  # noqa: BLE001 — handed back for asserting
            outcome = error
        return outcome, connection

    return asyncio.run(scenario())


def client_frame(opcode: int, payload: bytes, fin: bool = True) -> bytes:
    return websocket.encode_frame(opcode, payload, masked=True, fin=fin)


class TestWebSocketCodec:
    def test_accept_key_matches_the_rfc_example(self):
        # RFC 6455 §1.3's worked example.
        assert (
            websocket.accept_key("dGhlIHNhbXBsZSBub25jZQ==")
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        )

    @pytest.mark.parametrize("size", [0, 1, 125, 126, 65535, 65536, 70000])
    def test_mask_roundtrip_across_length_encodings(self, size):
        payload = bytes(i % 251 for i in range(size))
        wire = client_frame(websocket.OP_BINARY, payload)
        (opcode, received), _ = run_ws(wire, lambda c: c.receive_message())
        assert opcode == websocket.OP_BINARY
        assert received == payload

    def test_fragmented_message_is_reassembled(self):
        wire = (
            client_frame(websocket.OP_TEXT, b"hel", fin=False)
            + client_frame(websocket.OP_CONTINUATION, b"lo ", fin=False)
            + client_frame(websocket.OP_CONTINUATION, b"world", fin=True)
        )
        text, _ = run_ws(wire, lambda c: c.receive())
        assert text == "hello world"

    def test_ping_is_answered_between_fragments(self):
        wire = (
            client_frame(websocket.OP_TEXT, b"a", fin=False)
            + client_frame(websocket.OP_PING, b"k")
            + client_frame(websocket.OP_CONTINUATION, b"b", fin=True)
        )
        text, connection = run_ws(wire, lambda c: c.receive())
        assert text == "ab"
        # The pong went out on the writer, unmasked (server role).
        data = bytes(connection._writer.data)
        assert data[0] == 0x80 | websocket.OP_PONG
        assert data[1] == 1 and data[2:3] == b"k"

    def test_unmasked_client_frame_fails_with_1002(self):
        wire = websocket.encode_frame(websocket.OP_TEXT, b"x", masked=False)
        outcome, connection = run_ws(wire, lambda c: c.receive_message())
        assert isinstance(outcome, WebSocketError)
        assert connection.closed

    def test_reserved_bits_fail_the_connection(self):
        frame = bytearray(client_frame(websocket.OP_TEXT, b"x"))
        frame[0] |= 0x40  # RSV1 without a negotiated extension
        outcome, _ = run_ws(bytes(frame), lambda c: c.receive_message())
        assert isinstance(outcome, WebSocketError)

    def test_fragmented_control_frame_is_rejected(self):
        wire = client_frame(websocket.OP_PING, b"x", fin=False)
        outcome, _ = run_ws(wire, lambda c: c.receive_message())
        assert isinstance(outcome, WebSocketError)

    def test_continuation_without_a_message_is_rejected(self):
        wire = client_frame(websocket.OP_CONTINUATION, b"x")
        outcome, _ = run_ws(wire, lambda c: c.receive_message())
        assert isinstance(outcome, WebSocketError)

    def test_interleaved_data_frame_is_rejected(self):
        wire = client_frame(websocket.OP_TEXT, b"a", fin=False) + client_frame(
            websocket.OP_TEXT, b"b"
        )
        outcome, _ = run_ws(wire, lambda c: c.receive_message())
        assert isinstance(outcome, WebSocketError)

    def test_oversized_frame_raises_message_too_big(self):
        wire = client_frame(websocket.OP_BINARY, b"x" * 256)
        outcome, _ = run_ws(wire, lambda c: c.receive_message(), max_message_bytes=128)
        assert isinstance(outcome, MessageTooBigError)

    def test_oversized_reassembled_message_raises_too(self):
        wire = client_frame(websocket.OP_TEXT, b"x" * 100, fin=False) + client_frame(
            websocket.OP_CONTINUATION, b"y" * 100
        )
        outcome, _ = run_ws(wire, lambda c: c.receive_message(), max_message_bytes=128)
        assert isinstance(outcome, MessageTooBigError)

    def test_close_frame_raises_connection_closed_with_code(self):
        import struct

        payload = struct.pack(">H", 1001) + b"going away"
        wire = client_frame(websocket.OP_CLOSE, payload)
        outcome, connection = run_ws(wire, lambda c: c.receive_message())
        assert isinstance(outcome, ConnectionClosedError)
        assert outcome.code == 1001
        assert connection.close_reason == "going away"

    def test_abrupt_eof_raises_connection_closed(self):
        # The peer vanished before sending any frame.
        outcome, _ = run_ws(b"", lambda c: c.receive_message())
        assert isinstance(outcome, ConnectionClosedError)

    def test_receive_types_a_message_by_its_opcode(self):
        wire = client_frame(websocket.OP_BINARY, b"{}") + client_frame(websocket.OP_TEXT, b"{}")

        async def both(connection):
            return await connection.receive(), await connection.receive()

        outcome, _ = run_ws(wire, both)
        assert outcome == (b"{}", "{}")

    def test_invalid_utf8_text_fails_with_websocket_error(self):
        wire = client_frame(websocket.OP_TEXT, b"\xff\xfe")
        outcome, _ = run_ws(wire, lambda c: c.receive())
        assert isinstance(outcome, WebSocketError)


class TestHttp:
    def test_read_request_parses_line_headers_and_query(self):
        async def scenario():
            reader = make_stream(
                b"GET /metrics?format=json HTTP/1.1\r\n"
                b"Host: example\r\n"
                b"Accept: text/plain\r\n\r\n"
            )
            return await http.read_request(reader)

        request = run(scenario())
        assert request.method == "GET"
        assert request.path == "/metrics"
        assert request.query == {"format": "json"}
        assert request.header("host") == "example"
        assert not request.wants_upgrade()

    def test_read_request_detects_upgrade(self):
        async def scenario():
            reader = make_stream(
                b"GET /ws HTTP/1.1\r\n"
                b"Connection: keep-alive, Upgrade\r\n"
                b"Upgrade: websocket\r\n\r\n"
            )
            return await http.read_request(reader)

        assert run(scenario()).wants_upgrade()

    def test_read_request_returns_none_on_clean_eof(self):
        async def scenario():
            return await http.read_request(make_stream(b""))

        assert run(scenario()) is None

    @pytest.mark.parametrize(
        "wire",
        [
            b"GARBAGE\r\n\r\n",
            b"GET /\r\n\r\n",  # missing version
            b"GET / HTTP/1.1\r\nBadHeader\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: zebra\r\n\r\n",
        ],
    )
    def test_malformed_requests_raise(self, wire):
        async def scenario():
            return await http.read_request(make_stream(wire))

        with pytest.raises(GatewayError):
            run(scenario())

    def test_oversized_body_is_refused(self):
        async def scenario():
            wire = b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"
            return await http.read_request(make_stream(wire), max_body_bytes=1024)

        with pytest.raises(GatewayError):
            run(scenario())

    def test_render_response_has_length_and_close(self):
        raw = http.render_response(200, b"ok\n")
        text = raw.decode()
        assert text.startswith("HTTP/1.1 200 OK\r\n")
        assert "Content-Length: 3" in text
        assert "Connection: close" in text
        assert text.endswith("\r\n\r\nok\n")


class TestApplicationProtocol:
    def test_decode_rejects_bad_json_and_shapes(self):
        for text in ["not json", "[1,2]", '{"no": "type"}', '{"type": 7}']:
            with pytest.raises(GatewayProtocolError) as info:
                protocol.decode_message(text)
            assert info.value.code == protocol.ErrorCode.BAD_MESSAGE
            assert not info.value.fatal

    def test_decode_rejects_unknown_type(self):
        with pytest.raises(GatewayProtocolError) as info:
            protocol.decode_message('{"type": "launch_missiles"}')
        assert info.value.code == protocol.ErrorCode.UNSUPPORTED_TYPE

    def test_require_records_validates_shape(self):
        with pytest.raises(GatewayProtocolError):
            protocol.require_records({"records": []})
        with pytest.raises(GatewayProtocolError):
            protocol.require_records({"records": [1, 2]})
        with pytest.raises(GatewayProtocolError):
            protocol.require_records({"records": [{}], "batch": 0})
        assert protocol.require_records({"records": [{"ts": 1}]}) == [{"ts": 1}]

    def test_validate_hello_rejects_future_protocol(self):
        with pytest.raises(GatewayProtocolError) as info:
            protocol.validate_hello({"tenant": "a", "protocol": 99})
        assert info.value.code == protocol.ErrorCode.UNSUPPORTED_PROTOCOL
        assert info.value.fatal

    def test_encode_is_compact_and_stable(self):
        assert protocol.encode_message({"b": 1, "a": 2}) == '{"a":2,"b":1}'


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


@st.composite
def packable_records(draw):
    """Record lists :func:`protocol.pack_tuples` accepts: one key order, one
    of ``float`` / ``int`` per field, every float there is, ints to the limits."""
    names = draw(st.lists(st.text(max_size=6), min_size=1, max_size=6, unique=True))
    columns = [
        st.floats() if draw(st.booleans()) else st.integers(INT64_MIN, INT64_MAX)
        for _ in names
    ]
    rows = draw(st.lists(st.tuples(*columns), min_size=1, max_size=5))
    return [dict(zip(names, row)) for row in rows]


def exact(message):
    """``message`` with every record value as (type, exact text): ``-0.0`` is
    not ``0.0``, ``1`` is not ``1.0``; key order does not count (JSON sorts)."""
    records = [
        {key: (type(value).__name__, value.hex() if isinstance(value, float) else value)
         for key, value in record.items()}
        for record in message["records"]
    ]
    return dict(message, records=records)


def packed_frame(header, rows=b"", header_length=None):
    """A binary frame from its parts; ``header`` is bytes or a JSON-able object."""
    if not isinstance(header, bytes):
        header = json.dumps(header).encode("utf-8")
    length = len(header) if header_length is None else header_length
    return struct.pack(">I", length) + header + rows


def assert_bad_message(frame):
    with pytest.raises(GatewayProtocolError) as info:
        protocol.decode_message(frame)
    assert info.value.code == protocol.ErrorCode.BAD_MESSAGE
    assert not info.value.fatal


ONE_ROW = struct.pack("<dq", 1.5, 7)


class TestPackedTuplesFrames:
    ENVELOPE = {"type": "tuples", "stream": "kinect_t", "batch": 8, "seq": 3, "id": "9"}

    @settings(max_examples=200, deadline=None)
    @given(packable_records())
    @example([{"f": -0.0, "i": INT64_MIN}, {"f": 5e-324, "i": INT64_MAX}])
    @example([{"f": float("nan")}, {"f": float("inf")}, {"f": float("-inf")}])
    def test_packed_and_json_spellings_decode_to_the_same_message(self, records):
        packed = protocol.pack_tuples(self.ENVELOPE, records)
        assert isinstance(packed, bytes)
        text = protocol.encode_message(dict(self.ENVELOPE, records=records))
        assert exact(protocol.decode_message(packed)) == exact(protocol.decode_message(text))
        assert protocol.require_records(protocol.decode_message(packed))

    def test_doubles_travel_bit_for_bit_and_keys_keep_their_order(self):
        # JSON cannot carry a NaN's payload; the packed frame does.
        (quiet_nan_with_payload,) = struct.unpack("<d", bytes.fromhex("efbeadde0000f87f"))
        records = [{"ts": 0.1 + 0.2, "player": 3, "x": quiet_nan_with_payload}]
        (decoded,) = protocol.decode_message(protocol.pack_tuples({"type": "tuples"}, records))[
            "records"
        ]
        assert list(decoded) == ["ts", "player", "x"]
        assert [type(value) for value in decoded.values()] == [float, int, float]
        assert struct.pack("<dqd", *decoded.values()) == struct.pack("<dqd", *records[0].values())

    REFUSED = {
        "ragged key order": [{"a": 1.0, "b": 2.0}, {"b": 2.0, "a": 1.0}],
        "a missing key": [{"a": 1.0, "b": 2.0}, {"a": 1.0}],
        "a str value": [{"a": 1.0, "b": "two"}],
        "a bool value": [{"a": 1.0, "b": True}],
        "a None value": [{"a": 1.0, "b": None}],
        "an int beyond 64 bits": [{"a": 1.0, "b": 1}, {"a": 1.0, "b": INT64_MAX + 1}],
        "a field that is int here and float there": [{"a": 1.0, "b": 1}, {"a": 1.0, "b": 1.0}],
        "a nested value": [{"a": 1.0, "b": [1.0]}],
        "no fields": [{}],
        "too many fields": [{f"f{n}": 0.0 for n in range(protocol.MAX_PACKED_FIELDS + 1)}],
    }

    @pytest.mark.parametrize("case", REFUSED)
    def test_records_the_packer_refuses_travel_as_json_text(self, case):
        records = self.REFUSED[case]
        assert protocol.pack_tuples({"type": "tuples"}, records) is None

        async def scenario():
            server = await GatewayServer(GatewayConfig(port=0, max_message_bytes=1 << 22)).start()
            try:
                client = await GatewayClient.connect("127.0.0.1", server.port)
                await client.hello("t")
                client.ws.send_binary = None  # a packed frame would fail the test
                ack = await client.send_tuples(records, stream="kinect_t")
                await client.drain()
                await client.close()
                return ack, server.tenants["t"].tuples_fed
            finally:
                await server.close()

        ack, fed = run(scenario())
        assert (ack["accepted"], ack["dropped"], fed) == (len(records), 0, len(records))

    def test_empty_records_are_refused_by_the_packer_and_by_the_server_as_before(self):
        assert protocol.pack_tuples({"type": "tuples"}, []) is None
        with pytest.raises(GatewayProtocolError):
            protocol.require_records(
                protocol.decode_message(packed_frame({"type": "tuples", "fields": ["a"], "formats": "d"}))
            )

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=256))
    def test_arbitrary_bytes_are_a_bad_message(self, frame):
        assert_bad_message(frame)

    MALFORMED = {
        "shorter than the length prefix": b"\x00\x00",
        "header length past the end": packed_frame(
            {"type": "tuples", "fields": ["a", "b"], "formats": "dq"}, ONE_ROW, header_length=4096
        ),
        "header length of 4 GiB": packed_frame(b"{}", header_length=2**32 - 1),
        "fewer formats than fields": packed_frame(
            {"type": "tuples", "fields": ["a", "b"], "formats": "d"}, ONE_ROW
        ),
        "duplicate field names": packed_frame(
            {"type": "tuples", "fields": ["a", "a"], "formats": "dq"}, ONE_ROW
        ),
        "a field name that is not a string": packed_frame(
            {"type": "tuples", "fields": ["a", 7], "formats": "dq"}, ONE_ROW
        ),
        "an unhashable field name": packed_frame(
            {"type": "tuples", "fields": ["a", ["b"]], "formats": "dq"}, ONE_ROW
        ),
        "an unknown format code": packed_frame(
            {"type": "tuples", "fields": ["a", "b"], "formats": "ds"}, ONE_ROW
        ),
        "a repeat count in formats": packed_frame(
            {"type": "tuples", "fields": ["a", "b"], "formats": "2d"}, ONE_ROW
        ),
        "formats as a list": packed_frame(
            {"type": "tuples", "fields": ["a", "b"], "formats": ["d", "q"]}, ONE_ROW
        ),
        "fields missing": packed_frame({"type": "tuples", "formats": "dq"}, ONE_ROW),
        "no fields at all": packed_frame({"type": "tuples", "fields": [], "formats": ""}, b""),
        "more fields than allowed": packed_frame(
            {
                "type": "tuples",
                "fields": [str(n) for n in range(protocol.MAX_PACKED_FIELDS + 1)],
                "formats": "d" * (protocol.MAX_PACKED_FIELDS + 1),
            }
        ),
        "rows that are not whole": packed_frame(
            {"type": "tuples", "fields": ["a", "b"], "formats": "dq"}, ONE_ROW + b"\x00"
        ),
        "a header that is not UTF-8": packed_frame(b"\xff\xfe{}", ONE_ROW),
        "a header in UTF-16": packed_frame(
            json.dumps({"type": "tuples", "fields": ["a", "b"], "formats": "dq"}).encode("utf-16"),
            ONE_ROW,
        ),
        "a header that is not JSON": packed_frame(b"{type: tuples}", ONE_ROW),
        "a header nested beyond the parser": packed_frame(b"[" * 100_000, ONE_ROW),
        "a header that is not an object": packed_frame([1, 2], ONE_ROW),
        "a message that is not tuples": packed_frame(
            {"type": "hello", "tenant": "t", "fields": ["a", "b"], "formats": "dq"}, ONE_ROW
        ),
        "plain JSON sent as a binary message": b'{"type":"ping"}',
    }

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_packed_frames_are_a_bad_message(self, case):
        assert_bad_message(self.MALFORMED[case])

    @settings(max_examples=300, deadline=None)
    @given(packable_records(), st.data())
    def test_a_damaged_frame_decodes_or_is_a_bad_message(self, records, data):
        frame = bytearray(protocol.pack_tuples({"type": "tuples"}, records))
        if data.draw(st.booleans()):
            del frame[data.draw(st.integers(0, len(frame) - 1)) :]
        else:
            frame[data.draw(st.integers(0, len(frame) - 1))] = data.draw(st.integers(0, 255))
        try:
            message = protocol.decode_message(bytes(frame))
        except GatewayProtocolError as error:
            assert error.code == protocol.ErrorCode.BAD_MESSAGE
        else:
            assert message["type"] == "tuples"
            assert all(isinstance(record, dict) for record in message["records"])

    def test_server_messages_decode_from_either_spelling_too(self):
        packed = protocol.pack_tuples({"type": "tuples"}, [{"a": 1.0}])
        assert protocol.decode_server_message(packed)["records"] == [{"a": 1.0}]
        with pytest.raises(GatewayProtocolError):
            protocol.decode_server_message(b"\x00")


class TestPrometheusExposition:
    FAMILY = Family("test", "repro_test_total", "counter", "A test counter.")

    def test_label_values_are_escaped(self):
        text = exposition([(self.FAMILY, {"path": 'a"b\\c\nd'}, 1)])
        assert text.splitlines()[-1] == 'repro_test_total{path="a\\"b\\\\c\\nd"} 1'

    def test_sample_with_labels_is_sorted_and_escaped(self):
        text = exposition([(self.FAMILY, {"tenant": 'say "hi"\n', "shard": "0"}, 3)])
        assert text.splitlines()[-1] == (
            'repro_test_total{shard="0",tenant="say \\"hi\\"\\n"} 3'
        )

    def test_registry_exposition_has_families_and_tenant_label(self):
        registry = MetricsRegistry()
        registry.shard(0).add(tuples_enqueued=5)
        registry.shard(1).add(tuples_processed=3, batches_processed=1, busy_seconds=0.5)
        text = registry.to_prometheus({"tenant": "arcade"})
        assert text.endswith("\n")
        assert "# TYPE repro_shard_tuples_enqueued_total counter" in text
        assert (
            'repro_shard_tuples_enqueued_total{shard="0",tenant="arcade"} 5'
            in text
        )
        assert (
            'repro_shard_tuples_processed_total{shard="1",tenant="arcade"} 3'
            in text
        )
        # Every sample line carries the extra label.
        for line in text.splitlines():
            if line and not line.startswith("#"):
                assert 'tenant="arcade"' in line

    def test_exposition_parses_as_utf8_and_has_help_per_family(self):
        registry = MetricsRegistry()
        registry.shard(0)
        text = registry.to_prometheus()
        families = [l.split()[2] for l in text.splitlines() if l.startswith("# TYPE")]
        helps = [l.split()[2] for l in text.splitlines() if l.startswith("# HELP")]
        assert families and set(families) == set(helps)


class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=10, burst=5, clock=lambda: now[0])
        assert bucket.consume(5) == 0.0
        wait = bucket.consume(1)
        assert wait == pytest.approx(0.1)
        now[0] += 0.1
        assert bucket.consume(1) == 0.0

    def test_failed_consume_keeps_tokens(self):
        now = [0.0]
        bucket = TokenBucket(rate=1, burst=2, clock=lambda: now[0])
        assert bucket.consume(2) == 0.0
        assert bucket.consume(2) > 0
        now[0] += 1.0
        assert bucket.consume(1) == 0.0  # the failed attempt burned nothing


class TestAsyncIngestQueuePolicyMatrix:
    def records(self, count):
        return [{"ts": float(i)} for i in range(count)]

    def test_error_policy_raises_when_full(self):
        async def scenario():
            queue = AsyncIngestQueue(capacity=4, policy="error")
            await queue.put_tuples(None, self.records(4), None)
            with pytest.raises(BackpressureError):
                await queue.put_tuples(None, self.records(1), None)

        run(scenario())

    def test_drop_newest_rejects_the_offered_chunk_whole(self):
        async def scenario():
            queue = AsyncIngestQueue(capacity=4, policy="drop_newest")
            assert await queue.put_tuples(None, self.records(3), None) == 0
            assert await queue.put_tuples(None, self.records(2), None) == 2
            assert queue.depth == 3  # the backlog kept its guarantee
            item = await queue.get()
            assert [r["ts"] for r in item.records] == [0.0, 1.0, 2.0]

        run(scenario())

    def test_drop_newest_admits_oversized_chunk_against_empty_queue(self):
        async def scenario():
            queue = AsyncIngestQueue(capacity=4, policy="drop_newest")
            assert await queue.put_tuples(None, self.records(9), None) == 0
            assert queue.depth == 9

        run(scenario())

    def test_drop_oldest_evicts_older_tuples_but_never_controls(self):
        async def scenario():
            queue = AsyncIngestQueue(capacity=4, policy="drop_oldest")
            await queue.put_tuples(None, self.records(2), None)
            future = queue.put_control("drain")
            await queue.put_tuples("s2", self.records(2), None)
            dropped = await queue.put_tuples("s3", self.records(2), None)
            assert dropped == 2
            assert queue.depth == 4
            first = await queue.get()
            assert first.kind == "control" and first.future is future
            streams = [(await queue.get()).stream for _ in range(2)]
            assert streams == ["s2", "s3"]

        run(scenario())

    def test_block_policy_waits_for_the_consumer(self):
        async def scenario():
            queue = AsyncIngestQueue(capacity=2, policy="block")
            await queue.put_tuples(None, self.records(2), None)
            produced = asyncio.ensure_future(
                queue.put_tuples(None, self.records(2), None)
            )
            await asyncio.sleep(0.01)
            assert not produced.done()  # blocked: queue is full
            await queue.get()
            assert await asyncio.wait_for(produced, 1.0) == 0

        run(scenario())

    def test_close_wakes_blocked_producers_with_an_error(self):
        async def scenario():
            queue = AsyncIngestQueue(capacity=1, policy="block")
            await queue.put_tuples(None, self.records(1), None)
            produced = asyncio.ensure_future(
                queue.put_tuples(None, self.records(1), None)
            )
            await asyncio.sleep(0.01)
            queue.close()
            with pytest.raises(GatewayError):
                await asyncio.wait_for(produced, 1.0)

        run(scenario())

    def test_get_returns_none_once_closed_and_empty(self):
        async def scenario():
            queue = AsyncIngestQueue(capacity=2, policy="block")
            await queue.put_tuples(None, self.records(1), None)
            queue.close()
            assert (await queue.get()) is not None  # drain-on-close
            assert (await queue.get()) is None

        run(scenario())


class TestTenantConfigValidation:
    def test_rejects_unknown_policy_and_bad_bounds(self):
        with pytest.raises(ValueError):
            TenantConfig(policy="yolo")
        with pytest.raises(ValueError):
            TenantConfig(pending_capacity=0)
        with pytest.raises(ValueError):
            TenantConfig(max_connections=0)
        with pytest.raises(ValueError):
            TenantConfig(rate_limit_tuples_per_second=-1)

    @pytest.mark.parametrize("policy", BackpressurePolicy.ALL)
    def test_every_edge_policy_is_accepted(self, policy):
        assert TenantConfig(policy=policy).policy == policy


HIGH = 'SELECT "high" MATCHING kinect_t(rhand_y > 450);'


def kinect_t_records(count, start=0):
    return [
        {"ts": (start + i) * 0.01, "player": 1 + (start + i) % 4, "rhand_y": 500.0}
        for i in range(count)
    ]


class TestTenantFeed:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    @pytest.mark.parametrize("policy", BackpressurePolicy.ALL)
    def test_the_edge_is_the_only_drop_point(self, policy, executor):
        config = TenantConfig(
            policy=policy,
            pending_capacity=64,
            session=SessionConfig(shards=2, shard_executor=executor, queue_capacity=8),
        )

        async def scenario():
            tenant = Tenant("t", config)
            await tenant.ensure_started()
            try:
                await tenant.control("deploy", {"query": HIGH})
                offered = 0
                for frame in range(50):
                    records = kinect_t_records(40, start=frame * 40)
                    try:
                        await tenant.ingest(records, "kinect_t", None)
                    except BackpressureError:
                        assert policy == BackpressurePolicy.ERROR
                        break
                    offered += len(records)
                await tenant.control("drain")
                totals = tenant.session.metrics.totals()
                return offered, tenant.tuples_fed, tenant.tuples_dropped, totals
            finally:
                await tenant.close()

        offered, fed, dropped, totals = run(scenario())
        assert fed == totals["tuples_processed"]
        assert offered == fed + dropped
        assert fed > 0
        if policy == BackpressurePolicy.BLOCK:
            assert fed == 2000 and dropped == 0
        elif policy != BackpressurePolicy.ERROR:
            assert dropped > 0

    def test_a_failed_tenant_feeds_nothing_more(self):
        async def scenario():
            tenant = Tenant("t", TenantConfig())
            await tenant.ensure_started()
            try:
                await tenant.control("deploy", {"query": HIGH})
                # A raw frame without torso fields fails the kinect_t view.
                await tenant.ingest([{"ts": 0.0, "player": 1}], None, None)
                await tenant.ingest(kinect_t_records(3), "kinect_t", None)
                drain = tenant.control("drain")
                with pytest.raises(GatewayError, match="failed") as caught:
                    await drain
                assert isinstance(caught.value.__cause__, KeyError)
                assert isinstance(tenant.failure, KeyError)
                assert tenant.tuples_fed == 0
                assert tenant.session.events == []
                with pytest.raises(GatewayError, match="failed"):
                    tenant.control("drain")
            finally:
                await tenant.close()
            return tenant

        tenant = run(scenario())
        assert tenant.session.closed
