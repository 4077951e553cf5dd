"""Unit tests for repro.streams.stream."""

import pytest

from repro.errors import QueryRegistrationError, SchemaError, UnknownStreamError
from repro.streams.stream import Stream, StreamRegistry


class TestStream:
    def test_requires_a_name(self):
        with pytest.raises(ValueError):
            Stream("")

    def test_push_delivers_to_subscriber(self):
        stream = Stream("s")
        received = []
        stream.subscribe(received.append)
        stream.push({"a": 1})
        assert received == [{"a": 1}]

    def test_push_delivers_to_all_subscribers_in_order(self):
        stream = Stream("s")
        order = []
        stream.subscribe(lambda item: order.append("first"))
        stream.subscribe(lambda item: order.append("second"))
        stream.push({})
        assert order == ["first", "second"]

    def test_unsubscribe_stops_delivery(self):
        stream = Stream("s")
        received = []
        subscription = stream.subscribe(received.append)
        subscription.cancel()
        stream.push({"a": 1})
        assert received == []

    def test_subscriber_can_unsubscribe_during_delivery(self):
        stream = Stream("s")
        received = []
        subscription = stream.subscribe(lambda item: subscription.cancel())
        stream.subscribe(received.append)
        stream.push({"a": 1})
        stream.push({"a": 2})
        assert len(received) == 2

    def test_required_fields_are_enforced(self):
        stream = Stream("s", fields=["ts", "x"])
        with pytest.raises(SchemaError):
            stream.push({"ts": 0.0})

    def test_extra_fields_are_allowed(self):
        stream = Stream("s", fields=["ts"])
        stream.push({"ts": 0.0, "extra": 1})
        assert stream.stats.pushed == 1

    def test_pause_drops_tuples(self):
        stream = Stream("s")
        received = []
        stream.subscribe(received.append)
        stream.pause()
        stream.push({"a": 1})
        stream.resume()
        stream.push({"a": 2})
        assert received == [{"a": 2}]
        assert stream.stats.dropped == 1

    def test_stats_count_pushes_not_deliveries(self):
        # One subscription may stand for many consumers (the engine's query
        # fan-out), so "deliveries" is not counted; older snapshots carrying
        # the counter still restore.
        stream = Stream("s")
        stream.subscribe(lambda item: None)
        stream.subscribe(lambda item: None)
        stream.push({})
        stream.push({})
        assert stream.stats.snapshot() == {"pushed": 2, "dropped": 0}
        stream.restore_state({"stats": {"pushed": 7, "delivered": 14, "dropped": 1}})
        assert stream.stats.snapshot() == {"pushed": 7, "dropped": 1}

    def test_stats_reset(self):
        stream = Stream("s")
        stream.push({})
        stream.stats.reset()
        assert stream.stats.pushed == 0

    def test_push_many_returns_count(self):
        stream = Stream("s")
        assert stream.push_many([{}, {}, {}]) == 3

    def test_subscriber_count(self):
        stream = Stream("s")
        assert stream.subscriber_count == 0
        stream.subscribe(lambda item: None)
        assert stream.subscriber_count == 1


class TestPushBatch:
    def test_batch_subscriber_receives_the_whole_chunk_once(self):
        stream = Stream("s")
        chunks = []
        stream.subscribe(lambda item: None, batch_callback=chunks.append)
        assert stream.push_batch([{"a": 1}, {"a": 2}]) == 2
        assert chunks == [[{"a": 1}, {"a": 2}]]

    def test_per_tuple_subscribers_still_get_each_item(self):
        stream = Stream("s")
        received = []
        stream.subscribe(received.append)
        stream.push_batch([{"a": 1}, {"a": 2}])
        assert received == [{"a": 1}, {"a": 2}]

    def test_mixed_subscribers_see_the_same_tuples(self):
        stream = Stream("s")
        chunks, singles = [], []
        stream.subscribe(lambda item: None, batch_callback=chunks.append)
        stream.subscribe(singles.append)
        stream.push_batch([{"a": 1}, {"a": 2}, {"a": 3}])
        assert chunks[0] == singles

    def test_batch_stats_and_pause(self):
        stream = Stream("s")
        stream.subscribe(lambda item: None, batch_callback=lambda chunk: None)
        stream.subscribe(lambda item: None)
        stream.push_batch([{}, {}])
        assert stream.stats.pushed == 2
        stream.pause()
        assert stream.push_batch([{}, {}, {}]) == 0
        assert stream.stats.dropped == 3

    def test_batch_schema_validation_rejects_bad_tuples(self):
        stream = Stream("s", fields=["ts"])
        received = []
        stream.subscribe(received.append)
        with pytest.raises(SchemaError):
            stream.push_batch([{"ts": 0.0}, {"other": 1}])
        # The whole chunk is validated before any delivery happens.
        assert received == []

    def test_empty_batch_is_a_no_op(self):
        stream = Stream("s")
        stream.subscribe(lambda item: None)
        assert stream.push_batch([]) == 0
        assert stream.stats.pushed == 0


class TestStreamRegistry:
    def test_create_and_get(self):
        registry = StreamRegistry()
        stream = registry.create("kinect")
        assert registry.get("kinect") is stream

    def test_duplicate_registration_fails(self):
        registry = StreamRegistry()
        registry.create("kinect")
        with pytest.raises(QueryRegistrationError):
            registry.create("kinect")

    def test_unknown_stream_raises_with_available_names(self):
        registry = StreamRegistry()
        registry.create("kinect")
        with pytest.raises(UnknownStreamError, match="kinect"):
            registry.get("missing")

    def test_contains_and_names(self):
        registry = StreamRegistry()
        registry.create("b")
        registry.create("a")
        assert "a" in registry
        assert registry.names() == ["a", "b"]
        assert len(registry) == 2

    def test_remove_is_idempotent(self):
        registry = StreamRegistry()
        registry.create("a")
        registry.remove("a")
        registry.remove("a")
        assert "a" not in registry
