"""The shard protocol, tested at the transport seam.

``worker_loop`` talks only to ``receive()`` and ``send()``, so its side of
the contract is driven here synchronously over plain ``queue.Queue``s — no
worker thread, no spawn.  The parent side (:class:`Shard`) is driven by
handing it messages directly, over a transport that carries nothing.
"""

from __future__ import annotations

import queue
import threading
import time

import pytest

from repro.errors import RuntimeStateError, SerializationError, ShardFailedError
from repro.observability.clock import monotonic_time
from repro.runtime import MetricsRegistry
from repro.runtime.shard import Shard, ShardEngineSpec, worker_loop
from repro.runtime.transport import ProcessTransport

HIGH = 'SELECT "high" MATCHING kinect_t(rhand_y > 450);'
SPEC = ShardEngineSpec(install_view=False, raw_stream="kinect_t")


def deploy(token, text=HIGH, name="high"):
    return ("control", token, "deploy", (name, text, None, None))


def tuples(*values, meta=None):
    records = [
        {"ts": float(index), "player": 1, "rhand_y": value}
        for index, value in enumerate(values)
    ]
    return ("tuples", "kinect_t", records, None, meta)


def run_worker(*messages):
    """Run the loop to completion over ``messages`` (+ ``stop``); what it sent."""
    inbox, outbox = queue.Queue(), queue.Queue()
    for message in (*messages, ("stop",)):
        inbox.put(message)
    worker_loop(0, SPEC, inbox.get, outbox.put)
    return list(outbox.queue)


def kinds(sent):
    return [message[0] for message in sent]


def boom(value):
    return 1 / 0


class TestWorkerLoop:
    def test_stop_ends_with_bye(self):
        assert run_worker() == [("bye",)]

    def test_detections_leave_as_det_before_their_batch_is_done(self):
        sent = run_worker(deploy(1), tuples(500.0, 100.0, 480.0))
        assert kinds(sent) == ["ack", "det", "det", "done", "bye"]
        _tag, count, busy, queue_wait = sent[3]
        assert count == 3 and busy >= 0.0
        # No stamp came with the batch, so nothing was measured.
        assert queue_wait is None
        assert [message[2] for message in sent[1:3]] == [None, None]

    def test_latency_is_measured_worker_side_from_the_batch_stamp(self):
        stamp = (monotonic_time() - 0.25, None)
        sent = run_worker(deploy(1), tuples(500.0, meta=stamp))
        (_tag, detection, latency), done = sent[1], sent[2]
        assert detection.query_name == "high"
        assert 0.25 <= latency < 5.0
        assert 0.25 <= done[3] <= latency  # queue wait, taken at dequeue

    def test_a_failing_control_nacks_and_the_shard_lives(self):
        sent = run_worker(
            deploy(1, text="SELECT nonsense"),
            ("control", 2, "no_such_op", None),
            deploy(3),
            tuples(500.0),
        )
        assert kinds(sent) == ["nack", "nack", "ack", "det", "done", "bye"]
        _tag, token, error, remote_traceback = sent[0]
        assert token == 1 and isinstance(error, Exception)
        assert "Traceback" in remote_traceback
        assert isinstance(sent[1][2], ValueError)

    def test_flush_acks_only_after_earlier_batches(self):
        # The drain barrier: the inbox is FIFO, so a flush ack proves the
        # batches queued before it were processed, not merely dequeued.
        sent = run_worker(
            deploy(1), tuples(500.0), tuples(500.0), ("control", 2, "flush", None), tuples(500.0)
        )
        assert kinds(sent) == ["ack", "det", "done", "det", "done", "ack", "det", "done", "bye"]
        assert sent[5] == ("ack", 2, None)

    def test_only_plain_data_results_ride_the_ack(self):
        sent = run_worker(deploy(1), ("control", 2, "query_stats", None))
        assert sent[0] == ("ack", 1, None)  # the live DeployedQuery stays put
        assert "high" in sent[1][2]

    def test_a_data_path_exception_sends_failed_and_stops_reading(self):
        inbox, outbox = queue.Queue(), queue.Queue()
        for message in (
            ("control", 1, "register_function", ("boom", boom, 1)),
            deploy(2, text='SELECT "b" MATCHING kinect_t(boom(rhand_y) > 0);', name="b"),
            tuples(1.0),
            ("control", 3, "flush", None),
            ("stop",),
        ):
            inbox.put(message)
        worker_loop(0, SPEC, inbox.get, outbox.put)
        sent = list(outbox.queue)
        assert kinds(sent) == ["ack", "ack", "failed", "bye"]
        assert isinstance(sent[2][1], ZeroDivisionError)
        assert "boom" in sent[2][2]
        # The flush behind the poisoned batch is never answered by the
        # worker; releasing its caller is the parent's job (below).
        assert inbox.qsize() == 2

    def test_engine_construction_failure_is_reported(self):
        class BrokenSpec(ShardEngineSpec):
            def build(self):
                raise RuntimeError("no engine today")

        outbox = queue.Queue()
        worker_loop(0, BrokenSpec(), queue.Queue().get, outbox.put)
        assert kinds(outbox.queue) == ["failed", "bye"]

    def test_progress_answers_best_progress_and_live_runs_per_query(self):
        updown = 'SELECT "ud" MATCHING ( kinect_t(rhand_y > 450) -> kinect_t(rhand_y < 100) );'
        sent = run_worker(
            deploy(1, text=updown, name="ud"),
            ("control", 2, "progress", None),
            tuples(500.0),
            ("control", 3, "progress", None),
        )
        assert sent[1] == ("ack", 2, {"ud": (0.0, 0)})
        assert sent[-2] == ("ack", 3, {"ud": (0.5, 1)})


class _DeafTransport:
    """Accepts everything, delivers nothing: a worker that never answers."""

    alive = True
    worker_idents = frozenset()

    def __init__(self):
        self.sent = []

    def start(self, deliver):
        pass

    def send(self, message):
        self.sent.append(message)

    def close(self):
        pass

    def join(self, timeout):
        pass


class _InstantTransport(_DeafTransport):
    """Reports every ``tuples`` chunk ``done`` as soon as it is sent."""

    def start(self, deliver):
        self.deliver = deliver

    def send(self, message):
        super().send(message)
        if message[0] == "tuples":
            self.deliver(("done", len(message[2]), 0.0, None))


def make_shard(transport, capacity=8):
    detections = []
    shard = Shard(
        0,
        MetricsRegistry().shard(0),
        lambda shard_id, detection, latency: detections.append(detection),
        transport,
        capacity=capacity,
    )
    shard.start()
    return shard, detections


class TestShardHandle:
    def _pending_control(self, shard, op="flush"):
        """Start ``control(op)`` on a helper thread; returns (thread, outcome)."""
        outcome = []

        def call():
            try:
                outcome.append(shard.control(op))
            except Exception as error:  # noqa: BLE001 — inspected by the test
                outcome.append(error)

        thread = threading.Thread(target=call, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5.0
        while not shard.transport.sent and time.monotonic() < deadline:
            time.sleep(0.001)
        assert shard.transport.sent, "control() never reached the transport"
        return thread, outcome

    def test_failed_releases_every_pending_control(self):
        transport = _DeafTransport()
        shard, _ = make_shard(transport)
        first, first_outcome = self._pending_control(shard)
        token_one = transport.sent[0][1]
        transport.sent.clear()
        second, second_outcome = self._pending_control(shard, "query_stats")
        assert transport.sent[0][1] != token_one

        shard.handle(("failed", ZeroDivisionError("division by zero"), "remote tb"))
        first.join(timeout=5.0)
        second.join(timeout=5.0)
        assert not first.is_alive() and not second.is_alive()
        for (error,) in (first_outcome, second_outcome):
            assert isinstance(error, ShardFailedError)
            assert isinstance(error.cause, ZeroDivisionError)
            assert "remote tb" in str(error)
        assert shard.failed and shard.metrics.snapshot()["errors"] == 1
        with pytest.raises(ShardFailedError):
            shard.enqueue_tuples("kinect_t", [{"ts": 0.0, "player": 1}])

    def test_failed_wakes_a_producer_blocked_on_credits(self):
        transport = _DeafTransport()
        shard, _ = make_shard(transport)
        records = [{"ts": float(i), "player": 1} for i in range(8)]
        shard.enqueue_tuples("kinect_t", records)  # every credit in flight
        outcome = []

        def produce():
            try:
                shard.enqueue_tuples("kinect_t", records[:1])
            except Exception as error:  # noqa: BLE001 — inspected by the test
                outcome.append(error)

        producer = threading.Thread(target=produce, daemon=True)
        producer.start()
        producer.join(timeout=0.1)
        assert producer.is_alive()  # blocked: no ``done`` came back
        shard.handle(("failed", ZeroDivisionError("division by zero"), "remote tb"))
        producer.join(timeout=5.0)
        assert not producer.is_alive()
        assert isinstance(outcome[0], ShardFailedError)
        assert len(transport.sent) == 1

    def test_ack_and_nack_resolve_their_own_token(self):
        transport = _DeafTransport()
        shard, _ = make_shard(transport)
        thread, outcome = self._pending_control(shard, "query_stats")
        token = transport.sent[0][1]
        shard.handle(("ack", token + 1, "not yours"))  # unknown token: ignored
        assert thread.is_alive()
        shard.handle(("ack", token, {"high": {}}))
        thread.join(timeout=5.0)
        assert outcome == [{"high": {}}]

        transport.sent.clear()
        thread, outcome = self._pending_control(shard, "deploy")
        shard.handle(("nack", transport.sent[0][1], ValueError("bad query"), "tb"))
        thread.join(timeout=5.0)
        assert isinstance(outcome[0], ValueError)
        assert not shard.failed  # a failing control does not kill the shard

    def test_a_timed_out_control_forgets_its_handle(self):
        transport = _DeafTransport()
        shard, _ = make_shard(transport)
        with pytest.raises(RuntimeStateError, match="timed out"):
            shard.control("flush", timeout=0.05)
        assert shard._pending == {}
        # The ack arriving after the caller gave up is dropped, not kept.
        shard.handle(("ack", transport.sent[0][1], None))
        assert shard._pending == {}

    def test_a_vanished_worker_fails_pending_controls(self):
        transport = _DeafTransport()
        transport.alive = False
        shard, _ = make_shard(transport)
        with pytest.raises(ShardFailedError, match="exited unexpectedly"):
            shard.control("flush")
        assert shard.failed

    def test_done_feeds_metrics_and_releases_credits(self):
        transport = _DeafTransport()
        shard, detections = make_shard(transport)
        shard.enqueue_tuples("kinect_t", [{"ts": float(i), "player": 1} for i in range(5)])
        assert shard.queue_depth == 5
        shard.handle(("det", "a-detection", 0.5))
        shard.handle(("done", 3, 0.01, 0.002))
        assert shard.queue_depth == 2
        shard.handle(("done", 2, 0.01, None))  # unmeasured batch
        assert detections == ["a-detection"]
        assert shard.queue_depth == 0
        snapshot = shard.metrics.snapshot()
        assert snapshot["tuples_processed"] == 5
        assert snapshot["batches_processed"] == 2
        assert shard.metrics.histograms()["queue_wait"].count == 1
        assert shard.metrics.histograms()["batch_processing"].count == 1

    def test_enqueue_chunks_to_capacity_and_batch_size(self):
        transport = _InstantTransport()
        shard, _ = make_shard(transport)
        records = [{"ts": float(i), "player": 1} for i in range(20)]
        shard.enqueue_tuples("kinect_t", records)
        assert [len(message[2]) for message in transport.sent] == [8, 8, 4]
        transport.sent.clear()
        shard.enqueue_tuples("kinect_t", tuple(records), batch_size=5)
        assert [len(message[2]) for message in transport.sent] == [5, 5, 5, 5]
        assert all(type(message[2]) is list for message in transport.sent)
        assert shard.metrics.snapshot()["tuples_enqueued"] == 40


class TestProcessTransportSeam:
    def test_an_unpicklable_control_payload_raises_to_the_caller(self):
        # Never started: the refusal happens on the caller's thread, before
        # anything is handed to multiprocessing.
        metrics = MetricsRegistry().shard(0)
        transport = ProcessTransport(0, SPEC)
        shard = Shard(0, metrics, lambda *args: None, transport)
        with pytest.raises(SerializationError, match="register_function"):
            shard.control("register_function", ("f", lambda value: value, 1))
        assert shard._pending == {}
        assert not shard.failed
