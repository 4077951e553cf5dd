"""The shard protocol, tested at the transport seam.

``worker_loop`` talks only to ``receive()`` and ``send()``, so its side of
the contract is driven here synchronously over plain ``queue.Queue``s — no
worker thread, no spawn.  The parent side (:class:`Shard`) is driven by
handing it messages directly, over a transport that carries nothing.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time

import pytest

from repro.errors import RuntimeStateError, SerializationError, ShardFailedError
from repro.observability.clock import monotonic_time
from repro.observability.tracing import TraceContext
from repro.runtime import MetricsRegistry
from repro.runtime import shard as shard_module
from repro.runtime.shard import Shard, ShardEngineSpec, worker_loop
from repro.runtime.transport import ProcessTransport, _ReportingQueue

HIGH = 'SELECT "high" MATCHING kinect_t(rhand_y > 450);'
SPEC = ShardEngineSpec(install_view=False)


def deploy(token, text=HIGH, name="high"):
    return ("control", token, "deploy", (name, text))


def tuples(*values, meta=None):
    records = [
        {"ts": float(index), "player": 1, "rhand_y": value}
        for index, value in enumerate(values)
    ]
    return ("tuples", "kinect_t", records, None, meta)


#: Everything a worker may send: one reply per inbox message, plus ``bye``.
REPLY_KINDS = {"ack", "nack", "done", "failed", "bye"}


def run_worker(*messages):
    """Run the loop to completion over ``messages`` (+ ``stop``); what it sent."""
    inbox, outbox = queue.Queue(), queue.Queue()
    for message in (*messages, ("stop",)):
        inbox.put(message)
    worker_loop(0, SPEC, inbox.get, outbox.put)
    return list(outbox.queue)


def kinds(sent):
    found = [message[0] for message in sent]
    # No per-detection (or any other) message kind, whatever the test.
    assert set(found) <= REPLY_KINDS
    return found


def emitted(message):
    """The ``(query, ts, latency)`` of each detection a ``done``/``failed`` carries."""
    return [(d.query_name, d.timestamp, latency) for d, latency in message[-1]]


def boom(value):
    return 1 / 0


def fails_on(value, target):
    if value == target:
        raise ZeroDivisionError(f"{value} is the target")
    return 1


class TestShardEngineSpec:
    def test_without_the_view_only_kinect_t_exists(self):
        assert SPEC.build().streams.names() == ["kinect_t"]

    def test_the_default_spec_installs_the_kinect_view(self):
        engine = ShardEngineSpec().build()
        assert sorted(engine.streams.names()) == ["kinect", "kinect_t"]
        assert list(engine.views) == ["kinect_t"]

    @pytest.mark.parametrize("rate", [None, 0.0, 0.5, 1.0])
    def test_telemetry_is_the_trace_sample_rate(self, rate):
        tracer = ShardEngineSpec(telemetry=rate).build_tracer()
        if rate is None:
            assert tracer is None
        else:
            assert tracer.sample_rate == rate and tracer.buffer_size == 4096

    def test_the_worker_ships_its_spans_on_the_telemetry_control(self):
        traced = ShardEngineSpec(install_view=False, telemetry=1.0)
        inbox, outbox = queue.Queue(), queue.Queue()
        stamp = (monotonic_time(), TraceContext(trace_id="t-1", span_id="root"))
        for message in (
            deploy(1),
            tuples(500.0, meta=stamp),
            ("control", 2, "telemetry", None),
            ("control", 3, "telemetry", None),
            ("stop",),
        ):
            inbox.put(message)
        worker_loop(0, traced, inbox.get, outbox.put)
        sent = list(outbox.queue)
        assert kinds(sent) == ["ack", "done", "ack", "ack", "bye"]
        names = {span["name"] for span in sent[2][2]["spans"]}
        assert {"queue.wait", "shard.batch", "matcher:high"} <= names
        # Drained worker-side: each span is handed over once.
        assert sent[3][2] == {"spans": []}

    def test_without_telemetry_the_telemetry_control_answers_none(self):
        sent = run_worker(("control", 1, "telemetry", None))
        assert sent == [("ack", 1, None), ("bye",)]


class TestWorkerLoop:
    def test_stop_ends_with_bye(self):
        assert run_worker() == [("bye",)]

    def test_detections_leave_with_their_batchs_done(self):
        sent = run_worker(deploy(1), tuples(500.0, 100.0, 480.0))
        assert kinds(sent) == ["ack", "done", "bye"]
        _tag, count, busy, queue_wait, _detections = sent[1]
        assert count == 3 and busy >= 0.0
        # No stamp came with the batch, so nothing was measured.
        assert queue_wait is None
        # In emission order, each with its latency.
        assert emitted(sent[1]) == [("high", 0.0, None), ("high", 2.0, None)]

    def test_latency_is_measured_worker_side_from_the_batch_stamp(self):
        stamp = (monotonic_time() - 0.25, None)
        sent = run_worker(deploy(1), tuples(500.0, meta=stamp))
        done = sent[1]
        ((detection, latency),) = done[4]
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
        assert kinds(sent) == ["nack", "nack", "ack", "done", "bye"]
        _tag, token, error, remote_traceback = sent[0]
        assert token == 1 and isinstance(error, Exception)
        assert "Traceback" in remote_traceback
        assert isinstance(sent[1][2], ValueError)
        assert emitted(sent[3]) == [("high", 0.0, None)]

    def test_flush_acks_only_after_earlier_batches(self):
        # The drain barrier: the inbox is FIFO, so a flush ack proves the
        # batches queued before it were processed, not merely dequeued.
        sent = run_worker(
            deploy(1), tuples(500.0), tuples(500.0), ("control", 2, "flush", None), tuples(500.0)
        )
        assert kinds(sent) == ["ack", "done", "done", "ack", "done", "bye"]
        assert sent[3] == ("ack", 2, None)
        # Each batch's detection left with its own ``done``, so the ones
        # queued before the flush had reached the parent when it was acked.
        assert [emitted(message) for message in sent if message[0] == "done"] == [
            [("high", 0.0, None)]
        ] * 3

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
        assert sent[2][3] == []  # the first tuple raised: nothing was emitted
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
        assert outbox.queue[0][3] == []

    def test_a_failing_batch_delivers_what_it_emitted_before_the_failure(self):
        sent = run_worker(
            ("control", 1, "register_function", ("fails_on", fails_on, 2)),
            deploy(2, text='SELECT "f" MATCHING kinect_t(fails_on(rhand_y, 100.0) > 0);', name="f"),
            tuples(500.0, 100.0, 480.0),
        )
        assert kinds(sent) == ["ack", "ack", "failed", "bye"]
        assert isinstance(sent[2][1], ZeroDivisionError)
        assert emitted(sent[2]) == [("f", 0.0, None)]

    def test_a_control_that_emits_fails_the_shard_with_its_detections(self, monkeypatch):
        # No control emits today; the worker refuses to strand one that
        # would, since a control's reply carries no detections.
        apply_control = shard_module._apply_control

        def apply(engine, op, payload):
            if op == "push":
                return engine.push("kinect_t", payload)
            return apply_control(engine, op, payload)

        monkeypatch.setattr(shard_module, "_apply_control", apply)
        sent = run_worker(
            deploy(1),
            ("control", 2, "push", {"ts": 7.0, "player": 1, "rhand_y": 500.0}),
            tuples(500.0),
        )
        assert kinds(sent) == ["ack", "failed", "bye"]
        assert "'push' emitted detections" in str(sent[1][1])
        assert emitted(sent[1]) == [("high", 7.0, None)]

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
            self.deliver(("done", len(message[2]), 0.0, None, []))


def make_shard(transport, capacity=8):
    """A started shard; its detections land in the returned list.

    Each entry is ``(detection, queue_depth)``: the tuples still in flight
    when the detection was dispatched.
    """
    detections = []
    shard = Shard(
        0,
        MetricsRegistry().shard(0),
        lambda shard_id, batch: detections.extend(
            (detection, shard.queue_depth) for detection, _latency in batch
        ),
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
        shard, detections = make_shard(transport)
        first, first_outcome = self._pending_control(shard)
        token_one = transport.sent[0][1]
        transport.sent.clear()
        second, second_outcome = self._pending_control(shard, "query_stats")
        assert transport.sent[0][1] != token_one

        shard.handle(
            ("failed", ZeroDivisionError("division by zero"), "remote tb", [("before", None)])
        )
        # What the batch emitted before it failed is still delivered.
        assert detections == [("before", 0)]
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
        shard.handle(("failed", ZeroDivisionError("division by zero"), "remote tb", []))
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
        shard.handle(("done", 3, 0.01, 0.002, [("a-detection", 0.5), ("b-detection", 0.6)]))
        assert shard.queue_depth == 2
        shard.handle(("done", 2, 0.01, None, []))  # unmeasured batch
        # Dispatched in order, while the batch's 3 credits were still out.
        assert detections == [("a-detection", 5), ("b-detection", 5)]
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

    def test_a_message_the_feeder_cannot_pickle_is_reported_as_failed(self):
        reports = []
        inbox = _ReportingQueue(ctx=multiprocessing.get_context())
        inbox.report = reports.append
        inbox.put(("tuples", "kinect_t", [{"lock": threading.Lock()}], None, None))
        deadline = time.monotonic() + 5.0
        while not reports and time.monotonic() < deadline:
            time.sleep(0.005)
        inbox.close()
        inbox.join_thread()
        ((kind, error, traceback_text, detections),) = reports
        assert kind == "failed" and detections == []
        assert isinstance(error, SerializationError)
        assert "'tuples' message" in str(error)
        assert isinstance(error.__cause__, TypeError)
        assert "_thread.lock" in traceback_text
