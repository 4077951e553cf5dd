"""Tracing, JSON logging and the summarize CLI.

Unit-level here; the pipeline-spanning assertions (one trace id from the
gateway frame to the matcher span, across the process-shard boundary)
live in ``tests/test_observability_pipeline.py``.
"""

from __future__ import annotations

import io
import json
import logging
import pickle

import pytest

from repro.observability.__main__ import main as cli_main, summarize_trace
from repro.observability.jsonlog import JsonFormatter, configure_json_logging
from repro.observability.tracing import (
    TraceContext,
    Tracer,
    current_context,
    use_context,
)


class TestTraceContext:
    def test_dict_round_trip(self):
        context = TraceContext(trace_id="t-1", span_id="s-1", sampled=True)
        assert TraceContext.from_dict(context.to_dict()) == context

    def test_pickles_across_process_boundaries(self):
        context = TraceContext(trace_id="t-1", span_id="s-1")
        assert pickle.loads(pickle.dumps(context)) == context

    def test_child_keeps_trace_changes_span(self):
        context = TraceContext(trace_id="t-1", span_id="s-1")
        child = context.child("s-2")
        assert child.trace_id == "t-1"
        assert child.span_id == "s-2"

    def test_from_dict_rejects_missing_ids(self):
        with pytest.raises(ValueError):
            TraceContext.from_dict({"trace_id": "t-1"})


class TestHeadSampling:
    def test_rate_zero_never_samples(self):
        tracer = Tracer(sample_rate=0.0)
        assert not tracer.active
        assert all(tracer.sample() is None for _ in range(50))

    def test_rate_one_always_samples(self):
        tracer = Tracer(sample_rate=1.0)
        contexts = [tracer.sample() for _ in range(10)]
        assert all(context is not None for context in contexts)
        assert len({context.trace_id for context in contexts}) == 10

    def test_fractional_rate_is_deterministic_interval(self):
        tracer = Tracer(sample_rate=0.25)
        decisions = [tracer.sample() is not None for _ in range(12)]
        assert decisions == [False, False, False, True] * 3

    def test_adopt_continues_caller_context(self):
        tracer = Tracer(sample_rate=1.0)
        adopted = tracer.adopt({"trace_id": "t-9", "span_id": "s-9"})
        assert adopted == TraceContext(trace_id="t-9", span_id="s-9")

    def test_adopt_is_free_when_inactive(self):
        assert Tracer(sample_rate=0.0).adopt({"trace_id": "t", "span_id": "s"}) is None

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)


class TestSpans:
    def test_span_records_parent_and_nests(self):
        tracer = Tracer(sample_rate=1.0)
        root = tracer.sample("req")
        outer = tracer.span("outer", "stage", root)
        inner = tracer.span("inner", "stage", outer.context)
        inner.close()
        outer.close(tuples=3)
        spans = {event["name"]: event for event in tracer.spans()}
        assert spans["inner"]["args"]["parent_id"] == outer.context.span_id
        assert spans["outer"]["args"]["parent_id"] == root.span_id
        assert spans["outer"]["args"]["tuples"] == 3
        assert spans["inner"]["args"]["trace_id"] == root.trace_id

    def test_none_context_costs_nothing(self):
        tracer = Tracer(sample_rate=1.0)
        assert tracer.span("noop", "stage", None) is None

    def test_ring_buffer_is_bounded(self):
        tracer = Tracer(sample_rate=1.0, buffer_size=8)
        root = tracer.sample()
        for index in range(20):
            tracer.span(f"s{index}", "stage", root).close()
        spans = tracer.spans()
        assert len(spans) == 8
        assert spans[-1]["name"] == "s19"

    def test_drain_hands_over_each_span_once(self):
        tracer = Tracer(sample_rate=1.0)
        tracer.span("once", "stage", tracer.sample()).close()
        drained = tracer.drain()
        assert [event["name"] for event in drained] == ["once"]
        assert tracer.spans() == []

    def test_absorb_merges_chronologically(self):
        parent = Tracer(sample_rate=1.0)
        child = Tracer(sample_rate=1.0)
        context = parent.sample()
        parent.record("late", "stage", context, start=2.0, end=3.0)
        child.record("early", "stage", context, start=1.0, end=1.5)
        parent.absorb(child.drain())
        assert [event["name"] for event in parent.spans()] == ["early", "late"]

    def test_export_is_chrome_trace_document(self):
        tracer = Tracer(sample_rate=1.0)
        tracer.span("one", "stage", tracer.sample()).close()
        document = tracer.export()
        assert document["displayTimeUnit"] == "ms"
        event = document["traceEvents"][0]
        assert event["ph"] == "X"
        assert {"name", "cat", "ts", "dur", "pid", "tid", "args"} <= set(event)

    def test_ambient_context_is_scoped(self):
        context = TraceContext(trace_id="t", span_id="s")
        assert current_context() is None
        with use_context(context):
            assert current_context() == context
        assert current_context() is None


class TestJsonLogging:
    def render(self, logger_name="repro.test", level=logging.INFO, **log_kwargs):
        stream = io.StringIO()
        logger = configure_json_logging(logger_name, level=level, stream=stream)
        logger.propagate = False
        logger.info("hello %s", "world", **log_kwargs)
        return json.loads(stream.getvalue())

    def test_basic_record_shape(self):
        payload = self.render()
        assert payload["message"] == "hello world"
        assert payload["level"] == "INFO"
        assert payload["logger"] == "repro.test"
        assert "trace_id" not in payload

    def test_explicit_trace_id_wins(self):
        payload = self.render(extra={"trace_id": "t-42"})
        assert payload["trace_id"] == "t-42"

    def test_ambient_context_fills_trace_id(self):
        stream = io.StringIO()
        logger = configure_json_logging("repro.test2", stream=stream)
        logger.propagate = False
        with use_context(TraceContext(trace_id="t-amb", span_id="s")):
            logger.info("inside")
        assert json.loads(stream.getvalue())["trace_id"] == "t-amb"

    def test_data_payload_merges_without_clobbering(self):
        payload = self.render(extra={"data": {"tuples": 5, "message": "nope"}})
        assert payload["tuples"] == 5
        assert payload["message"] == "hello world"  # reserved keys win

    def test_unserialisable_values_are_stringified(self):
        payload = self.render(extra={"data": {"path": object()}})
        assert isinstance(payload["path"], str)

    def test_reconfigure_replaces_handler(self):
        logger = configure_json_logging("repro.test3", stream=io.StringIO())
        configure_json_logging("repro.test3", stream=io.StringIO())
        json_handlers = [
            handler
            for handler in logger.handlers
            if getattr(handler, "_repro_json_handler", False)
        ]
        assert len(json_handlers) == 1

    def test_exception_is_rendered(self):
        stream = io.StringIO()
        logger = configure_json_logging("repro.test4", stream=stream)
        logger.propagate = False
        try:
            raise RuntimeError("boom")
        except RuntimeError:
            logger.exception("failed")
        payload = json.loads(stream.getvalue())
        assert "RuntimeError: boom" in payload["exception"]


def make_document():
    tracer = Tracer(sample_rate=1.0)
    root = tracer.sample("req")
    for category, duration in (("gateway", 0.004), ("queue", 0.002), ("shard", 0.008)):
        tracer.record(category, category, root.child(category), 1.0, 1.0 + duration)
    return tracer.export()


class TestSummarizeCli:
    def test_summarize_renders_stage_table(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(make_document()), encoding="utf-8")
        assert cli_main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        for needle in ("Per-stage latency", "gateway", "queue", "shard", "Critical path"):
            assert needle in out

    def test_stage_ordering_by_total_time(self):
        text = summarize_trace(make_document())
        table = text.splitlines()
        assert table.index(
            next(line for line in table if line.startswith("shard"))
        ) < table.index(next(line for line in table if line.startswith("queue")))

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert cli_main(["summarize", str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_empty_document_is_not_an_error(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"traceEvents": []}', encoding="utf-8")
        assert cli_main(["summarize", str(path)]) == 0
        captured = capsys.readouterr()
        assert "no complete" in captured.out
        assert captured.err == ""

    def test_malformed_document_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bogus.json"
        path.write_text('{"spans": []}', encoding="utf-8")
        assert cli_main(["summarize", str(path)]) == 2
        assert "traceEvents" in capsys.readouterr().err

    def test_json_output_is_machine_readable(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(make_document()), encoding="utf-8")
        assert cli_main(["summarize", str(path), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["spans"] == 3
        assert set(document["stages"]) == {"gateway", "queue", "shard"}
        assert document["critical_path"]["traces"] == 1
        shares = document["critical_path"]["stage_share"]
        assert abs(sum(entry["share"] for entry in shares.values()) - 1.0) < 1e-9

    def test_json_output_for_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"traceEvents": []}', encoding="utf-8")
        assert cli_main(["summarize", str(path), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document == {"spans": 0, "stages": {}, "critical_path": {}}
