"""SLO burn-rate alerting: rule math, the alert state machine, wiring.

The evaluator runs against a hand-fed sampler with explicit timestamps,
so every firing (and every non-firing) is deterministic.  The session
tests cover the acceptance criterion: a synthetic latency regression
fires exactly the expected alert, and a clean run fires none.
"""

from __future__ import annotations

import logging

import pytest

from repro.api.session import GestureSession, SessionConfig
from repro.observability.slo import (
    ALERTS_LOGGER,
    DEFAULT_RULES,
    Alert,
    BurnRateRule,
    SLO,
    SLOEvaluator,
)
from repro.observability.timeseries import MetricsSampler
from repro.runtime.metrics import MetricsRegistry

HIGH = 'SELECT "high" MATCHING kinect_t(rhand_y > 450);'

#: Short windows so unit tests stay in the few-points regime.
FAST_RULE = BurnRateRule(
    long_window_seconds=10.0, short_window_seconds=2.0, burn_threshold=10.0
)


def feed_gauge(sampler, name, values, start=0.0, step=1.0):
    for index, value in enumerate(values):
        sampler.series(name).append(value, timestamp=start + index * step)


class TestBurnRateRule:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"long_window_seconds": 0.0, "short_window_seconds": 1.0, "burn_threshold": 1.0},
            {"long_window_seconds": 1.0, "short_window_seconds": 2.0, "burn_threshold": 1.0},
            {"long_window_seconds": 2.0, "short_window_seconds": 1.0, "burn_threshold": 0.0},
            {
                "long_window_seconds": 2.0,
                "short_window_seconds": 1.0,
                "burn_threshold": 1.0,
                "severity": "sev1",
            },
        ],
    )
    def test_invalid_rules_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BurnRateRule(**kwargs)

    def test_default_rules_page_before_warn(self):
        assert [rule.severity for rule in DEFAULT_RULES] == ["page", "warn"]
        assert DEFAULT_RULES[0].burn_threshold > DEFAULT_RULES[1].burn_threshold


class TestSLOValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": "", "series": "s"},
            {"name": "x", "series": "s", "objective": 1.0},
            {"name": "x", "series": "s", "objective": 0.0},
            {"name": "x", "series": "s", "kind": "budget"},
            {"name": "x", "series": "s", "kind": "ratio"},  # no denominator
            {"name": "x", "series": "s", "rules": ()},
        ],
    )
    def test_invalid_slos_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SLO(**kwargs)

    def test_budget_is_one_minus_objective(self):
        assert SLO(name="x", series="s", objective=0.99).budget == pytest.approx(0.01)

    def test_duplicate_names_rejected_by_evaluator(self):
        slo = SLO.latency("p99", "s", 0.1)
        with pytest.raises(ValueError):
            SLOEvaluator((slo, SLO.latency("p99", "other", 0.2)))


class TestErrorRate:
    def test_threshold_kind_counts_bad_fraction(self):
        sampler = MetricsSampler()
        slo = SLO.latency("p99", "lat", threshold_seconds=0.05)
        feed_gauge(sampler, "lat", [0.01, 0.09, 0.01, 0.09], start=0.0)
        assert slo.error_rate(sampler, 10.0, now=3.0) == pytest.approx(0.5)
        assert slo.burn_rate(sampler, 10.0, now=3.0) == pytest.approx(50.0)

    def test_threshold_kind_no_data_is_clean(self):
        sampler = MetricsSampler()
        slo = SLO.latency("p99", "lat", threshold_seconds=0.05)
        assert slo.error_rate(sampler, 10.0, now=3.0) == 0.0

    def test_ratio_kind_uses_counter_deltas(self):
        sampler = MetricsSampler()
        slo = SLO.ratio("drops", "bad_total", "all_total", objective=0.999)
        feed_gauge(sampler, "bad_total", [0.0, 1.0, 2.0])
        feed_gauge(sampler, "all_total", [0.0, 100.0, 200.0])
        assert slo.error_rate(sampler, 10.0, now=2.0) == pytest.approx(0.01)
        assert slo.burn_rate(sampler, 10.0, now=2.0) == pytest.approx(10.0)

    def test_ratio_kind_zero_denominator_is_clean(self):
        sampler = MetricsSampler()
        slo = SLO.ratio("drops", "bad_total", "all_total")
        feed_gauge(sampler, "bad_total", [0.0, 5.0])
        feed_gauge(sampler, "all_total", [100.0, 100.0])
        assert slo.error_rate(sampler, 10.0, now=1.0) == 0.0


class TestEvaluatorStateMachine:
    def make(self, objective=0.99):
        slo = SLO.latency(
            "p99", "lat", threshold_seconds=0.05, objective=objective, rules=(FAST_RULE,)
        )
        return SLOEvaluator((slo,)), MetricsSampler()

    def test_clean_run_fires_nothing(self):
        evaluator, sampler = self.make()
        feed_gauge(sampler, "lat", [0.01] * 12)
        for now in range(12):
            assert evaluator.evaluate(sampler, now=float(now)) == []
        assert evaluator.alerts() == []
        assert evaluator.active() == []
        assert evaluator.evaluations == 12

    def test_sustained_regression_fires_exactly_once(self):
        evaluator, sampler = self.make()
        feed_gauge(sampler, "lat", [0.2] * 12)
        fired = []
        for now in range(12):
            fired.extend(evaluator.evaluate(sampler, now=float(now)))
        assert len(fired) == 1
        alert = fired[0]
        assert alert.slo == "p99" and alert.severity == "page"
        assert alert.burn_rate == pytest.approx(100.0)
        assert evaluator.active() == [("p99", "page")]

    def test_single_slow_sample_does_not_page(self):
        # One bad point out of eleven: the long window stays under the
        # 10x threshold even though the short window spikes.
        evaluator, sampler = self.make()
        feed_gauge(sampler, "lat", [0.01] * 10 + [0.2])
        assert evaluator.evaluate(sampler, now=10.0) == []

    def test_alert_rearms_after_recovery(self):
        evaluator, sampler = self.make()
        feed_gauge(sampler, "lat", [0.2] * 4, start=0.0)
        assert len(evaluator.evaluate(sampler, now=3.0)) == 1
        # Recovery: short window all-clean drops the burn below threshold.
        feed_gauge(sampler, "lat", [0.01] * 4, start=20.0)
        assert evaluator.evaluate(sampler, now=23.0) == []
        assert evaluator.active() == []
        # Regression again: a second alert fires.
        feed_gauge(sampler, "lat", [0.2] * 4, start=40.0)
        assert len(evaluator.evaluate(sampler, now=43.0)) == 1
        assert len(evaluator.alerts()) == 2

    def test_alert_log_is_bounded(self):
        slo = SLO.latency("p99", "lat", 0.05, rules=(FAST_RULE,))
        evaluator = SLOEvaluator((slo,), alert_capacity=3)
        sampler = MetricsSampler()
        for cycle in range(5):
            base = cycle * 100.0
            feed_gauge(sampler, "lat", [0.2] * 4, start=base)
            evaluator.evaluate(sampler, now=base + 3.0)
            feed_gauge(sampler, "lat", [0.01] * 4, start=base + 20.0)
            evaluator.evaluate(sampler, now=base + 23.0)
        assert len(evaluator.alerts()) == 3

    def test_alert_to_dict_is_json_shaped(self):
        evaluator, sampler = self.make()
        feed_gauge(sampler, "lat", [0.2] * 4)
        (alert,) = evaluator.evaluate(sampler, now=3.0)
        body = alert.to_dict()
        assert body["slo"] == "p99" and body["severity"] == "page"
        assert body["budget"] == pytest.approx(0.01)
        assert body["long_window_seconds"] == 10.0
        assert isinstance(body["wall_time"], str)

    def test_alert_goes_to_structured_logger(self, caplog):
        evaluator, sampler = self.make()
        feed_gauge(sampler, "lat", [0.2] * 4)
        with caplog.at_level(logging.WARNING, logger=ALERTS_LOGGER):
            evaluator.evaluate(sampler, now=3.0)
        (record,) = caplog.records
        assert record.name == ALERTS_LOGGER
        assert record.data["slo"] == "p99"

    def test_clear_resets_log_and_state(self):
        evaluator, sampler = self.make()
        feed_gauge(sampler, "lat", [0.2] * 4)
        evaluator.evaluate(sampler, now=3.0)
        evaluator.clear()
        assert evaluator.alerts() == [] and evaluator.active() == []



class TestPercentileGaugesArePerTick:
    def test_a_passed_burst_stops_burning_the_budget(self):
        # 1 000 detections/s: 10 s at 200 ms, then 600 s at 1 ms.  A p99
        # over every sample so far would still read 200 ms at 610 s (the
        # burst is 1.6 % of them) and keep both alerts active.
        registry = MetricsRegistry()
        histogram = registry.histogram("ingest_to_detection")
        evaluator = SLOEvaluator(
            (SLO.latency("p99", "hist.ingest_to_detection.p99_seconds", 0.050),)
        )
        sampler = MetricsSampler(interval_seconds=1.0, evaluators=(evaluator,))
        sampler.add_registry(registry)
        for second in range(1, 611):
            latency = 0.200 if second <= 10 else 0.001
            for _ in range(1000):
                histogram.record(latency)
            sampler.sample_once(now=float(second))
            if second == 10:
                assert evaluator.active() == [("p99", "page"), ("p99", "warn")]
        assert sampler.get("hist.ingest_to_detection.p99_seconds").latest() == 0.001
        assert evaluator.active() == []
        assert [alert.severity for alert in evaluator.alerts()] == ["page", "warn"]


class TestSessionIntegration:
    def run_session(self, threshold_seconds):
        slo = SLO.latency(
            "ingest_p99",
            "hist.ingest_to_detection.p99_seconds",
            threshold_seconds=threshold_seconds,
            rules=(BurnRateRule(5.0, 0.5, 2.0),),
        )
        config = SessionConfig(sample_interval_seconds=0.02, slos=(slo,))
        with GestureSession(config) as session:
            session.deploy(HIGH)
            frames = []
            ts = 0.0
            for round_index in range(40):
                for player in (1, 2, 3):
                    ts += 0.01
                    value = 500.0 if (round_index + player) % 4 < 2 else 50.0
                    frames.append({"ts": ts, "player": player, "rhand_y": value})
            session.feed(frames, stream="kinect_t")
            session.sampler.sample_once()
            session.sampler.sample_once()
            session.slo_evaluator.evaluate(session.sampler)
            alerts = session.alerts
        return alerts

    def test_synthetic_latency_regression_fires_expected_alert(self):
        # An impossible threshold makes every sampled p99 a violation:
        # the synthetic regression must page on exactly this SLO.
        alerts = self.run_session(threshold_seconds=1e-12)
        assert alerts, "sustained regression must fire"
        assert {alert.slo for alert in alerts} == {"ingest_p99"}
        assert alerts[0].severity == "page"

    def test_clean_run_fires_no_alerts(self):
        assert self.run_session(threshold_seconds=30.0) == []
