"""The verdict rule of ``tools/e2e_pairs.py`` (the pure part of the pairs protocol)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from e2e_pairs import layer_table, parse_args, render, summarise  # noqa: E402 — path set up above

SPECS = [
    {"name": "tuples_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "cpu_us_per_tuple", "unit": "us", "better": "lower", "bound": 0.25},
]


def run(tuples_per_s, cpu_us, correct=True, failed=0):
    return {
        "correct": correct,
        "failed": failed,
        "metrics": {
            "tuples_per_s": {"value": tuples_per_s, "unit": "1/s"},
            "cpu_us_per_tuple": {"value": cpu_us, "unit": "us"},
        },
    }


def verdicts(pairs):
    return {row.metric: row for row in summarise(SPECS, pairs)}


PARENT = [run(20_000 + 100 * i, 45.0 + 0.1 * i) for i in range(10)]


def test_a_gain_needs_the_wins_and_medians_apart_by_more_than_the_parents_spread():
    rows = verdicts([(p, run(40_000 + 100 * i, 25.0)) for i, p in enumerate(PARENT)])
    assert rows["tuples_per_s"].verdict == "gain"
    assert rows["tuples_per_s"].wins == rows["tuples_per_s"].pairs == 10
    assert rows["cpu_us_per_tuple"].verdict == "gain"  # lower is better there
    # Ten wins by less than the parent's own inter-quartile range are noise.
    rows = verdicts([(p, run(p["metrics"]["tuples_per_s"]["value"] + 50, 45.0)) for p in PARENT])
    assert rows["tuples_per_s"].wins == 10
    assert rows["tuples_per_s"].verdict == "within noise"
    # ... and so are eight wins of ten, however large.
    change = [run(40_000, 25.0)] * 8 + [run(19_000, 60.0)] * 2
    assert verdicts(list(zip(PARENT, change)))["tuples_per_s"].verdict == "within noise"


def test_a_tie_counts_for_neither_side():
    rows = verdicts([(p, p) for p in PARENT])
    assert rows["tuples_per_s"].wins == 0
    assert rows["tuples_per_s"].verdict == "within noise"
    assert rows["tuples_per_s"].parent_median == rows["tuples_per_s"].change_median


def test_a_loss_is_a_regression_only_beyond_the_bound():
    inside = verdicts([(p, run(17_000, 52.0)) for p in PARENT])
    assert inside["tuples_per_s"].verdict == "within noise"  # -16 % of a 25 % bound
    assert inside["cpu_us_per_tuple"].verdict == "within noise"
    beyond = verdicts([(p, run(14_000, 60.0)) for p in PARENT])
    assert beyond["tuples_per_s"].verdict == "regression"
    assert beyond["cpu_us_per_tuple"].verdict == "regression"
    assert "regression" in render(list(beyond.values()))


@pytest.mark.parametrize("broken", [run(40_000, 25.0, correct=False), run(40_000, 25.0, failed=3)])
def test_a_failed_run_is_refused(broken):
    pairs = [(p, run(40_000, 25.0)) for p in PARENT]
    pairs[4] = (PARENT[4], broken)
    with pytest.raises(ValueError, match="pair 5: the change run"):
        summarise(SPECS, pairs)
    with pytest.raises(ValueError):
        summarise(SPECS, [])


LAYER_SPECS = [
    {"name": "transform.us_per_tuple", "unit": "us", "better": "lower"},
    {"name": "cep.matcher.batch_us_per_tuple", "unit": "us", "better": "lower"},
    {"name": "runtime.drops", "unit": "count", "better": "lower"},
    {"name": "gateway.loop_lag_max_ms", "unit": "ms", "better": "lower"},
]


def traced(correct=True, failed=0, **values):
    return {
        "correct": correct,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "us"} for name, value in values.items()},
    }


def test_the_layer_table_prints_parent_to_change_with_the_ratio():
    names = ("transform.us_per_tuple", "cep.matcher.batch_us_per_tuple", "runtime.drops")
    parent = traced(**dict(zip(names, (9.5, 7.75, 0))))
    change = traced(**dict(zip(names, (5.5, 6.67, 0))))
    lines = layer_table(LAYER_SPECS, parent, change).splitlines()
    assert len(lines) == 1 + len(LAYER_SPECS)
    by_metric = {line.split()[0]: line.split()[2:] for line in lines[1:]}
    assert by_metric["transform.us_per_tuple"] == ["9.5", "->", "5.5", "0.58"]
    assert by_metric["cep.matcher.batch_us_per_tuple"] == ["7.75", "->", "6.67", "0.86"]
    # A zero parent has no ratio, and a metric the workload does not report
    # prints as missing on both sides.
    assert by_metric["runtime.drops"] == ["0", "->", "0", "-"]
    assert by_metric["gateway.loop_lag_max_ms"] == ["-", "->", "-", "-"]


@pytest.mark.parametrize("broken", [traced(correct=False), traced(failed=1)])
def test_the_layer_table_refuses_an_incorrect_traced_run(broken):
    with pytest.raises(ValueError, match="the traced change run"):
        layer_table(LAYER_SPECS, traced(), broken)
    with pytest.raises(ValueError, match="the traced parent run"):
        layer_table(LAYER_SPECS, broken, traced())


MANIFEST = {
    "run_seconds": 24,
    "workloads": [{"name": name} for name in ("inline_vocab8", "sharded_proc2", "gateway_ws2")],
}


def workloads(*argv):
    return parse_args(["--parent", "HEAD~1", *argv], MANIFEST).workloads


def test_workload_repeats_in_order_once_each_or_takes_all():
    assert workloads("--workload", "sharded_proc2") == ["sharded_proc2"]
    assert workloads("--workload", "gateway_ws2", "--workload", "inline_vocab8") == [
        "gateway_ws2",
        "inline_vocab8",
    ]
    assert workloads(*["--workload", "gateway_ws2"] * 2) == ["gateway_ws2"]
    every = ["inline_vocab8", "sharded_proc2", "gateway_ws2"]
    assert workloads("--workload", "all") == every
    assert workloads("--workload", "gateway_ws2", "--workload", "all") == every
    args = parse_args(["--parent", "abc", "--workload", "all"], MANIFEST)
    assert (args.parent, args.pairs, args.seconds, args.trace) == ("abc", 10, 24.0, False)


@pytest.mark.parametrize("argv", [[], ["--workload", "no_such_workload"]])
def test_workload_is_required_and_must_be_in_the_manifest(argv, capsys):
    with pytest.raises(SystemExit):
        parse_args(["--parent", "HEAD~1", *argv], MANIFEST)
    assert "--workload" in capsys.readouterr().err
