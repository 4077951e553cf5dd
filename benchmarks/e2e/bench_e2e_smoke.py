"""Smoke test of the end-to-end benchmark (``python -m pytest benchmarks -q -m smoke``).

Runs every workload with ``--quick`` (3 segments per phase; no timing is
asserted), timed and traced, twice each with one seed, and checks what must
hold on any machine: every named metric is reported with its unit, the
program's outputs are correct, nothing failed, and the figures that are
counts — ``macro_f1`` and the per-layer counters — repeat exactly.
"""

import json
from pathlib import Path

import pytest

from benchmarks.e2e import metrics
from benchmarks.e2e.run import WORKLOADS, manifest, run

SEED = 7

#: Per-layer metrics that count things the seed decides (not the clock), so
#: two runs of one seed must agree to the last digit.
EXACT = (
    "transform.calls_per_tuple",
    "cep.matcher.predicate_evals_per_tuple",
    "cep.matcher.gate_rejection_ratio",
    "cep.matcher.runs_started_per_tuple",
    "cep.matcher.runs_advanced_per_tuple",
    "cep.matcher.runs_pruned_per_tuple",
    "cep.matcher.completion_ratio",
    "cep.matcher.active_runs_peak",
    "detection.events_per_tuple",
    "runtime.router.skew",
    "runtime.transport.bytes_per_tuple",
    "runtime.drops",
    "gateway.dropped_ratio",
    "persistence.log.bytes_per_tuple",
    "persistence.log.fsyncs",
    "persistence.log.rotations",
    "persistence.snapshot.bytes",
    "persistence.recover.entries_replayed",
)


def check_shape(result, table):
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(table)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == table[name][0], name
        assert isinstance(entry["value"], float), name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_quick_runs_are_complete_correct_and_repeat(name):
    timed = [run(name, SEED, 1.0, trace=False, quick=True) for _ in range(2)]
    traced = [run(name, SEED, 1.0, trace=True, quick=True) for _ in range(2)]
    for result in timed:
        check_shape(result, metrics.END_TO_END)
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    for result in traced:
        check_shape(result, metrics.PER_LAYER)
    first, second = (result["metrics"] for result in timed)
    assert first["macro_f1"] == second["macro_f1"]
    first, second = (result["metrics"] for result in traced)
    for metric in EXACT:
        assert first[metric]["value"] == second[metric]["value"], metric


def test_benchmark_json_is_the_manifest_of_the_code():
    path = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    assert json.loads(path.read_text()) == manifest()
