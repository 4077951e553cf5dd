"""Shared fixtures and reporting helpers for the paper-experiment suite.

Every module here reproduces one experiment of the paper — the figures
F1–F5, the claims C1–C4 and the application integration A1 — as a
learning-quality regression: it prints the table or series the experiment
reports (run with ``pytest benchmarks/ --benchmark-only -s`` to see them)
and asserts the claim.  The ``benchmark`` fixture additionally times a
representative kernel, but nothing here is a trusted timing instrument:
throughput, latency and per-layer cost are measured by ``benchmarks/e2e``
(``python3 benchmarks/e2e/run.py``, declared in ``BENCHMARK.json``).

``python -m pytest benchmarks -q -m smoke`` runs every kernel exactly once
with pytest-benchmark timing disabled — the CI pass.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, Sequence

# Allow `python -m pytest benchmarks` without an explicit PYTHONPATH=src.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np
import pytest

from repro.core import GestureLearner, LearnerConfig, QueryGenerator
from repro.evaluation import WorkloadConfig, build_workload
from repro.kinect import GaussianNoise, KinectSimulator, user_by_name
from repro.streams import SimulatedClock


def pytest_configure(config):
    # `-m smoke` implies --benchmark-disable: kernels run once, untimed.
    # Exact match only — composed expressions like "not smoke" keep explicit
    # control over --benchmark-disable.
    if (config.getoption("markexpr", "") or "").strip() == "smoke":
        config.option.benchmark_disable = True


def pytest_collection_modifyitems(config, items):
    for item in items:
        if "bench_" in item.nodeid:
            item.add_marker(pytest.mark.smoke)


def print_table(title: str, rows: Sequence[Dict[str, object]]) -> None:
    """Print a list of dictionaries as an aligned text table."""
    print(f"\n=== {title} ===")
    if not rows:
        print("  (no rows)")
        return
    columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(str(row[column])) for row in rows))
        for column in columns
    }
    header = " | ".join(str(column).ljust(widths[column]) for column in columns)
    print("  " + header)
    print("  " + "-+-".join("-" * widths[column] for column in columns))
    for row in rows:
        print("  " + " | ".join(str(row[column]).ljust(widths[column]) for column in columns))


def make_simulator(user: str = "adult", seed: int = 11, **kwargs) -> KinectSimulator:
    """A deterministic simulator for benchmark training/test data."""
    return KinectSimulator(
        user=user_by_name(user),
        clock=SimulatedClock(),
        noise=GaussianNoise(sigma_mm=6.0, rng=np.random.default_rng(seed)),
        rng=np.random.default_rng(seed + 1),
        **kwargs,
    )


def learn_gesture(name, trajectory, samples=4, seed=11, joints=("rhand",)):
    """Learn one gesture from ``samples`` simulated performances."""
    simulator = make_simulator(seed=seed)
    learner = GestureLearner(name, config=LearnerConfig(joints=tuple(joints)))
    for _ in range(samples):
        learner.add_sample(
            simulator.perform_variation(trajectory, hold_start_s=0.3, hold_end_s=0.3)
        )
    return learner.description()


@pytest.fixture(scope="session")
def query_generator() -> QueryGenerator:
    return QueryGenerator()


@pytest.fixture(scope="session")
def standard_workload():
    """The workload used by the accuracy-style experiments (C1, C3, C4)."""
    return build_workload(
        WorkloadConfig(
            gestures=("swipe_right", "swipe_left", "circle", "push"),
            training_samples=5,
            test_performances=3,
            test_users=("adult", "child", "tall_adult"),
            seed=23,
        )
    )
