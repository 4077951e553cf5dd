"""Entry point: ``python3 benchmarks/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``.

Prints every metric by name with its unit, checks the program's outputs, and
ends with one JSON line (``correct`` / ``attempted`` / ``failed`` /
``metrics``) — the end-to-end metrics for ``--trace 0``, the per-layer
metrics for ``--trace 1``.  Exits non-zero when the outputs are wrong.
``python -m benchmarks.e2e`` is the same program.
"""

from __future__ import annotations

import argparse
import atexit
import json
import signal
import sys
from pathlib import Path
from typing import Dict, List, Optional


def stop_fork_server() -> None:
    """End multiprocessing's fork server (shard workers are forked from it) and wait for it.

    Shard workers themselves are stopped and joined by ``session.close()``;
    the fork server would otherwise outlive the run by a moment, until it
    notices its parent is gone.  Called before the exit handlers, while the
    temporary directory that holds its socket still exists.
    """
    from multiprocessing import forkserver

    stop = getattr(forkserver._forkserver, "_stop", None)
    if stop is not None:
        stop()


def stop_resource_tracker() -> None:
    """End multiprocessing's resource tracker and wait for it.

    Like the fork server it only exits once it sees its parent gone.  It must
    be stopped after multiprocessing's own exit handler has unlinked and
    unregistered every semaphore: stopped earlier it unlinks them itself, with
    a "leaked semaphore" warning, and the late unregistrations start a new one.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


# Exit handlers run last-registered-first, so this one runs after
# multiprocessing's only if it is registered before ``multiprocessing.util``
# is imported (the imports below do that).  Where something else imported it
# first (pytest), the process is not the benchmark's to clean up.
if "multiprocessing.util" not in sys.modules:
    atexit.register(stop_resource_tracker)

_ROOT = Path(__file__).resolve().parents[2]
for _entry in (str(_ROOT / "src"), str(_ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.e2e import layers, metrics  # noqa: E402
from benchmarks.e2e.gateway import GatewayWs2  # noqa: E402
from benchmarks.e2e.harness import OUT_DIR, Bench  # noqa: E402
from benchmarks.e2e.tracing import Tracer, install  # noqa: E402
from benchmarks.e2e.workloads import DurableLifecycle, InlineVocab8, ShardedProc2  # noqa: E402

WORKLOADS = {
    workload.name: workload
    for workload in (InlineVocab8, ShardedProc2, GatewayWs2, DurableLifecycle)
}


#: ``--seconds`` the driver passes (``run_seconds`` in ``BENCHMARK.json``).
RUN_SECONDS = 24


def manifest() -> Dict[str, object]:
    """What ``BENCHMARK.json`` must say, derived from the code it describes."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": workload.why} for name, workload in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in metrics.END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in metrics.PER_LAYER.items()
        ],
    }


def end_to_end(bench: Bench, workload) -> Dict[str, float]:
    phases = bench.phases
    latency = phases["latency"]
    return {
        "setup_s": phases["start"].nominal() + phases["setup"].nominal(),
        "tuples_per_s": phases["throughput"].rate(),
        "cpu_us_per_tuple": phases["throughput"].seconds_per_unit("cpu_s") * 1e6,
        "detect_latency_p50_ms": latency.percentile("detect", 0.50) * 1e3,
        "detect_latency_p90_ms": latency.percentile("detect", 0.90) * 1e3,
        "ack_latency_p50_ms": latency.percentile("ack", 0.50) * 1e3,
        "learn_ms_per_gesture": phases["learn"].seconds_per_unit() * 1e3,
        "recover_s": phases["recover"].nominal(),
        "macro_f1": workload.extra["macro_f1"],
        "peak_rss_mb": workload.extra["peak_rss_mb"],
    }


def dump_slices(bench: Bench, name: str, seed: int) -> None:
    """Every slice of the run as JSON under ``out/`` — the evidence behind the noise tables."""
    bench.write_json(
        f"{name}.seed{seed}.slices.json",
        {
            phase.name: [
                {
                    "segment": segment.index,
                    "position": piece.position,
                    "units": piece.units,
                    "wall_s": piece.wall_s,
                    "cpu_s": piece.cpu_s,
                    "ref_before": piece.ref_before,
                    "ref_after": piece.ref_after,
                    "samples": piece.samples,
                }
                for segment in phase.segments
                for piece in segment.slices
            ]
            for phase in bench.phases.values()
        },
    )


def run(
    name: str, seed: int, seconds: float, trace: bool, quick: bool = False, dump: bool = False
) -> Dict[str, object]:
    """One run of one workload; returns the result document."""
    tracer: Optional[Tracer] = None
    if trace:
        tracer = Tracer()
        install(tracer)
    bench = Bench(seconds, quick, tracer)
    workload = WORKLOADS[name](bench, seed)
    try:
        workload.run()
        if tracer is not None:
            values = layers.per_layer(bench, workload, tracer)
            table = metrics.PER_LAYER
        else:
            values = end_to_end(bench, workload)
            table = metrics.END_TO_END
    finally:
        if tracer is not None:
            tracer.restore()
            tracer.write(OUT_DIR / f"{name}.trace.json")
        if dump:
            dump_slices(bench, name, seed)
        bench.cleanup()
    print(f"# {name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
    for phase in bench.phases.values():
        print(
            f"# phase {phase.name:<10} segments={len(phase.segments):<4} "
            f"slices={len(phase.slices):<5} torn={phase.torn_share():.2f} "
            f"wall={phase.wall_s:.2f}s"
        )
    for metric, value in values.items():
        print(f"{metric:<44} {value:>14.4f} {table[metric][0]}")
    for message in bench.errors:
        print(f"INCORRECT: {message}")
    return {
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            metric: {"value": value, "unit": table[metric][0]} for metric, value in values.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument(
        "--quick", action="store_true", help="3 segments per phase: a smoke run, not a measurement"
    )
    parser.add_argument(
        "--dump-slices", action="store_true", help="write every slice to out/ for noise analysis"
    )
    args = parser.parse_args(argv)
    result = run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace or args.traced),
        args.quick,
        args.dump_slices,
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _terminate(signum: int, frame: object) -> None:
    # As an exception, so that every ``finally`` on the way out closes its session.
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        status = main()
    finally:
        stop_fork_server()
    sys.exit(status)
