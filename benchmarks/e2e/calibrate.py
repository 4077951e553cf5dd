"""Calibrate the per-phase sensitivities from slice dumps.

::

    python3 benchmarks/e2e/run.py --workload <name> --seed <n> --dump-slices   # many times
    python3 benchmarks/e2e/calibrate.py benchmarks/e2e/out/*.slices.json

The machine has two states, full speed and ~60 %; a slice whose two
reference readings agree is in one of them.  For every (workload, phase,
slice position) that was seen in both, the sensitivity is

    b = log(median slow time / median fast time) / log(median slow reading / median fast reading)

— how much of the reference kernel's slowdown that work shares.  Medians of
two well-separated clusters, not a regression: the readings are noisy, and
noise in the regressor would pull a fitted slope towards zero.  The printed
values go into the ``sensitivity`` tables of the workloads (``harness.py``
holds the default); only a ``benchmark`` change may edit them, because every
recorded figure depends on them.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e.refclock import REF_NOMINAL_S  # noqa: E402

#: Reference readings (relative to nominal) that count as the fast and the slow state.
FAST = (0.90, 1.15)
SLOW = (1.50, 2.10)
#: The two readings around a slice must agree this well for it to count.
AGREEMENT = 0.08

Key = Tuple[str, str, str, int]


def state_of(piece: Dict[str, float]) -> str:
    low, high = sorted((piece["ref_before"], piece["ref_after"]))
    if (high - low) / low > AGREEMENT:
        return ""
    relative = (low + high) / 2 / REF_NOMINAL_S
    if FAST[0] < relative < FAST[1]:
        return "fast"
    if SLOW[0] < relative < SLOW[1]:
        return "slow"
    return ""


def main(paths: List[str]) -> int:
    seen: Dict[Key, Dict[str, List[Tuple[float, float]]]] = {}
    for path in paths:
        workload = Path(path).name.split(".")[0]
        for phase, pieces in json.loads(Path(path).read_text()).items():
            for piece in pieces:
                state = state_of(piece)
                if not state:
                    continue
                reading = (piece["ref_before"] + piece["ref_after"]) / 2
                observations = {"wall": piece["wall_s"]}
                for series in ("ack", "detect"):
                    samples = piece["samples"].get(series, ())
                    if len(samples) >= 8:
                        observations[series] = statistics.median(samples)
                for kind, value in observations.items():
                    position = piece["position"] if kind == "wall" else 0
                    seen.setdefault((workload, phase, kind, position), {}).setdefault(
                        state, []
                    ).append((value, reading))
    estimates: Dict[Tuple[str, str, str], List[Tuple[float, int, int]]] = {}
    for (workload, phase, kind, _), states in seen.items():
        fast, slow = states.get("fast", []), states.get("slow", [])
        if len(fast) < 3 or len(slow) < 3:
            continue
        times = [statistics.median(value for value, _ in group) for group in (fast, slow)]
        readings = [statistics.median(reading for _, reading in group) for group in (fast, slow)]
        estimates.setdefault((workload, phase, kind), []).append(
            (math.log(times[1] / times[0]) / math.log(readings[1] / readings[0]), len(fast), len(slow))
        )
    print(f"{'workload':<18} {'phase':<11} {'of':<7} {'fast':>5} {'slow':>5}  sensitivity")
    for (workload, phase, kind), values in sorted(estimates.items()):
        print(
            f"{workload:<18} {phase:<11} {kind:<7} {sum(v[1] for v in values):>5} "
            f"{sum(v[2] for v in values):>5}  {statistics.median(v[0] for v in values):.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
