"""Reference clock: a fixed kernel that measures how fast the machine is *now*.

This box is a shared 2-core VM that drops to ~60 % speed for 30-200 s at a
time, so a raw wall-clock (or CPU-time) figure of unchanged code moves far
more than any effect worth claiming.  Every timed segment of the benchmark is
therefore bracketed by this kernel, run while the system under test is
quiescent, and the segment's time is multiplied by
``speed = REF_NOMINAL_S / mean(ref_before, ref_after)`` — "seconds at nominal
machine speed".

The kernel has the program's instruction mix (closure calls doing
``abs(rec[f] - c) < w`` over dict records inside a short-circuiting
conjunction, dict copies, list appends), so it slows down when the program
does.  It must never be edited outside a ``benchmark`` PR: every recorded
number is a ratio against it.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

#: Lower-decile time of one :func:`kernel` call on this box when quiet,
#: calibrated once (see README, "Reference normalisation").  Frozen: changing
#: it rescales every recorded metric.
REF_NOMINAL_S = 0.0040

#: A segment whose two bracketing reference timings differ by more than this
#: share was measured while the machine changed speed; it is excluded.
TORN_THRESHOLD = 0.15

_FIELDS = 40
_RECORDS = 768
_QUERIES = 8
_ATOMS = 5


def _window(name: str, center: float, width: float) -> Callable[[Dict[str, float]], bool]:
    def compare_window(record: Dict[str, float]) -> bool:
        return bool(abs(record[name] - center) < width)

    return compare_window


def _conjunction(atoms: Tuple[Callable[[Dict[str, float]], bool], ...]):
    def conjunction(record: Dict[str, float]) -> bool:
        for predicate in atoms:
            if not predicate(record):
                return False
        return True

    return conjunction


def _build() -> Tuple[List[Dict[str, float]], List[Callable[[Dict[str, float]], bool]]]:
    # Plain arithmetic, no RNG: the kernel's inputs are the same in every
    # process and every Python version.
    records = [
        {
            # The per-record offset makes every value its own float object, so
            # the kernel's working set (~3 MB) misses cache like a tile of
            # skeleton frames does; a cache-resident kernel slows down more
            # than the program when the machine does (1.70x against 1.65x).
            f"f{field:02d}": ((record * 37 + field * 11) % 101) * 10.0 + (record % 7) * 0.001
            for field in range(_FIELDS)
        }
        for record in range(_RECORDS)
    ]
    predicates = []
    for query in range(_QUERIES):
        atoms = tuple(
            # Wide first atoms, so most conjunctions evaluate several atoms
            # before rejecting — like a learned window sequence does.
            _window(f"f{(query * 5 + atom) % _FIELDS:02d}", 500.0, 450.0 - atom * 60.0)
            for atom in range(_ATOMS)
        )
        predicates.append(_conjunction(atoms))
    return records, predicates


_RECORDS_DATA, _PREDICATES = _build()


def kernel() -> int:
    """One fixed unit of work; returns a checksum so nothing is optimised out."""
    matched = 0
    out: List[Dict[str, float]] = []
    for record in _RECORDS_DATA:
        copy = dict(record)
        copy["ts"] = copy["f00"] + 1.0
        for predicate in _PREDICATES:
            if predicate(copy):
                matched += 1
        out.append(copy)
    return matched + len(out)


def ref_time() -> float:
    """Seconds one kernel call takes right now: the faster of two back-to-back calls.

    The first call also re-warms the caches: a reading follows a slice in
    which the program (or, while this process waited on shard workers,
    something else) evicted the kernel's records, and a cache-cold call reads
    10-30 % slow on a machine that is not slow at all.  Two calls, not more:
    slices are as short as 20 ms, so the bracket has to stay cheap, and a
    reading that was preempted still disagrees with its neighbour and tears
    the slice, which removes it.
    """
    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - started)
    return best


def speed(ref_before: float, ref_after: float) -> float:
    """Machine speed over a segment relative to nominal (1.0 = calibration box, quiet)."""
    return REF_NOMINAL_S / ((ref_before + ref_after) / 2.0)


def torn(ref_before: float, ref_after: float) -> bool:
    """True when the machine changed speed across the segment."""
    low, high = sorted((ref_before, ref_after))
    return (high - low) / low > TORN_THRESHOLD
