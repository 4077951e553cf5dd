"""Seeded input generation — everything the program is fed, and nothing else.

``--seed`` drives the Kinect simulator (sensor noise, waypoint variation,
which player performs which gesture) and nothing in the program: the program
receives only frames.  One run uses

* **training samples** — five simulated performances of each of the eight
  vocabulary gestures (set-up learns from the first four; the learn phase
  cycles through 3, 4 and 5);
* **one tile** — ``generate_multiuser_recording(user_count=K,
  gestures_per_user=4)``: K players gesturing concurrently for ~10 s of
  sensor time, interleaved into one stream, with the generator's script
  (who performed what) as ground truth.

The stream a workload feeds is that tile over and over with ``ts`` shifted by
the tile span plus one second, produced lazily: the load never sits in memory
(a materialised 100k-frame list alone is ~230 MB, which would drown
``peak_rss_mb``), every segment does the same work (so a median over segments
is a median over repeats, not over different inputs), and the one-second gap
lets every partial match expire between tiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.kinect import (
    CircleTrajectory,
    GaussianNoise,
    KinectSimulator,
    PushTrajectory,
    RaiseHandTrajectory,
    SwipeTrajectory,
    WaveTrajectory,
    generate_multiuser_recording,
    user_by_name,
)
from repro.streams import SimulatedClock
from repro.transform.pipeline import KinectTransformer

Frame = Dict[str, float]

#: The 8-gesture vocabulary.  Equal to ``benchmarks/conftest.py``'s
#: ``THROUGHPUT_GESTURES`` (the C5/B1 vocabulary) but owned here: the legacy
#: suite is due for a clean-up and must not be able to change this benchmark.
VOCABULARY = (
    ("swipe_right", SwipeTrajectory("right")),
    ("swipe_left", SwipeTrajectory("left", hand="lhand")),
    ("circle", CircleTrajectory()),
    ("push", PushTrajectory()),
    ("raise_hand", RaiseHandTrajectory()),
    ("wave_big", WaveTrajectory(cycles=2, amplitude_mm=260.0, name="wave_big")),
    ("swipe_right_low", SwipeTrajectory("right", height_mm=-100.0, name="swipe_right_low")),
    ("push_left", PushTrajectory(hand="lhand", name="push_left")),
)

GESTURE_NAMES = tuple(name for name, _ in VOCABULARY)

#: Two cheap hand-written queries over the transformed stream: the
#: ``durable_lifecycle`` workload deploys these so the matcher is nearly idle
#: and the journal dominates.
LIGHT_VOCABULARY = {
    "hand_high": 'SELECT "hand_high" MATCHING kinect_t(rhand_y > 450);',
    "raise_lower": (
        'SELECT "raise_lower" MATCHING ( kinect_t(rhand_y > 400) -> '
        "kinect_t(rhand_y < 100) within 5 seconds );"
    ),
}

SAMPLES_PER_GESTURE = 5
SETUP_SAMPLES = 4
GESTURES_PER_PLAYER = 4
TILE_GAP_S = 1.0


def joints_of(trajectory) -> Tuple[str, ...]:
    """The joint a gesture is learned on (the hand that performs it)."""
    return ("lhand",) if getattr(trajectory, "hand", "rhand") == "lhand" else ("rhand",)


@dataclass
class Inputs:
    """One run's inputs (see the module docstring)."""

    seed: int
    players: int
    samples: Dict[str, List[List[Frame]]]
    joints: Dict[str, Tuple[str, ...]]
    tile: List[Frame]
    tile_span_s: float
    #: player id -> the gestures the generator made that player perform.
    script: Dict[int, Tuple[str, ...]]

    def shifted(self, index: int, frames: Sequence[Frame] = ()) -> List[Frame]:
        """Tile number ``index`` of the stream: the tile, ``ts`` moved on."""
        offset = index * (self.tile_span_s + TILE_GAP_S)
        return [dict(frame, ts=frame["ts"] + offset) for frame in (frames or self.tile)]


def training_samples(seed: int, index: int) -> List[List[Frame]]:
    """The simulated training performances of vocabulary gesture ``index``."""
    _, trajectory = VOCABULARY[index]
    simulator = KinectSimulator(
        user=user_by_name("adult"),
        clock=SimulatedClock(),
        noise=GaussianNoise(sigma_mm=6.0, rng=np.random.default_rng([seed, index, 0])),
        rng=np.random.default_rng([seed, index, 1]),
    )
    return [
        simulator.perform_variation(trajectory, hold_start_s=0.3, hold_end_s=0.3)
        for _ in range(SAMPLES_PER_GESTURE)
    ]


def generate(seed: int, players: int) -> Inputs:
    """All inputs of one run; the same ``(seed, players)`` gives the same inputs."""
    recording = generate_multiuser_recording(
        dict(VOCABULARY),
        user_count=players,
        gestures_per_user=GESTURES_PER_PLAYER,
        # Distinct from every training-sample stream of the same seed.
        seed=int(np.random.default_rng([seed, 99]).integers(2**31)),
    )
    return Inputs(
        seed=seed,
        players=players,
        samples={name: training_samples(seed, index) for index, name in enumerate(GESTURE_NAMES)},
        joints={name: joints_of(trajectory) for name, trajectory in VOCABULARY},
        tile=recording.frames,
        tile_span_s=recording.frames[-1]["ts"],
        script={
            player: tuple(player_recording.gesture.split("+"))
            for player, player_recording in recording.players.items()
        },
    )


def transformed(frames: Sequence[Frame]) -> List[Frame]:
    """``kinect_t`` tuples of raw frames, computed outside the program.

    ``durable_lifecycle`` feeds these straight into the transformed stream,
    so the journal and the two light queries are all that is left on the
    path.  One transformer for the whole list keeps per-player smoothing
    exactly as the view would.
    """
    transformer = KinectTransformer()
    return [transformer.transform(frame) for frame in frames]
