"""Recordings: persisted sensor traces and labelled data-set generation.

Fig. 1 of the paper shows a raw sensor trace as a CSV-like listing of joint
coordinates.  This module provides the same representation: a
:class:`Recording` bundles the frames of one gesture performance with its
label and the user who performed it, and can be saved to / loaded from CSV.

:func:`generate_dataset` produces the labelled corpora used by the
evaluation benchmarks: for each gesture in a catalogue it simulates several
performances by several users, optionally interleaved with idle segments and
distractor gestures to measure false-positive rates.

:func:`generate_multiuser_recording` simulates a *shared sensor space*: K
body profiles perform their own gesture scripts concurrently, each stamped
with a distinct ``player`` id, and the per-player frame sequences are merged
into one timestamp-ordered stream.  The per-player ground-truth recordings
are kept alongside the merged stream, which is what lets the multi-user
tests assert that detections on the interleaved stream equal the
isolated single-user runs, player by player.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.kinect.noise import GaussianNoise
from repro.kinect.simulator import KINECT_FREQUENCY_HZ, KinectSimulator
from repro.kinect.trajectories import Trajectory
from repro.kinect.users import STANDARD_USERS, BodyProfile
from repro.streams.clock import SimulatedClock


@dataclass
class Recording:
    """One recorded gesture performance.

    Attributes
    ----------
    gesture:
        Gesture label ("swipe_right", …) or ``"idle"`` for negative data.
    user:
        Name of the body profile that performed it.
    frames:
        The raw sensor tuples in playback order.
    frequency_hz:
        Frame rate the recording was captured at.
    """

    gesture: str
    user: str
    frames: List[Dict[str, float]] = field(default_factory=list)
    frequency_hz: float = KINECT_FREQUENCY_HZ

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def duration_s(self) -> float:
        """Duration derived from the first and last frame timestamps."""
        if len(self.frames) < 2:
            return 0.0
        return float(self.frames[-1]["ts"] - self.frames[0]["ts"])

    def fields(self) -> List[str]:
        """Field names present in the recording, timestamp first."""
        if not self.frames:
            return []
        keys = list(self.frames[0].keys())
        ordered = [k for k in ("ts", "player") if k in keys]
        ordered += sorted(k for k in keys if k not in ("ts", "player"))
        return ordered


def save_recording_csv(recording: Recording, path: Path) -> None:
    """Write a recording as CSV (one row per frame, Fig. 1 style)."""
    path = Path(path)
    fields = recording.fields()
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, delimiter=";")
        writer.writerow(["# gesture", recording.gesture])
        writer.writerow(["# user", recording.user])
        writer.writerow(["# frequency_hz", recording.frequency_hz])
        writer.writerow(fields)
        for frame in recording.frames:
            writer.writerow([frame.get(name, "") for name in fields])


def load_recording_csv(path: Path) -> Recording:
    """Read a recording written by :func:`save_recording_csv`."""
    path = Path(path)
    gesture = "unknown"
    user = "unknown"
    frequency = KINECT_FREQUENCY_HZ
    frames: List[Dict[str, float]] = []
    header: Optional[List[str]] = None
    with path.open(newline="") as handle:
        reader = csv.reader(handle, delimiter=";")
        for row in reader:
            if not row:
                continue
            if row[0].startswith("#"):
                key = row[0].lstrip("# ").strip()
                if key == "gesture":
                    gesture = row[1]
                elif key == "user":
                    user = row[1]
                elif key == "frequency_hz":
                    frequency = float(row[1])
                continue
            if header is None:
                header = row
                continue
            frame: Dict[str, float] = {}
            for name, value in zip(header, row):
                if value == "":
                    continue
                frame[name] = int(value) if name == "player" else float(value)
            frames.append(frame)
    return Recording(gesture=gesture, user=user, frames=frames, frequency_hz=frequency)


def generate_dataset(
    gestures: Mapping[str, Trajectory],
    users: Optional[Sequence[BodyProfile]] = None,
    samples_per_gesture: int = 5,
    noise_sigma_mm: float = 6.0,
    hold_start_s: float = 0.3,
    hold_end_s: float = 0.3,
    include_idle: bool = True,
    idle_duration_s: float = 2.0,
    seed: int = 7,
) -> List[Recording]:
    """Generate a labelled corpus of gesture recordings.

    Parameters
    ----------
    gestures:
        Gesture name → trajectory mapping (e.g. from
        :func:`repro.kinect.trajectories.standard_gesture_catalog`).
    users:
        Body profiles that perform the gestures; defaults to the standard
        user catalogue (child … tall adult).
    samples_per_gesture:
        Performances per (gesture, user) pair.
    noise_sigma_mm:
        Sensor noise level.
    include_idle:
        Whether to add idle recordings (negative examples) per user.
    seed:
        Seed for both waypoint variability and sensor noise so data sets are
        reproducible across runs.

    Returns
    -------
    list of :class:`Recording`
    """
    if samples_per_gesture < 1:
        raise ValueError("samples_per_gesture must be at least 1")
    users = list(users) if users is not None else list(STANDARD_USERS[:4])
    rng = np.random.default_rng(seed)
    recordings: List[Recording] = []
    for user in users:
        simulator = KinectSimulator(
            user=user,
            clock=SimulatedClock(),
            noise=GaussianNoise(sigma_mm=noise_sigma_mm, rng=np.random.default_rng(rng.integers(2**31))),
            rng=np.random.default_rng(rng.integers(2**31)),
        )
        for name, trajectory in gestures.items():
            for _ in range(samples_per_gesture):
                frames = simulator.perform_variation(
                    trajectory, hold_start_s=hold_start_s, hold_end_s=hold_end_s
                )
                recordings.append(
                    Recording(gesture=name, user=user.name, frames=frames)
                )
        if include_idle:
            frames = simulator.idle_frames(idle_duration_s)
            recordings.append(Recording(gesture="idle", user=user.name, frames=frames))
    return recordings


@dataclass
class MultiUserRecording:
    """A shared-scene sensor trace: K players interleaved in one stream.

    Attributes
    ----------
    frames:
        The merged stream, ordered by timestamp (ties broken by player id).
        Every frame carries the ``player`` field of the user it belongs to.
    players:
        Player id → that player's isolated ground-truth recording.  The
        interleaved stream restricted to one player is exactly that player's
        recording, frame for frame — the equivalence the partitioned
        detection path must preserve.
    frequency_hz:
        Per-player frame rate of the underlying simulators.
    """

    frames: List[Dict[str, float]] = field(default_factory=list)
    players: Dict[int, Recording] = field(default_factory=dict)
    frequency_hz: float = KINECT_FREQUENCY_HZ

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def player_ids(self) -> List[int]:
        return sorted(self.players)

    def frames_for(self, player_id: int) -> List[Dict[str, float]]:
        """The interleaved stream restricted to one player."""
        return [frame for frame in self.frames if frame.get("player") == player_id]


def generate_multiuser_recording(
    gestures: Mapping[str, Trajectory],
    users: Optional[Sequence[BodyProfile]] = None,
    user_count: Optional[int] = None,
    gestures_per_user: int = 2,
    pause_s: float = 0.5,
    hold_start_s: float = 0.3,
    hold_end_s: float = 0.3,
    noise_sigma_mm: float = 6.0,
    seed: int = 7,
) -> MultiUserRecording:
    """Simulate K users gesturing concurrently in one sensor space.

    Each user gets their own simulator (distinct ``player`` id, own noise
    and variation seeds, own 30 Hz clock phase-shifted by a fraction of a
    frame so the merged stream interleaves deterministically) and performs
    ``gestures_per_user`` gestures from the catalogue — rotated per user, so
    different users perform different gestures at the same moment —
    separated by idle pauses.

    Parameters
    ----------
    gestures:
        Gesture name → trajectory catalogue the users draw from.
    users:
        Body profiles to simulate; defaults to the first four standard
        users.  Ignored when ``user_count`` is given.
    user_count:
        Number of users, cycling through the standard catalogue (so 16
        concurrent users are three copies of each profile — but with
        distinct player ids, seeds and clock phases).
    pause_s / hold_start_s / hold_end_s:
        Idle time between gestures and stationary holds around each one.
    noise_sigma_mm:
        Sensor noise level.
    seed:
        Master seed; every user derives an independent stream from it.

    Returns
    -------
    :class:`MultiUserRecording`
        The interleaved stream plus per-player ground truth.
    """
    if not gestures:
        raise ValueError("the gesture catalogue must not be empty")
    if gestures_per_user < 1:
        raise ValueError("gestures_per_user must be at least 1")
    if user_count is not None:
        profiles = [STANDARD_USERS[i % len(STANDARD_USERS)] for i in range(user_count)]
    else:
        profiles = list(users) if users is not None else list(STANDARD_USERS[:4])
    if not profiles:
        raise ValueError("at least one user is required")

    rng = np.random.default_rng(seed)
    names = list(gestures)
    frame_period = 1.0 / KINECT_FREQUENCY_HZ
    result = MultiUserRecording()
    for index, profile in enumerate(profiles):
        player_id = index + 1
        # Phase-shift each player's clock by a fraction of a frame: real
        # cameras do not sample all skeletons at the same instant, and the
        # merge below becomes a deterministic round-robin interleaving.
        clock = SimulatedClock(start=index * frame_period / (len(profiles) + 1))
        simulator = KinectSimulator(
            user=profile,
            clock=clock,
            noise=GaussianNoise(
                sigma_mm=noise_sigma_mm, rng=np.random.default_rng(rng.integers(2**31))
            ),
            rng=np.random.default_rng(rng.integers(2**31)),
            player_id=player_id,
        )
        script = [
            names[(index + position) % len(names)]
            for position in range(gestures_per_user)
        ]
        frames: List[Dict[str, float]] = []
        for position, gesture_name in enumerate(script):
            if position and pause_s > 0:
                frames.extend(simulator.idle_frames(pause_s))
            frames.extend(
                simulator.perform_variation(
                    gestures[gesture_name],
                    hold_start_s=hold_start_s,
                    hold_end_s=hold_end_s,
                )
            )
        result.players[player_id] = Recording(
            gesture="+".join(script), user=profile.name, frames=frames
        )
    merged: List[Dict[str, float]] = [
        frame for recording in result.players.values() for frame in recording.frames
    ]
    # Stable sort: per-player frame order (already monotone in ts) survives,
    # so the merged stream restricted to a player is exactly their recording.
    merged.sort(key=lambda frame: (frame["ts"], frame["player"]))
    result.frames = merged
    return result


def recordings_by_gesture(
    recordings: Iterable[Recording],
) -> Dict[str, List[Recording]]:
    """Group recordings by gesture label."""
    grouped: Dict[str, List[Recording]] = {}
    for recording in recordings:
        grouped.setdefault(recording.gesture, []).append(recording)
    return grouped
