"""Correctness: the workload's detections against an independent reference.

The reference is the simplest path the program has — one inline session,
``telemetry=False``, one tuple at a time — fed the first tiles of the same
stream.  Per player, the workload's own path (batched, sharded over
processes, through the gateway, journalled, recovered) must produce the same
detections *byte for byte* (``Detection.to_state()`` as sorted-key JSON).
Players are compared separately because that is the program's contract:
shards and tenants may interleave players, never reorder one player.

``macro_f1`` scores those reference detections against the generator's
script (which player performed which gestures): it is exact per seed, and it
falls if a change to the learner or the matcher detects something else.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping

from repro.api import GestureSession, SessionConfig

from .inputs import GESTURE_NAMES, LIGHT_VOCABULARY, SETUP_SAMPLES, Inputs

#: The check covers the first tiles of the stream, this many tuples' worth.
CHECK_TUPLES = 8000

Canonical = Dict[Any, List[str]]


def check_tiles(inputs: Inputs) -> int:
    return max(1, round(CHECK_TUPLES / len(inputs.tile)))


def canonical(states: Iterable[Mapping[str, Any]]) -> Canonical:
    """Per-player detection sequences as byte-comparable JSON strings."""
    grouped: Canonical = {}
    for state in states:
        grouped.setdefault(state["partition"], []).append(json.dumps(state, sort_keys=True))
    return grouped


def learn_vocabulary(session: GestureSession, inputs: Inputs, deploy: bool = True) -> None:
    """Learn the eight gestures from the set-up samples (what every workload deploys)."""
    for name in GESTURE_NAMES:
        session.learn(
            name,
            inputs.samples[name][:SETUP_SAMPLES],
            joints=inputs.joints[name],
            deploy=deploy,
        )


def reference(inputs: Inputs, tiles: int, light: bool = False) -> Canonical:
    """Detections of the first ``tiles`` tiles on the reference path.

    ``light`` replays ``inputs.tile`` as already-transformed tuples through
    the two hand-written queries (the ``durable_lifecycle`` data path).
    """
    with GestureSession(SessionConfig(telemetry=False)) as session:
        if light:
            session.deploy_vocabulary(dict(LIGHT_VOCABULARY))
        else:
            learn_vocabulary(session, inputs)
        stream = "kinect_t" if light else None
        for index in range(tiles):
            for frame in inputs.shifted(index):
                session.feed_frame(frame, stream=stream)
        return canonical(detection.to_state() for detection in session.detections())


def mismatched_players(expected: Canonical, actual: Canonical) -> List[Any]:
    """Players whose detection sequence differs (missing and extra players included)."""
    return sorted(
        (player for player in set(expected) | set(actual) if expected.get(player) != actual.get(player)),
        key=str,
    )


def macro_f1(detections: Canonical, inputs: Inputs) -> float:
    """Macro-averaged F1 of "player performed gesture" over the vocabulary.

    Truth: the generator's script.  Prediction: the gesture was detected for
    that player at least once during the first tile.
    """
    script = inputs.script
    detected: Dict[Any, set] = {}
    for player, states in detections.items():
        for state in map(json.loads, states):
            if state["timestamp"] <= inputs.tile_span_s:
                detected.setdefault(player, set()).add(state["output"])
    scores = []
    for gesture in GESTURE_NAMES:
        performed = {player for player, gestures in script.items() if gesture in gestures}
        fired = {player for player, outputs in detected.items() if gesture in outputs}
        true_positives = len(performed & fired)
        if not true_positives:
            scores.append(0.0)
            continue
        precision = true_positives / len(fired)
        recall = true_positives / len(performed)
        scores.append(2 * precision * recall / (precision + recall))
    return sum(scores) / len(scores)
