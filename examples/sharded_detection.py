#!/usr/bin/env python3
"""Sharded detection: 8 concurrent players on a 4-shard session.

One Kinect stream carrying many players is embarrassingly parallel: the
matchers keep all their state per player (PR 2), so the session can route
every frame to one of N worker shards by a stable hash of its ``player``
id and run N engines side by side.  ``GestureSession(shards=4)`` does
exactly that — ``deploy`` fans out to every shard, ``feed`` routes, and
``detections`` / ``events`` / ``on`` behave as if the engine were inline
(reads wait for queued frames to finish, and per player the detections
are identical to a single engine's).

The session also exposes what the runtime measures about itself:
per-shard throughput, queue-depth high-water marks and detection counts
via ``session.metrics``.

Run with::

    python examples/sharded_detection.py
"""

from repro.api import GestureSession, SessionConfig
from repro.core import LearnerConfig
from repro.detection import WorkflowConfig
from repro.kinect import (
    KinectSimulator,
    SwipeTrajectory,
    generate_multiuser_recording,
    user_by_name,
)
from repro.streams import SimulatedClock


def main() -> None:
    swipe = SwipeTrajectory(direction="right")
    trainer = KinectSimulator(user=user_by_name("adult"), clock=SimulatedClock())
    samples = [
        trainer.perform_variation(swipe, hold_start_s=0.3, hold_end_s=0.3)
        for _ in range(4)
    ]

    # An 8-player shared scene, everyone swiping on their own schedule.
    recording = generate_multiuser_recording(
        {"swipe_right": swipe}, user_count=8, gestures_per_user=2, seed=11
    )

    config = SessionConfig(
        shards=4,                      # 4 worker shards, players hashed across them
        workflow=WorkflowConfig(learner=LearnerConfig(joints=("rhand",))),
    )
    with GestureSession(config) as session:
        print("Learning 'swipe_right' from 4 samples, deploying to all 4 shards ...")
        session.learn("swipe_right", samples, deploy=True)

        session.on(
            "swipe_right",
            lambda event: print(
                f"  shard-routed detection: player {event.player} swiped "
                f"at t={event.timestamp:.2f}s"
            ),
        )

        print(f"\nFeeding {len(recording)} interleaved frames of 8 players ...")
        session.feed(recording.frames)
        session.drain()  # explicit barrier (reads would drain implicitly)

        per_player = {
            player_id: len(session.detections("swipe_right", partition=player_id))
            for player_id in recording.player_ids
        }
        print(f"\nDetections per player: {per_player}")
        assert all(count >= 1 for count in per_player.values()), (
            "every player's swipes should be detected despite the sharding"
        )

        print("\nRuntime metrics (per shard):")
        for shard in session.metrics.snapshot()["shards"]:
            print(
                f"  shard {shard['shard_id']}: "
                f"{shard['tuples_processed']} tuples, "
                f"{shard['detections']} detections, "
                f"queue hwm {shard['queue_depth_hwm']}, "
                f"{shard['tuples_per_second']:.0f} tuples/s busy throughput"
            )
        totals = session.metrics.totals()
        print(
            f"  total: {totals['tuples_processed']} tuples, "
            f"{totals['detections']} detections"
        )


if __name__ == "__main__":
    main()
