"""F5 — Fig. 5 / Sec. 3.1: testing-phase feedback.

The paper's testing phase visualises the learned windows and the user's
tracked joints so they can see *why* a movement was (not) detected.  The
equivalent signal in this reproduction is the per-gesture partial-match
progress exposed by the detector.  The benchmark replays a swipe performance
frame by frame and reports the progress curve: it must rise through the pose
sequence and either complete (detection) or expose where an aborted movement
stopped.

The benchmark kernel times one feedback snapshot (cheap: it is read per
rendered GUI frame in the original system).
"""


from benchmarks.conftest import learn_gesture, make_simulator, print_table
from repro.detection import GestureDetector
from repro.kinect import CircleTrajectory, SwipeTrajectory


def test_fig5_partial_match_feedback(benchmark, query_generator):
    detector = GestureDetector()
    for name, trajectory, seed in (
        ("swipe_right", SwipeTrajectory("right"), 610),
        ("circle", CircleTrajectory(), 611),
    ):
        detector.deploy(learn_gesture(name, trajectory, seed=seed))

    benchmark(detector.feedback)

    simulator = make_simulator(seed=77)
    frames = simulator.perform_variation(
        SwipeTrajectory("right"), hold_start_s=0.2, hold_end_s=0.2
    )

    rows = []
    checkpoints = [0.25, 0.5, 0.75, 1.0]
    consumed = 0
    for fraction in checkpoints:
        target = int(len(frames) * fraction)
        detector.process_frames(frames[consumed:target])
        consumed = target
        feedback = detector.feedback()
        rows.append(
            {
                "frames replayed": f"{int(fraction * 100)}%",
                "swipe_right progress": f"{feedback.progress['swipe_right']:.0%}",
                "circle progress": f"{feedback.progress['circle']:.0%}",
                "best candidate": feedback.best_candidate() or "-",
                "detections": len(detector.events),
            }
        )
    print_table("F5: partial-match progress during a swipe performance", rows)

    # Mid-performance the swipe pattern must lead, and the full performance
    # must end in a detection.
    mid = rows[1]
    assert mid["best candidate"] == "swipe_right"
    assert rows[-1]["detections"] >= 1

    # An aborted movement: progress is visible but no detection fires.
    detector.clear()
    detector.process_frames(frames[: len(frames) // 3])
    aborted = detector.feedback()
    print_table(
        "F5: aborted movement feedback",
        [{
            "swipe_right progress": f"{aborted.progress['swipe_right']:.0%}",
            "detections": len(detector.events),
        }],
    )
    assert aborted.progress["swipe_right"] > 0.0
    assert len(detector.events) == 0
