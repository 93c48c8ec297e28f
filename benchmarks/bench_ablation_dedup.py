"""Ablation — storage saved by key-frame selection and deduplication.

"Visual data is huge in size and many times redundant" (paper Section
II).  A redundant truck-video corpus is ingested three ways: every
frame, uniform key frames, and content-adaptive key frames; exact
dedup and near-duplicate flagging report what redundancy remains.
"""

from benchmarks.conftest import print_table
from repro.core import TVDP, ingest_video, select_keyframes_adaptive
from repro.datasets import generate_fleet_videos
from repro.features import ColorHistogramExtractor

N_VIDEOS = 3
N_FRAMES = 24


def ingest_policy(policy: str) -> tuple[int, int, int]:
    """Returns (frames offered, rows stored, near-duplicate flags)."""
    platform = TVDP(detect_near_duplicates=True)
    extractor = ColorHistogramExtractor()
    videos = generate_fleet_videos(
        n_videos=N_VIDEOS, n_frames=N_FRAMES, image_size=40, seed=0,
        scene_change_prob=0.15,
    )
    offered = 0
    flagged = 0
    for video in videos:
        if policy == "all_frames":
            keyframes = list(video.frames)
        elif policy == "uniform_k4":
            keyframes = video.key_frames(every=4)
        else:
            keyframes = select_keyframes_adaptive(video, extractor, threshold=0.18)
        offered += len(keyframes)
        video_row = platform.register_video(uri=f"tvdp://videos/{video.video_id}")
        for frame in keyframes:
            receipt = platform.upload_image(
                video.render_frame(frame.frame_number),
                frame.fov,
                frame.timestamp,
                frame.timestamp + 300.0,
                video_id=video_row,
                frame_number=frame.frame_number,
            )
            if receipt.near_duplicate_of is not None:
                flagged += 1
    stored = platform.stats()["rows"]["images"]
    return offered, stored, flagged


def test_ablation_redundancy_and_dedup(benchmark, capsys):
    def run():
        return {
            policy: ingest_policy(policy)
            for policy in ("all_frames", "uniform_k4", "adaptive")
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    header = f"{'ingest policy':<16}{'offered':>9}{'stored':>8}{'near-dup flags':>16}"
    rows = [
        f"{policy:<16}{offered:>9}{stored:>8}{flagged:>16}"
        for policy, (offered, stored, flagged) in results.items()
    ]
    total = N_VIDEOS * N_FRAMES
    adaptive_stored = results["adaptive"][1]
    rows.append("")
    rows.append(
        f"adaptive stores {adaptive_stored}/{total} frames "
        f"({1 - adaptive_stored / total:.0%} storage saved vs raw)"
    )
    print_table(capsys, "Ablation: redundancy handling at ingest", header, rows)

    all_offered, all_stored, all_flagged = results["all_frames"]
    # Raw ingest is drowning in near-duplicates (static-scene runs)...
    assert all_flagged > all_stored * 0.3
    # ...adaptive key-framing stores far less with few redundant frames.
    assert results["adaptive"][1] < all_stored * 0.6
    assert results["adaptive"][2] <= all_flagged
