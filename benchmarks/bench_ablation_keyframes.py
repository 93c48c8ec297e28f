"""Ablation — uniform vs content-adaptive key-frame selection.

TVDP stores videos as key-frame sets.  Uniform every-k sampling is the
MediaQ default; adaptive selection keeps a frame only when its features
drift from the last kept frame, trading frame count against how many of
the video's distinct scene labels survive into storage.
"""

import numpy as np

from benchmarks.conftest import print_table
from repro.core import select_keyframes_adaptive, select_keyframes_uniform
from repro.datasets import generate_fleet_videos
from repro.features import ColorHistogramExtractor


def label_recall(video, kept):
    """Fraction of the video's distinct labels present among kept frames."""
    all_labels = {f.label for f in video.frames}
    kept_labels = {f.label for f in kept}
    return len(kept_labels & all_labels) / len(all_labels)


def test_ablation_keyframe_selection(benchmark, capsys):
    videos = generate_fleet_videos(n_videos=4, n_frames=30, image_size=40, seed=0)
    extractor = ColorHistogramExtractor()

    def run():
        stats = {"uniform_k5": [], "adaptive": []}
        for video in videos:
            uniform = select_keyframes_uniform(video, every=5)
            adaptive = select_keyframes_adaptive(video, extractor, threshold=0.18)
            stats["uniform_k5"].append((len(uniform), label_recall(video, uniform)))
            stats["adaptive"].append((len(adaptive), label_recall(video, adaptive)))
        return stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    header = f"{'policy':<14}{'mean frames kept':>18}{'label recall':>14}"
    rows = []
    summary = {}
    for name, entries in stats.items():
        frames = np.mean([n for n, _ in entries])
        recall = np.mean([r for _, r in entries])
        summary[name] = (frames, recall)
        rows.append(f"{name:<14}{frames:>18.1f}{recall:>14.2f}")
    rows.append("")
    rows.append("(30-frame videos; adaptive keeps frames only on feature drift)")
    print_table(capsys, "Ablation: key-frame selection policies", header, rows)

    # Adaptive must not lose label coverage relative to uniform while
    # remaining well below storing every frame.
    assert summary["adaptive"][1] >= summary["uniform_k5"][1] - 0.1
    assert summary["adaptive"][0] < 30
