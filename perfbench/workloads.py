"""Workload definitions: corpus generator settings, modality masks and
training hyperparameters for each benchmark workload.

Every net trains for a fixed number of epochs (patience >= epochs), so a
change that moves a loss in the last bits cannot move the stop epoch and
with it the amount of work timed. Epochs are set per net: the boundary net
must train long enough to clear threshold_b (below that every video is one
scene and final_a = final_d = 0), while the segment nets cost the most per
epoch. The corpus seed comes from the command line; the training seed and
the train/val split seed are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    generator: dict
    seg_mask: tuple
    tag_mask: tuple
    training: dict
    epochs: dict  # net ("boundary", "segment", "tag") -> epochs
    # CLI-style predict + evaluate passes of an untraced run;
    # predict_load_s and evaluate_s are medians over them
    passes: int
    # latency rounds the run makes at least, however short --seconds is,
    # so that the latency window is not a single fraction of a second;
    # they are shared out evenly after the passes
    min_rounds: int
    # corpus generations in set-up; setup_s is their median
    setup_repeats: int = 5


def _training(hidden_dim):
    return {"lr": 0.01, "batch_size": 32, "dropout": 0.5, "hidden_dim": hidden_dim, "seed": 7}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="reference",
            generator={
                "num_videos": 250,
                "duration_mean_s": 42.74,
                "duration_std_s": 14.16,
                "scenes_per_video": (2, 5),
                "shots_per_scene": (1, 4),
                "num_tags": 8,
                "tags_per_scene": (1, 3),
                "modalities": {"vis_r50": 16, "vis_i3": 16, "image": 16, "audio": 16,
                               "text": 16},
                "signal": {"vis_r50": "scene", "vis_i3": "tag", "image": "scene",
                           "audio": "tag", "text": "none"},
                "noise_std": 0.05,
            },
            # the masks of scripts/run_reference_experiment.py
            seg_mask=("vis_r50", "image"),
            tag_mask=("vis_i3", "audio"),
            training=_training(hidden_dim=16),
            epochs={"boundary": 30, "segment": 12, "tag": 20},
            passes=3,
            min_rounds=9,
        ),
        Workload(
            name="paper-width",
            generator={
                "num_videos": 130,
                "duration_mean_s": 12.0,
                "duration_std_s": 3.0,
                "scenes_per_video": (2, 3),
                "shots_per_scene": (1, 2),
                "num_tags": 82,
                "tags_per_scene": (1, 3),
                "modalities": {"vis_r50": 2048, "vis_i3": 1024},
                "signal": {"vis_r50": "scene", "vis_i3": "tag"},
                "noise_std": 0.05,
            },
            # the per-task split of the shipped masks: segmentation nets read
            # the scene-signal modality, the tag net the tag-signal one
            seg_mask=("vis_r50",),
            tag_mask=("vis_i3",),
            training=_training(hidden_dim=128),
            epochs={"boundary": 8, "segment": 4, "tag": 20},
            passes=1,
            min_rounds=10,
            setup_repeats=3,
        ),
    )
}
