"""Full reference experiment: generate, train every submodel, run all four
pipeline modes, and print a comparison table.

Usage:
    python scripts/run_reference_experiment.py [--config configs/reference.json]

Segmentation nets (boundary, segment) train under the vis_r50+image mask;
the tag net trains under vis_i3+audio, mirroring the per-task modality
choice. Everything lands under the config's paths. A config, data or
checkpoint error exits 2, 3 or 4 with the scenestruct CLI's message.
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from scenestruct.cli import run_with_exit_codes
from scenestruct.config import load_experiment_config
from scenestruct.data.corpus_io import load_corpus
from scenestruct.experiment import run_evaluate, run_generate, run_predict, run_train, split_corpus
from scenestruct.fusion import ModalityMask

SEGMENTATION_MASK = ["vis_r50", "image"]
TAGGING_MASK = ["vis_i3", "audio"]


def run_experiment(config_path) -> None:
    t0 = time.time()
    cfg = load_experiment_config(config_path)
    print(f"generating corpus ({cfg.generator.num_videos} videos, seed {cfg.generator.seed})")
    run_generate(cfg)

    seg_cfg = dataclasses.replace(cfg, mask=ModalityMask.from_names(SEGMENTATION_MASK))
    tag_cfg = dataclasses.replace(cfg, mask=ModalityMask.from_names(TAGGING_MASK))
    per_tag_cfg = dataclasses.replace(
        seg_cfg, training=dataclasses.replace(cfg.training, segment_head="per_tag")
    )

    print("training boundary net (mask: %s)" % "+".join(SEGMENTATION_MASK))
    run_train(seg_cfg, "boundary")
    print("training segment net, scalar head")
    run_train(seg_cfg, "segment")
    print("training segment net, per-tag head")
    run_train(per_tag_cfg, "segment")
    print("training tag net (mask: %s)" % "+".join(TAGGING_MASK))
    run_train(tag_cfg, "tag")

    corpus = load_corpus(cfg.paths.manifest, cfg.paths.records)
    _train_ids, val_ids = split_corpus(corpus, cfg.split.val_fraction, cfg.split.seed)
    rows = []
    for mode in "abcd":
        out_dir = Path(cfg.paths.out) / f"mode_{mode}"
        mode_cfg = dataclasses.replace(
            cfg,
            paths=dataclasses.replace(cfg.paths, out=str(out_dir)),
            pipeline=dataclasses.replace(cfg.pipeline, mode=mode),
        )
        run_predict(mode_cfg, mode, video_ids=val_ids)
        report = run_evaluate(mode_cfg, video_ids=val_ids)
        rows.append((mode, report))

    print("\nheld-out validation split (%d videos):" % len(val_ids))
    print("mode   avg_mAP   B-f1     S-f1     final (avg_mAP x B-f1)")
    for mode, report in rows:
        print(f"  {mode}    {report.avg_map:.4f}   {report.b_f1:.4f}   "
              f"{report.s_f1:.4f}   {report.final:.4f}")
    print(f"\ntotal wall time: {time.time() - t0:.0f}s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default="configs/reference.json")
    args = parser.parse_args()
    return run_with_exit_codes(lambda: run_experiment(args.config))


if __name__ == "__main__":
    sys.exit(main())
