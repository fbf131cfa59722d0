"""End-to-end experiment steps shared by the CLI, scripts and tests.

Running a step through the CLI or calling it here produces the same
numbers: the ablation sweep reuses these functions, so a single-mask
ablation equals a manual train + evaluate with the same seed.
"""

from __future__ import annotations

import dataclasses
import logging
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, write_resolved_config
from .data.corpus_io import load_corpus
from .data.labels import interior_boundaries, range_spans, shots_in_span, span_array
from .data.records import Corpus
from .errors import ConfigError, DataError
from .metrics import evaluate, f1_from_counts, match_boundaries, match_scenes, tagging_map, tiou
from .models import boundaries_to_scenes, save_model, train_boundary, train_segment, train_tag
from .models.bundle import checkpoint_filename, load_bundle
from .pipeline import predict_corpus, read_predictions, segment_proposals
from .synth import generate_corpus

log = logging.getLogger(__name__)

NETS = ("boundary", "segment", "tag")


def split_corpus(corpus: Corpus, val_fraction: float, seed: int):
    """Disjoint, exhaustive, seed-deterministic train/val video-id split."""
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"val_fraction must be in (0, 1), got {val_fraction}")
    if len(corpus) < 2:
        raise DataError(f"cannot split a corpus of {len(corpus)} video(s)")
    ids = sorted(v.video_id for v in corpus.videos)
    perm = np.random.default_rng(seed).permutation(len(ids))
    n_val = int(round(val_fraction * len(ids)))
    n_val = min(max(n_val, 1), len(ids) - 1)
    val_ids = sorted(ids[i] for i in perm[:n_val])
    train_ids = sorted(ids[i] for i in perm[n_val:])
    return train_ids, val_ids


def run_generate(cfg: ExperimentConfig):
    if cfg.generator is None:
        raise ConfigError("generate requires a 'generator' section in the config")
    manifest_path, records_path = generate_corpus(cfg.generator, cfg.paths.corpus)
    write_resolved_config(cfg, cfg.paths.corpus)
    log.info("wrote corpus to %s", cfg.paths.corpus)
    return manifest_path, records_path


def _split_videos(corpus: Corpus, cfg: ExperimentConfig):
    train_ids, val_ids = split_corpus(corpus, cfg.split.val_fraction, cfg.split.seed)
    return [corpus.video(v) for v in train_ids], [corpus.video(v) for v in val_ids]


def _train_net(corpus, cfg: ExperimentConfig, net: str, mask=None):
    train_videos, val_videos = _split_videos(corpus, cfg)
    mask = mask if mask is not None else cfg.mask
    dims = corpus.manifest.modality_dims
    encoders = {m: s for m, s in cfg.encoders.items() if m in mask.modalities}
    if net == "boundary":
        return train_boundary(train_videos, val_videos, mask, dims, cfg.training,
                              encoders=encoders)
    if net == "segment":
        return train_segment(train_videos, val_videos, mask, dims, cfg.training,
                             num_tags=corpus.manifest.num_tags, encoders=encoders)
    if net == "tag":
        return train_tag(train_videos, val_videos, mask, dims,
                         corpus.manifest.num_tags, cfg.training, encoders=encoders)
    raise ConfigError(f"net must be one of {NETS}, got {net!r}")


def run_train(cfg: ExperimentConfig, net: str):
    corpus = load_corpus(cfg.paths.manifest, cfg.paths.records)
    model, trace = _train_net(corpus, cfg, net)
    ckpt_dir = Path(cfg.paths.checkpoints)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    head = cfg.training.segment_head if net == "segment" else None
    ckpt_path = ckpt_dir / checkpoint_filename(net, head)
    save_model(model, ckpt_path)
    out_dir = Path(cfg.paths.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = f"{net}_{head}" if head else net
    trace.write_csv(out_dir / f"loss_{suffix}.csv")
    write_resolved_config(cfg, out_dir)
    log.info("saved %s checkpoint to %s", net, ckpt_path)
    return ckpt_path, trace


def run_predict(cfg: ExperimentConfig, mode=None, video_ids=None):
    mode = mode or cfg.pipeline.mode
    pipeline_cfg = dataclasses.replace(cfg.pipeline, mode=mode)
    corpus = load_corpus(cfg.paths.manifest, cfg.paths.records)
    bundle = load_bundle(cfg.paths.checkpoints, mode)
    out_dir = Path(cfg.paths.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    predictions = predict_corpus(
        corpus, bundle, pipeline_cfg, out_path=cfg.paths.predictions, video_ids=video_ids
    )
    write_resolved_config(cfg, out_dir)
    log.info("wrote %d predictions to %s", len(predictions), cfg.paths.predictions)
    return cfg.paths.predictions, predictions


def run_evaluate(cfg: ExperimentConfig, predictions_path=None, video_ids=None):
    corpus = load_corpus(cfg.paths.manifest, cfg.paths.records)
    if video_ids is not None:
        corpus = Corpus(manifest=corpus.manifest, videos=[corpus.video(v) for v in video_ids])
    predictions_path = Path(predictions_path or cfg.paths.predictions)
    predictions = read_predictions(predictions_path)
    try:
        report = evaluate(predictions, corpus)
    except DataError as exc:
        raise DataError(f"predictions {predictions_path}: {exc}") from exc
    out_dir = Path(cfg.paths.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.write_json(out_dir / "report.json")
    report.write_csv(out_dir / "report.csv")
    write_resolved_config(cfg, out_dir)
    log.info(
        "avg_map %.4f  b_f1 %.4f  s_f1 %.4f  final %.4f",
        report.avg_map, report.b_f1, report.s_f1, report.final,
    )
    return report


def tagging_map_on_gt_scenes(model, videos) -> float:
    """Segment-free tagging mAP of a TagNet over ground-truth scenes.

    Scenes are scored one at a time so the ranking cannot depend on how
    they would be batched.
    """
    scene_preds = []
    for video in videos:
        for scene in video.scenes or ():
            shots = shots_in_span(video, scene.span)
            if shots:
                probs = model.forward_scenes([shots])[0]
                scene_preds.append((scene.tags, {k + 1: float(v) for k, v in enumerate(probs)}))
    return tagging_map(scene_preds, model.num_tags)


def boundary_f1_on_videos(model, videos, threshold_b) -> float:
    """Pooled boundary F1 of thresholded boundary scores over videos."""
    tp = n_pred = n_gt = 0
    for video in videos:
        if video.scenes is None:
            continue
        scores = model.forward_video(video)
        scene_ranges = boundaries_to_scenes(scores, threshold_b)
        pred_bounds = [video.shots.ends[j - 1] for _i, j in scene_ranges[:-1]]
        gt_bounds = interior_boundaries((s.span for s in video.scenes), video.duration_s)
        tp += match_boundaries(pred_bounds, gt_bounds)
        n_pred += len(pred_bounds)
        n_gt += len(gt_bounds)
    return f1_from_counts(tp, n_pred, n_gt).f1


def scene_f1_on_videos(model, videos, nms_tiou, max_duration_shots=None) -> float:
    """Pooled scene F1 of the pipeline's NMS-kept proposals over videos."""
    tp = n_pred = n_gt = 0
    for video in videos:
        if video.scenes is None:
            continue
        ranges, _scores = segment_proposals(video, model, nms_tiou, max_duration_shots)
        tp += match_scenes(tiou(*range_spans(video, ranges).T,
                                *span_array(s.span for s in video.scenes).T))
        n_pred += len(ranges)
        n_gt += len(video.scenes)
    return f1_from_counts(tp, n_pred, n_gt).f1


def ablation_metric(corpus, cfg: ExperimentConfig, net: str, mask) -> float:
    """Train one net under one modality mask and score it on the val split."""
    model, _trace = _train_net(corpus, cfg, net, mask=mask)
    _train_videos, val_videos = _split_videos(corpus, cfg)
    if net == "tag":
        return tagging_map_on_gt_scenes(model, val_videos)
    if net == "boundary":
        return boundary_f1_on_videos(model, val_videos, cfg.pipeline.threshold_b)
    return scene_f1_on_videos(model, val_videos, cfg.pipeline.nms_tiou,
                              cfg.pipeline.max_duration_shots)


ABLATION_METRIC_NAMES = {"tag": "tagging_map", "boundary": "b_f1", "segment": "s_f1"}


def run_ablate(cfg: ExperimentConfig, net=None):
    """Sweep modality masks for one net; returns rows sorted by metric."""
    net = net or cfg.ablate_net
    if net not in NETS:
        raise ConfigError(f"ablate net must be one of {NETS}, got {net!r}")
    if not cfg.ablate_masks:
        raise ConfigError("ablate requires a non-empty 'ablate.masks' list in the config")
    corpus = load_corpus(cfg.paths.manifest, cfg.paths.records)
    rows = []
    for mask in cfg.ablate_masks:
        value = ablation_metric(corpus, cfg, net, mask)
        rows.append((mask, value))
        log.info("mask %s -> %.4f", "+".join(mask.modalities) or "length", value)
    rows.sort(key=lambda mv: -mv[1])
    out_dir = Path(cfg.paths.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"ablation_{net}.csv"
    _write_ablation_csv(rows, net, csv_path)
    write_resolved_config(cfg, out_dir)
    return csv_path, rows


def _write_ablation_csv(rows, net, path) -> None:
    import csv

    from .data.records import CANONICAL_MODALITIES

    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(CANONICAL_MODALITIES) + ["length", ABLATION_METRIC_NAMES[net]])
        for mask, value in rows:
            flags = [1 if m in mask.modalities else 0 for m in CANONICAL_MODALITIES]
            writer.writerow(flags + [1 if mask.include_length else 0, value])
