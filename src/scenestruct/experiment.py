"""End-to-end experiment steps shared by the CLI and tests.

Running a step through the CLI or calling it here produces the same
numbers: the ablation sweep reuses these functions, so a single-mask
ablation equals a manual train + evaluate with the same seed, and
run_experiment trains the four nets with the function the acceptance
tests call on an in-memory corpus.
"""

from __future__ import annotations

import dataclasses
import logging
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, write_resolved_config
from .data.corpus_io import load_corpus
from .data.labels import range_spans
from .data.records import Corpus, StructuredPrediction
from .errors import ConfigError, DataError
from .metrics import evaluate, tagging_map
from .models import TagNet, boundaries_to_scenes, save_model
from .models.bundle import CHECKPOINT_FILES, NETS_BY_KIND, checkpoint_filename, load_bundle
from .pipeline import MODES, predict_corpus, read_predictions, segment_proposals
from .synth import generate_corpus

log = logging.getLogger(__name__)

NETS = tuple(NETS_BY_KIND)
# the four trainings of an experiment, as (net, segment head): boundary,
# scalar segment, per-tag segment and tag, each with its own checkpoint
TRAININGS = tuple(CHECKPOINT_FILES)


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


def net_mask(cfg: ExperimentConfig, net: str, manifest):
    """The mask net trains under: its net_masks entry, else mask. A mask
    that enables a modality the corpus lacks is a ConfigError naming its
    key."""
    mask = cfg.net_masks.get(net, cfg.mask)
    missing = [m for m in mask.modalities if m not in manifest.modality_dims]
    if missing:
        key = f"net_masks.{net}" if net in cfg.net_masks else "mask"
        raise ConfigError(f"{key} enables modalities absent from the manifest: {missing}")
    return mask


def _train_net(corpus, cfg: ExperimentConfig, net: str, mask):
    if net not in NETS_BY_KIND:
        raise ConfigError(f"net must be one of {NETS}, got {net!r}")
    encoders = {m: s for m, s in cfg.encoders.items() if m in mask.modalities}
    return NETS_BY_KIND[net].train(*_split_videos(corpus, cfg), mask,
                                   corpus.manifest.modality_dims, cfg.training,
                                   num_tags=corpus.manifest.num_tags, encoders=encoders)


def train_nets(corpus, cfg: ExperimentConfig) -> dict:
    """Train the nets of TRAININGS on an in-memory corpus, each under
    net_mask; returns {(net, head): (model, trace)}. Every mask is checked
    against the corpus before the first net trains."""
    masks = {net: net_mask(cfg, net, corpus.manifest) for net, _head in TRAININGS}
    nets = {}
    for net, head in TRAININGS:
        net_cfg = cfg if head is None else dataclasses.replace(
            cfg, training=dataclasses.replace(cfg.training, segment_head=head))
        nets[net, head] = _train_net(corpus, net_cfg, net, masks[net])
    return nets


def _save_net(cfg: ExperimentConfig, net: str, head, model, trace) -> Path:
    """Write a trained net's checkpoint and its loss_*.csv."""
    ckpt_dir = Path(cfg.paths.checkpoints)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = ckpt_dir / checkpoint_filename(net, head)
    save_model(model, ckpt_path)
    out_dir = Path(cfg.paths.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = f"{net}_{head}" if head else net
    trace.write_csv(out_dir / f"loss_{suffix}.csv")
    log.info("saved %s checkpoint to %s", net, ckpt_path)
    return ckpt_path


def run_train(cfg: ExperimentConfig, net: str):
    corpus = load_corpus(cfg.paths.manifest, cfg.paths.records)
    model, trace = _train_net(corpus, cfg, net, net_mask(cfg, net, corpus.manifest))
    head = cfg.training.segment_head if net == "segment" else None
    ckpt_path = _save_net(cfg, net, head, model, trace)
    write_resolved_config(cfg, cfg.paths.out)
    return ckpt_path, trace


def run_predict(cfg: ExperimentConfig, mode=None, video_ids=None):
    return _predict(load_corpus(cfg.paths.manifest, cfg.paths.records), cfg, mode, video_ids)


def _predict(corpus, cfg: ExperimentConfig, mode=None, video_ids=None):
    """run_predict on an already-loaded corpus."""
    mode = mode or cfg.pipeline.mode
    pipeline_cfg = dataclasses.replace(cfg.pipeline, mode=mode)
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
    return _evaluate(load_corpus(cfg.paths.manifest, cfg.paths.records), cfg, predictions_path,
                     video_ids)


def _evaluate(corpus, cfg: ExperimentConfig, predictions_path=None, video_ids=None):
    """run_evaluate on an already-loaded corpus."""
    if video_ids is not None:
        corpus = Corpus(manifest=corpus.manifest, videos=[corpus.video(v) for v in video_ids])
    predictions_path = Path(predictions_path or cfg.paths.predictions)
    predictions = read_predictions(predictions_path, corpus.manifest.num_tags)
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


def run_experiment(cfg: ExperimentConfig):
    """The reference experiment: generate the corpus, train the four nets
    of TRAININGS, then predict and evaluate modes a-d on the held-out split
    into out/mode_<m>/, loading the corpus once. Returns (held-out video ids,
    {mode: report})."""
    run_generate(cfg)
    corpus = load_corpus(cfg.paths.manifest, cfg.paths.records)
    for (net, head), (model, trace) in train_nets(corpus, cfg).items():
        _save_net(cfg, net, head, model, trace)
    write_resolved_config(cfg, cfg.paths.out)
    _train_ids, val_ids = split_corpus(corpus, cfg.split.val_fraction, cfg.split.seed)
    reports = {}
    for mode in MODES:
        mode_cfg = dataclasses.replace(
            cfg,
            paths=dataclasses.replace(cfg.paths, out=str(Path(cfg.paths.out) / f"mode_{mode}")),
            pipeline=dataclasses.replace(cfg.pipeline, mode=mode),
        )
        _predict(corpus, mode_cfg, mode, video_ids=val_ids)
        reports[mode] = _evaluate(corpus, mode_cfg, video_ids=val_ids)
    return val_ids, reports


def tagging_map_on_gt_scenes(model, videos) -> float:
    """Segment-free tagging mAP of a TagNet over its training items: the
    ground-truth scenes that hold shots.

    All scenes are scored in one forward_scenes call; a scene's scores have
    the bits of that scene scored alone, so the ranking does not depend on
    which scenes share the call.
    """
    items = TagNet.training_items(videos, None)
    if not items:
        return tagging_map(np.empty((0, model.num_tags)), np.empty((0, model.num_tags)))
    shot_lists, targets = zip(*items)
    return tagging_map(model.forward_scenes(list(shot_lists)), np.stack(targets))


def ablation_metric(corpus, cfg: ExperimentConfig, net: str, mask) -> float:
    """Train one net under one modality mask and score it on the val split:
    tagging mAP on ground-truth scenes (tag), else evaluate's b_f1 of the
    thresholded boundary scenes (boundary) or s_f1 of the NMS-kept
    proposals (segment)."""
    model, _trace = _train_net(corpus, cfg, net, mask)
    _train_videos, val_videos = _split_videos(corpus, cfg)
    if net == "tag":
        return tagging_map_on_gt_scenes(model, val_videos)
    labeled = [v for v in val_videos if v.scenes is not None]
    predictions = []
    for video in labeled:
        if net == "boundary":
            ranges = boundaries_to_scenes(model.forward_video(video), cfg.pipeline.threshold_b)
        else:
            ranges, _scores = segment_proposals(video, model, cfg.pipeline.nms_tiou,
                                                cfg.pipeline.max_duration_shots)
        spans = range_spans(video, ranges)
        predictions.append(StructuredPrediction(
            video.video_id, spans, np.full(len(spans), np.nan),
            np.full((len(spans), corpus.manifest.num_tags), np.nan)))
    report = evaluate(predictions, Corpus(manifest=corpus.manifest, videos=labeled))
    return report.b_f1 if net == "boundary" else report.s_f1


ABLATION_METRIC_NAMES = {"tag": "tagging_map", "boundary": "b_f1", "segment": "s_f1"}


def run_ablate(cfg: ExperimentConfig, net=None):
    """Sweep modality masks for one net; returns rows sorted by metric."""
    net = net or cfg.ablate_net
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
