"""One workload run: set up a corpus, then train, predict and evaluate the
way `scripts/run_reference_experiment.py` does, timing every step and
checking every output.

The timed part has two phases:

1. train the boundary, scalar-segment, per-tag-segment and tag nets with
   `run_train`, a fixed number of epochs each;
2. the workload's number of CLI-style passes (`run_predict` in modes a-d on
   the held-out split, then `run_evaluate` on each mode), each followed by
   an equal share of the workload's min_rounds latency rounds: `run_pipeline`
   over the held-out videos in every mode, with the bundles the pass
   loaded. Latency rounds then repeat until the run's time budget is spent,
   if any of it is left. A CLI pass spends most of its time loading the
   corpus and checkpoints; the rounds give the per-video latency enough
   samples without paying for those loads again. Interleaving passes and
   rounds spreads the samples of every metric over the whole phase, so a
   few seconds in which the machine runs slow move a median less.
"""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from scenestruct import experiment, pipeline
from scenestruct.config import ExperimentConfig, PathsConfig, SplitConfig
from scenestruct.fusion import ModalityMask
from scenestruct.models.common import TrainingHyper
from scenestruct.models.segment import enumerate_proposals
from scenestruct.pipeline import PipelineConfig
from scenestruct.synth import GeneratorConfig

MODES = ("a", "b", "c", "d")
# (stage span name, net, segment head, mask role)
NETS = (
    ("boundary", "boundary", "scalar", "seg"),
    ("segment_scalar", "segment", "scalar", "seg"),
    ("segment_per_tag", "segment", "per_tag", "seg"),
    ("tag", "tag", "scalar", "tag"),
)
SPAN_TOL_S = 1e-6


class Failures:
    """Operations attempted and failed; every exception and failed check
    lands here with a message on standard error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted, failed, why=None):
        self.attempted += attempted
        self.failed += failed
        if failed and why:
            print(f"benchmark: {failed} failed: {why}", file=sys.stderr)


def make_config(workload, seed, work_dir: Path) -> ExperimentConfig:
    gen = dict(workload.generator)
    for key in ("scenes_per_video", "shots_per_scene", "tags_per_scene"):
        gen[key] = tuple(gen[key])
    return ExperimentConfig(
        paths=PathsConfig(corpus=str(work_dir / "corpus"), checkpoints=str(work_dir / "ckpts"),
                          out=str(work_dir / "out")),
        mask=ModalityMask.from_names(workload.seg_mask),
        pipeline=PipelineConfig(mode="d", threshold_b=0.65, nms_tiou=0.0),
        training=TrainingHyper(**workload.training),
        split=SplitConfig(val_fraction=0.2, seed=0),
        generator=GeneratorConfig(seed=seed, **gen),
    )


def setup(workload, seed, work_dir: Path):
    """Generate the corpus setup_repeats times; returns (cfg, facts)."""
    cfg = make_config(workload, seed, work_dir)
    times = []
    for _ in range(workload.setup_repeats):
        t0 = time.perf_counter()
        experiment.run_generate(cfg)
        times.append(time.perf_counter() - t0)
    corpus = experiment.load_corpus(cfg.paths.manifest, cfg.paths.records)
    train_ids, val_ids = experiment.split_corpus(corpus, cfg.split.val_fraction, cfg.split.seed)
    shots = [v.num_shots for v in corpus.videos]
    proposals = [len(enumerate_proposals(n, cfg.pipeline.max_duration_shots)) for n in shots]
    corpus_bytes = sum(Path(p).stat().st_size for p in (cfg.paths.manifest, cfg.paths.records))
    facts = {
        "setup_s": statistics.median(times),
        "setup_times_s": times,
        "val_videos": [corpus.video(v) for v in val_ids],
        "train_shots": sum(corpus.video(v).num_shots for v in train_ids),
        "shape": {
            "videos": len(corpus),
            "videos_predicted_per_mode": len(val_ids),
            "shots_per_video_mean": float(np.mean(shots)),
            "shots_per_video_max": int(max(shots)),
            "proposals_per_video_mean": float(np.mean(proposals)),
            "proposals_per_video_max": int(max(proposals)),
            "fused_dim": _fused_dim(corpus.manifest.modality_dims, workload.seg_mask),
            "tag_fused_dim": _fused_dim(corpus.manifest.modality_dims, workload.tag_mask),
            "hidden_dim": cfg.training.hidden_dim,
            "batch_size": cfg.training.batch_size,
            "epochs": dict(workload.epochs),
            "tags": corpus.manifest.num_tags,
            "corpus_mb": corpus_bytes / 1e6,
        },
    }
    return cfg, facts


def _fused_dim(dims, mask):
    return sum(dims[m] for m in mask) + 1


def _net_configs(cfg, workload):
    seg = dataclasses.replace(cfg, mask=ModalityMask.from_names(workload.seg_mask))
    tag = dataclasses.replace(cfg, mask=ModalityMask.from_names(workload.tag_mask))
    out = []
    for span, net, head, role in NETS:
        base = seg if role == "seg" else tag
        epochs = workload.epochs[net]
        training = dataclasses.replace(cfg.training, segment_head=head, epochs=epochs,
                                       patience=epochs)
        out.append((span, net, dataclasses.replace(base, training=training)))
    return out


def _mode_config(cfg, out_dir: Path, mode):
    return dataclasses.replace(
        cfg,
        paths=dataclasses.replace(cfg.paths, out=str(out_dir / f"mode_{mode}")),
        pipeline=dataclasses.replace(cfg.pipeline, mode=mode),
    )


def run_experiment(cfg, workload, facts, tracer, failures, *, run_dir: Path, deadline=None):
    """Train, then CLI-style predict + evaluate passes, each followed by its
    share of the latency rounds, then more rounds until the deadline. With
    deadline None (the runs of --trace 1): one pass and no rounds.

    Returns per-net epochs, the first pass's predictions.jsonl bytes and
    reports per mode, the (first, end) span indices of every pass, and the
    number of latency rounds.
    """
    cfg = dataclasses.replace(
        cfg, paths=dataclasses.replace(cfg.paths, checkpoints=str(run_dir / "ckpts")))
    end_to_end = deadline is not None
    epochs = {}
    tracer.stage = "train"
    for span, net, net_cfg in _net_configs(cfg, workload):
        try:
            with tracer.span(f"run_train.{span}"):
                _path, trace = experiment.run_train(net_cfg, net)
            epochs[span] = len(trace.rows)
            failures.add(1, 0)
        except Exception:  # noqa: BLE001 - a failed net is counted, not fatal
            traceback.print_exc()
            failures.add(1, 1, f"training {span}")

    bundles = {}
    original_load_bundle = experiment.load_bundle

    def keep_bundle(checkpoint_dir, mode):
        bundles[mode] = original_load_bundle(checkpoint_dir, mode)
        return bundles[mode]

    first = None
    pass_spans = []
    passes = workload.passes if end_to_end else 1
    rounds_per_pass = -(-workload.min_rounds // passes) if end_to_end else 0
    rounds = 0
    for k in range(passes):
        mark = len(tracer.spans)
        experiment.load_bundle = keep_bundle
        try:
            result = _predict_pass(cfg, facts, tracer, failures, run_dir / "out")
        finally:
            experiment.load_bundle = original_load_bundle
        pass_spans.append((mark, len(tracer.spans)))
        if first is None:
            first = result
        else:
            check_same_predictions(first, result, failures, f"pass {k + 1}")
        for _ in range(rounds_per_pass):
            _latency_round(cfg, facts, bundles, first, tracer, failures, run_dir / "rounds")
            rounds += 1
    while end_to_end and time.perf_counter() < deadline:
        _latency_round(cfg, facts, bundles, first, tracer, failures, run_dir / "rounds")
        rounds += 1
    return {"epochs": epochs, "rounds": rounds, "pass_spans": pass_spans, **first}


def pass_timings(spans, pass_spans):
    """Load and evaluate seconds of each CLI-style pass; pass_spans holds the
    (first, end) span indices of each pass.

    load_s runs from the start of each run_predict to the start of its first
    video (corpus load plus checkpoint bundle load); evaluate_s is the
    run_evaluate time; both are summed over modes. Within those windows each
    corpus or checkpoint load counts at the median time of every load of the
    same file in the run (the corpus is loaded four times in training and
    eight times per pass, each checkpoint one to four times per pass), and
    the rest of the window as measured. A load takes about a second on
    paper-width, so a few seconds in which the machine runs slow would
    otherwise move the sum of a pass by as much. The raw_* lists are the
    windows as measured.
    """
    durations = defaultdict(list)
    for name, _stage, start, end, _parent in spans:
        if name.startswith("load."):
            durations[name].append(end - start)
    median = {name: statistics.median(d) for name, d in durations.items()}
    out = {key: [] for key in ("load_s", "evaluate_s", "raw_load_s", "raw_evaluate_s")}
    for first, end in pass_spans:
        sums = dict.fromkeys(out, 0.0)
        for i in range(first, end):
            name, _stage, start, stop, _parent = spans[i]
            kind = ("load_s" if name.startswith("run_predict.") else
                    "evaluate_s" if name.startswith("run_evaluate.") else None)
            if kind is None:
                continue
            children = [s for s in spans[i + 1:end] if s[4] == i]
            if kind == "load_s":
                stop = next((s[2] for s in children if s[0] == "pipeline.run_pipeline"), None)
                if stop is None:  # a failed mode, already counted as failed
                    continue
            loads = [s for s in children if s[0].startswith("load.") and s[3] <= stop]
            sums["raw_" + kind] += stop - start
            sums[kind] += stop - start + sum(median[s[0]] - (s[3] - s[2]) for s in loads)
        for key, value in sums.items():
            out[key].append(value)
    return out


def _predict_pass(cfg, facts, tracer, failures, out_dir: Path):
    val_ids = [v.video_id for v in facts["val_videos"]]
    result = {"predictions": {}, "reports": {}}
    for mode in MODES:
        mode_cfg = _mode_config(cfg, out_dir, mode)
        tracer.stage = "predict"
        try:
            with tracer.span(f"run_predict.{mode}"):
                experiment.run_predict(mode_cfg, mode, video_ids=val_ids)
            result["predictions"][mode] = Path(mode_cfg.paths.predictions).read_bytes()
        except Exception:  # noqa: BLE001
            traceback.print_exc()
            failures.add(len(val_ids), len(val_ids), f"predict mode {mode}")
            continue
        tracer.stage = "evaluate"
        try:
            with tracer.span(f"run_evaluate.{mode}"):
                report = experiment.run_evaluate(mode_cfg, video_ids=val_ids)
            result["reports"][mode] = report.as_dict()
        except Exception:  # noqa: BLE001
            traceback.print_exc()
            failures.add(len(val_ids), len(val_ids), f"evaluate mode {mode}")
            del result["predictions"][mode]
    check_pass(result, facts, failures)
    return result


def _latency_round(cfg, facts, bundles, result, tracer, failures, out_dir: Path):
    """run_pipeline over every held-out video in every mode; the output must
    equal the CLI pass's predictions byte for byte."""
    tracer.stage = "latency"
    out_dir.mkdir(parents=True, exist_ok=True)
    for mode, expected in result["predictions"].items():
        mode_cfg = _mode_config(cfg, out_dir, mode).pipeline
        n = len(facts["val_videos"])
        try:
            predictions = [pipeline.run_pipeline(video, bundles[mode], mode_cfg)
                           for video in facts["val_videos"]]
        except Exception:  # noqa: BLE001 - counted, not fatal
            traceback.print_exc()
            failures.add(n, n, f"latency round, mode {mode}")
            continue
        path = out_dir / f"predictions_{mode}.jsonl"
        pipeline.write_predictions(predictions, path)
        differ = path.read_bytes() != expected
        failures.add(n, n if differ else 0,
                     f"mode {mode}: latency round predictions differ from the CLI pass")


def _in_unit(x):
    return x is not None and math.isfinite(x) and 0.0 <= x <= 1.0


def check_pass(result, facts, failures):
    """Every score finite and in [0, 1]; segments inside their video and
    pairwise disjoint; modes a and d give the same spans; reports finite."""
    videos = facts["val_videos"]
    spans_by_mode = {}
    for mode, blob in result["predictions"].items():
        docs = [json.loads(line) for line in blob.decode("utf-8").splitlines() if line]
        if [d["video_id"] for d in docs] != [v.video_id for v in videos]:
            failures.add(len(videos), len(videos),
                         f"mode {mode}: predicted videos differ from the held-out split")
            continue
        bad = 0
        spans_by_mode[mode] = []
        for doc, video in zip(docs, videos):
            segs = doc["segments"]
            spans = sorted((s["start_s"], s["end_s"]) for s in segs)
            spans_by_mode[mode].append(spans)
            scores_ok = all(
                (s["scene_score"] is None or _in_unit(s["scene_score"]))
                and all(_in_unit(t["score"]) for t in s["tags"])
                for s in segs
            )
            inside = all(-SPAN_TOL_S <= a < b <= video.duration_s + SPAN_TOL_S for a, b in spans)
            disjoint = all(b0 <= a1 + SPAN_TOL_S for (_a0, b0), (a1, _b1) in zip(spans, spans[1:]))
            if not (segs and scores_ok and inside and disjoint):
                bad += 1
        failures.add(len(docs), bad, f"mode {mode}: scores, bounds or overlap check")
        report = result["reports"][mode]
        if not all(_in_unit(report[k]) for k in ("avg_map", "b_f1", "s_f1", "final")):
            failures.add(0, 1, f"mode {mode}: report score outside [0, 1]")
    if "a" in spans_by_mode and "d" in spans_by_mode:
        differ = sum(a != d for a, d in zip(spans_by_mode["a"], spans_by_mode["d"]))
        failures.add(0, differ, "modes a and d give different spans")


def check_same_predictions(first, other, failures, what):
    """Byte-identical predictions.jsonl per mode; one failure per video."""
    for mode, blob in first["predictions"].items():
        if other["predictions"].get(mode) != blob:
            failures.add(0, blob.count(b"\n"),
                         f"mode {mode}: {what} predictions are not byte-identical")
