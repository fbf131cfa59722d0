"""Acceptance suite.

Each criterion prints one [PASS]/[FAIL] line (run with -s to see them all).
Criteria 5 and 6 share trained models through a session-scoped cache, so
the end-to-end budget is paid once per seed.
"""

import dataclasses
import json
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from scenestruct.config import load_experiment_config
from scenestruct.data.labels import boundary_labels, shots_in_span
from scenestruct.data.records import Corpus
from scenestruct.experiment import split_corpus, tagging_map_on_gt_scenes, train_nets
from scenestruct.fusion import EncoderSpec, ModalityMask
from scenestruct.metrics import (
    average_precision,
    avg_map,
    boundary_f1,
    evaluate,
    scene_f1,
    tiou,
)
from scenestruct.models import (
    BoundaryNet,
    ModelBundle,
    SegmentNet,
    TagNet,
    enumerate_proposals,
    proposal_tag_targets,
    proposal_targets,
)
from scenestruct.models.bundle import MODE_REQUIREMENTS
from scenestruct.nn import SequenceBatch, bce_loss
from scenestruct.pipeline import nms_temporal, predict_corpus
from scenestruct.synth import GeneratorConfig, build_corpus

import oracles
from conftest import ap_predictions, make_lstm, make_prediction, map_inputs, zeros_like_params
from gradcheck import draw_head, grad_check


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")


# ---------------------------------------------------------------- criterion 1

GRAD_MASK = ModalityMask.from_names(["vis_r50", "audio"])
GRAD_ENCODERS = {"audio": EncoderSpec(trainable=True, dim=2)}


def _grad_corpus(seed):
    cfg = GeneratorConfig(
        num_videos=2,
        seed=seed,
        modalities={"vis_r50": 2, "audio": 2},
        signal={"vis_r50": "scene", "audio": "tag"},
        num_tags=2,
        scenes_per_video=(2, 2),
        shots_per_scene=(1, 2),
        tags_per_scene=(1, 1),
        duration_mean_s=6.0,
        duration_std_s=1.0,
        min_scene_prototype_distance=1.0,
        scene_prototype_pool=3,
    )
    return build_corpus(cfg)


def _max_grad_error(model, items, rng_seed):
    draw_head(model)  # a zero head would leave every gradient below it zero

    def loss_fn():
        rng = np.random.default_rng(rng_seed)
        loss, _ = model.batch_loss_and_grads(items, rng, train=True, backward=False)
        return loss

    model.zero_grads()
    model.batch_loss_and_grads(items, np.random.default_rng(rng_seed), train=True)
    analytic = {k: v.copy() for k, v in model.grads.items()}
    return grad_check(loss_fn, model.params, analytic, eps=1e-6)


def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    kwargs = dict(hidden_dim=3, encoders=GRAD_ENCODERS, dropout_rate=0.5, dtype=np.float64)
    worst = 0.0
    for seed in range(20):
        corpus = _grad_corpus(seed)
        dims = corpus.manifest.modality_dims
        b_items = [(v, boundary_labels(v)) for v in corpus.videos]
        s_items = {}
        for head in ("scalar", "per_tag"):
            rows = []
            for video in corpus.videos:
                proposals = enumerate_proposals(video.num_shots, 2)
                i_idx = np.array([i for i, _ in proposals])
                j_idx = np.array([j for _, j in proposals])
                targets = (
                    proposal_targets(proposals, video)
                    if head == "scalar"
                    else proposal_tag_targets(proposals, video)
                )
                rows.append((video, i_idx, j_idx, targets))
            s_items[head] = rows
        t_items = []
        for video in corpus.videos:
            for (start, end), row in zip(video.scenes.spans, video.scenes.tags):
                t_items.append((shots_in_span(video, start, end), row.astype(np.float64)))

        models = [
            (BoundaryNet(GRAD_MASK, dims, seed=seed, **kwargs), b_items),
            (SegmentNet(GRAD_MASK, dims, seed=seed, head_mode="scalar", num_tags=2, **kwargs),
             s_items["scalar"]),
            (SegmentNet(GRAD_MASK, dims, seed=seed, head_mode="per_tag", num_tags=2, **kwargs),
             s_items["per_tag"]),
            (TagNet(GRAD_MASK, dims, 2, seed=seed, **kwargs), t_items),
        ]
        for model, items in models:
            worst = max(worst, _max_grad_error(model, items, rng_seed=1000 + seed))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-4 and elapsed <= 120.0
    report(1, ok, f"max relative gradient error {worst:.2e} over 20 seeds x 4 nets "
                  f"(trainable encoder included), {elapsed:.0f}s")
    assert worst <= 1e-4
    assert elapsed <= 120.0


# ---------------------------------------------------------------- criterion 2

def _random_instance(rng, max_segments=8, max_classes=6):
    duration = float(rng.integers(8, 30))
    n_scenes = int(rng.integers(1, 4))
    cuts = (
        np.sort(rng.choice(np.arange(1, int(duration)), size=n_scenes - 1, replace=False))
        if n_scenes > 1
        else np.array([])
    )
    bounds = [0.0, *[float(c) for c in cuts], duration]
    gt = [
        (
            bounds[i],
            bounds[i + 1],
            set(int(t) + 1 for t in rng.choice(max_classes, size=rng.integers(1, 3), replace=False)),
        )
        for i in range(n_scenes)
    ]
    pred = []
    for _ in range(int(rng.integers(0, max_segments + 1))):
        start = float(rng.integers(0, int(duration) - 1))
        end = min(start + float(rng.integers(1, max(2, int(duration) - int(start)))), duration)
        scores = {
            int(k) + 1: float(rng.integers(0, 32)) / 32.0
            for k in rng.choice(max_classes, size=rng.integers(1, max_classes), replace=False)
        }
        pred.append((start, end, scores))
    return {"duration": duration, "gt": gt, "pred": pred}


def _instances_to_package_form(instances):
    from conftest import make_video
    from scenestruct.data.records import CorpusManifest

    videos, preds = [], []
    for v_idx, inst in enumerate(instances):
        vid = f"v{v_idx}"
        bounds = sorted({0.0, inst["duration"]} | {p for s, e, _ in inst["gt"] for p in (s, e)})
        videos.append(make_video(vid, bounds, scenes=inst["gt"], num_tags=6))
        preds.append(make_prediction(vid, inst["pred"], 6))
    corpus = Corpus(manifest=CorpusManifest({"vis_r50": 2}, 6), videos=videos)
    return corpus, preds


def test_criterion_2_metric_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240501)
    worst = 0.0
    n_instances = 0
    for _trial in range(200):
        instances = [_random_instance(rng) for _ in range(int(rng.integers(1, 6)))]
        corpus, preds = _instances_to_package_form(instances)
        ours = evaluate(preds, corpus)
        ref = oracles.naive_evaluate(instances)
        for key in ("avg_map", "b_f1", "s_f1", "final"):
            worst = max(worst, abs(getattr(ours, key) - ref[key]))
        for thresh, value in ref["per_threshold"].items():
            worst = max(worst, abs(ours.per_threshold[thresh] - value))
        n_instances += 1
    # spot checks of the tIoU entries against their own oracle
    for _ in range(200):
        a_start = float(rng.integers(0, 20))
        b_start = float(rng.integers(0, 20))
        a_end = a_start + float(rng.integers(1, 9))
        b_end = b_start + float(rng.integers(1, 9))
        ours = tiou([a_start], [a_end], [b_start], [b_end])[0, 0]
        worst = max(worst, abs(ours - oracles.naive_tiou(a_start, a_end, b_start, b_end)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed <= 60.0
    report(2, ok, f"{n_instances} randomized corpora, worst metric deviation {worst:.2e}, {elapsed:.0f}s")
    assert worst <= 1e-9
    assert elapsed <= 60.0


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_nms_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    for trial in range(1000):
        n = int(rng.integers(0, 11))
        spans_raw, scores = [], []
        for _ in range(n):
            start = float(rng.integers(0, 24)) * 0.5
            length = float(rng.integers(1, 12)) * 0.5
            spans_raw.append((start, start + length))
            scores.append(float(rng.integers(0, 16)) / 16.0)
        thresh = float(rng.choice([0.0, 0.0, 0.1, 0.25, 0.5]))
        spans = np.array(spans_raw).reshape(-1, 2)
        kept = nms_temporal(spans, scores, thresh)
        assert kept == oracles.naive_nms(spans_raw, scores, thresh), f"trial {trial}"
        if thresh == 0.0:
            starts, ends = spans[kept].T
            assert np.array_equal(tiou(starts, ends, starts, ends) > 0, np.eye(len(kept), dtype=bool))
    elapsed = time.monotonic() - t0
    ok = elapsed <= 30.0
    report(3, ok, f"1000 random proposal sets match the greedy oracle, {elapsed:.0f}s")
    assert elapsed <= 30.0


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_hand_worked_fixtures():
    checks = []
    res = boundary_f1([5.3, 9.4, 12.0], [5.0, 10.0])
    checks.append(("boundary f1 = 0.4", abs(res.f1 - 0.4) < 1e-12))

    avg, _t, _c = avg_map(*map_inputs({1: [("v", (0, 7), 1.0)]}, {1: [("v", (0, 10))]}))
    checks.append(("single-prediction sweep avg mAP = 0.5", abs(avg - 0.5) < 1e-12))

    gts = [("v", (0, 2)), ("v", (10, 12))]
    preds = [("v", (0, 2), 0.9), ("v", (5, 7), 0.8), ("v", (10, 12), 0.7)]
    ap = average_precision(*ap_predictions(preds, gts), len(gts))[0]  # at tIoU 0.50
    checks.append(("hit-miss-hit AP = 0.8333", abs(ap - 5.0 / 6.0) < 1e-12))

    checks.append(("M=1 proposals", enumerate_proposals(1).tolist() == [[1, 1]]))
    checks.append(("M=3 dense proposal count = 6", len(enumerate_proposals(3, 3)) == 6))
    checks.append(("M=5 capped proposal count = 9", len(enumerate_proposals(5, 2)) == 9))

    ok = all(flag for _name, flag in checks)
    detail = "; ".join(name for name, flag in checks if not flag) or "all fixtures exact"
    report(4, ok, detail)
    assert ok, detail


# ------------------------------------------------------- criteria 5 and 6

REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference.json"
REFERENCE_SEED = 7


def run_reference(seed):
    """Train the four nets of configs/reference.json, with its seed set the
    way --seed sets it, on the planted corpus built in memory; predict and
    evaluate modes a-d on the held-out split."""
    t0 = time.monotonic()
    cfg = load_experiment_config(REFERENCE_CONFIG)
    cfg.training = dataclasses.replace(cfg.training, seed=seed)
    cfg.generator.seed = seed
    corpus = build_corpus(cfg.generator)
    nets = {key: model for key, (model, _trace) in train_nets(corpus, cfg).items()}
    _train_ids, val_ids = split_corpus(corpus, cfg.split.val_fraction, cfg.split.seed)
    val_corpus = Corpus(manifest=corpus.manifest, videos=[corpus.video(v) for v in val_ids])
    bundles = {mode: ModelBundle(**{net: nets[net, head] for net, head in needs.items()})
               for mode, needs in MODE_REQUIREMENTS.items()}
    predictions = {}
    reports = {}
    for mode, bundle in bundles.items():
        preds = predict_corpus(val_corpus, bundle, dataclasses.replace(cfg.pipeline, mode=mode))
        predictions[mode] = preds
        reports[mode] = evaluate(preds, val_corpus)
    return SimpleNamespace(
        predictions=predictions,
        reports=reports,
        tagging_map=tagging_map_on_gt_scenes(nets["tag", None], val_corpus.videos),
        elapsed=time.monotonic() - t0,
    )


_reference_cache = {}


@pytest.fixture(scope="session")
def reference_runs():
    def get(seed):
        if seed not in _reference_cache:
            _reference_cache[seed] = run_reference(seed)
        return _reference_cache[seed]

    return get


def test_criterion_5_end_to_end_learning(reference_runs):
    run = reference_runs(REFERENCE_SEED)
    rep_a = run.reports["a"]
    ok = rep_a.b_f1 >= 0.90 and run.tagging_map >= 0.80 and rep_a.final >= 0.35 and run.elapsed <= 900.0
    report(5, ok, f"mode a B-f1 {rep_a.b_f1:.4f} (>=0.90), tagging mAP {run.tagging_map:.4f} "
                  f"(>=0.80), final {rep_a.final:.4f} (>=0.35), wall {run.elapsed:.0f}s (<=900s)")
    assert rep_a.b_f1 >= 0.90
    assert run.tagging_map >= 0.80
    assert rep_a.final >= 0.35
    assert run.elapsed <= 900.0


def test_criterion_6_mode_ordering(reference_runs):
    seeds = (REFERENCE_SEED, 8, 9)
    finals = {mode: [] for mode in "abcd"}
    span_identity = True
    for seed in seeds:
        run = reference_runs(seed)
        for mode in "abcd":
            finals[mode].append(run.reports[mode].final)
        for pred_a, pred_d in zip(run.predictions["a"], run.predictions["d"]):
            if not np.array_equal(pred_a.segments, pred_d.segments):
                span_identity = False
    mean = {mode: float(np.mean(values)) for mode, values in finals.items()}
    per_seed_ok = sum(
        1 for idx in range(len(seeds))
        if finals["d"][idx] >= finals["b"][idx] >= finals["c"][idx]
    )
    ordering_ok = mean["d"] >= mean["b"] and mean["d"] >= mean["c"]
    allowance_ok = per_seed_ok >= len(seeds) - 1
    ok = ordering_ok and allowance_ok and span_identity
    report(6, ok,
           f"mean finals d={mean['d']:.4f} b={mean['b']:.4f} c={mean['c']:.4f} a={mean['a']:.4f}; "
           f"per-seed d>=b>=c holds {per_seed_ok}/{len(seeds)}; spans(a)==spans(d): {span_identity}")
    assert ordering_ok, f"mean ordering violated: {mean}"
    assert allowance_ok, f"per-seed ordering failed on more than one seed: {finals}"
    assert span_identity, "modes a and d produced different segment spans"


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_cli_determinism(tmp_path):
    from scenestruct.cli import main

    config_doc = {
        "paths": {"corpus": "corpus", "checkpoints": "ckpts", "out": "out"},
        "mask": {"modalities": ["vis_r50"], "include_length": True},
        "pipeline": {"mode": "a", "threshold_b": 0.65},
        "training": {"lr": 0.01, "batch_size": 8, "dropout": 0.5, "epochs": 4,
                     "patience": 4, "hidden_dim": 8, "seed": 13},
        "split": {"val_fraction": 0.25, "seed": 0},
        "generator": {
            "num_videos": 16, "seed": 13,
            "modalities": {"vis_r50": 6, "audio": 6},
            "signal": {"vis_r50": "scene", "audio": "tag"},
            "num_tags": 4, "scenes_per_video": [2, 3], "shots_per_scene": [1, 3],
            "tags_per_scene": [1, 2], "duration_mean_s": 12.0, "duration_std_s": 3.0,
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config_doc))
    captured = {}
    for round_name in ("first", "second"):
        for cmd in (
            ["generate", "--config", str(cfg_path)],
            ["train", "--config", str(cfg_path), "--net", "boundary"],
            ["train", "--config", str(cfg_path), "--net", "tag"],
            ["predict", "--config", str(cfg_path), "--mode", "a"],
            ["evaluate", "--config", str(cfg_path)],
        ):
            assert main(cmd) == 0, cmd
        captured[round_name] = {
            name: (tmp_path / "out" / name).read_bytes()
            for name in ("predictions.jsonl", "report.json", "report.csv")
        }
        captured[round_name]["records.bin"] = (tmp_path / "corpus" / "records.bin").read_bytes()
    ok = captured["first"] == captured["second"]
    report(7, ok, "generate/train/predict/evaluate rerun is byte-identical")
    assert ok


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_padding_invariance():
    rng = np.random.default_rng(5)
    lstm = make_lstm(4, 6, rng, dtype=np.float64)
    seqs = [rng.normal(size=(n, 4)) for n in (6, 2, 4, 1)]
    batch = SequenceBatch.from_sequences(seqs)
    boundary_mask = np.zeros((4, 5), dtype=bool)
    for row, n in enumerate((6, 2, 4, 1)):
        boundary_mask[row, : n - 1] = True
    targets = rng.integers(0, 2, size=(4, 5)).astype(np.float64)
    head_w = rng.normal(size=(12, 1))

    def loss_grads_probs(b):
        grads = zeros_like_params(lstm.params)
        out, cache = lstm.forward(b)
        logits = (out @ head_w)[:, :, 0]
        probs = 1.0 / (1.0 + np.exp(-logits[:, :-1]))
        loss, d_logits = bce_loss(probs, targets, boundary_mask)
        d_out = np.zeros_like(out)
        d_out[:, :-1] += d_logits[:, :, None] * head_w[None, None, :, 0]
        lstm.backward(cache, d_out, grads)
        return loss, grads, probs

    loss_a, grads_a, probs_a = loss_grads_probs(batch)
    noisy = SequenceBatch(batch.data.copy(), batch.lengths.copy())
    noisy.data[~noisy.mask] = rng.normal(size=noisy.data.shape)[~noisy.mask] * 1e5
    loss_b, grads_b, probs_b = loss_grads_probs(noisy)

    loss_equal = loss_a == loss_b
    grads_equal = all(np.array_equal(grads_a[k], grads_b[k]) for k in grads_a)
    preds_equal = np.array_equal(
        probs_a[boundary_mask], probs_b[boundary_mask]
    )

    # model-level: a video's prediction is independent of its co-batched peers
    corpus = build_corpus(GeneratorConfig(
        num_videos=4, seed=3, modalities={"vis_r50": 4}, signal={"vis_r50": "scene"},
        num_tags=2, scenes_per_video=(2, 3), shots_per_scene=(1, 3), tags_per_scene=(1, 1),
        duration_mean_s=10.0, duration_std_s=2.0,
    ))
    net = BoundaryNet(ModalityMask.from_names(["vis_r50"]),
                      corpus.manifest.modality_dims, hidden_dim=4, dropout_rate=0.0,
                      dtype=np.float64, seed=1)
    for name in ("head.W", "head.b"):  # a zero head would score every boundary 0.5
        net.params[name][...] = rng.normal(size=net.params[name].shape)
    solo = [net.forward_video(v) for v in corpus.videos]
    batch = net.forward_videos(corpus.videos)
    batch_equal = all(np.array_equal(batch[row], solo[row]) for row in range(len(solo)))
    # and so at the shipped shape (vis_r50 + image + length = 33, H=16) and the
    # paper's (vis_r50 + length = 2049, H=128), float32
    for dims, hidden in (({"vis_r50": 16, "image": 16}, 16), ({"vis_r50": 2048}, 128)):
        corpus = build_corpus(GeneratorConfig(
            num_videos=12, seed=4, modalities=dims, signal=dict.fromkeys(dims, "scene"),
            num_tags=2, scenes_per_video=(2, 5), shots_per_scene=(1, 4), tags_per_scene=(1, 1),
            duration_mean_s=30.0, duration_std_s=5.0,
        ))
        net = BoundaryNet(ModalityMask.from_names(list(dims)), corpus.manifest.modality_dims,
                          hidden_dim=hidden, seed=1)
        for name in ("head.W", "head.b"):
            net.params[name][...] = rng.normal(size=net.params[name].shape) * 0.1
        solo = [net.forward_video(v) for v in corpus.videos]
        batch = net.forward_videos(corpus.videos)
        batch_equal = batch_equal and all(
            np.array_equal(batch[row], solo[row]) for row in range(len(solo)))

    ok = loss_equal and grads_equal and preds_equal and batch_equal
    report(8, ok, f"loss equal: {loss_equal}; grads equal: {grads_equal}; "
                  f"predictions equal: {preds_equal}; batch-composition invariant: {batch_equal}")
    assert loss_equal and grads_equal and preds_equal and batch_equal
