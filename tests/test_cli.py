import json
import math

import numpy as np
import pytest

from scenestruct.cli import main
from scenestruct.config import load_experiment_config
from scenestruct.data.corpus_io import load_corpus
from scenestruct.data.records import Corpus, CorpusManifest
from scenestruct.errors import DataError
from scenestruct.experiment import ablation_metric, split_corpus
from scenestruct.nn import load_checkpoint, save_checkpoint

from conftest import make_video


def prediction_line(**segment):
    seg = {"start_s": 0.0, "end_s": 1.0, "scene_score": None, "tags": [{"id": 1, "score": 0.5}]}
    return json.dumps({"video_id": "synth-00000", "segments": [{**seg, **segment}]}) + "\n"


def base_config(tmp_path, **overrides):
    doc = {
        "paths": {"corpus": "corpus", "checkpoints": "ckpts", "out": "out"},
        "mask": {"modalities": ["vis_r50"], "include_length": True},
        "pipeline": {"mode": "a", "threshold_b": 0.65, "nms_tiou": 0.0},
        "training": {
            "lr": 0.01,
            "batch_size": 8,
            "dropout": 0.5,
            "epochs": 3,
            "patience": 3,
            "hidden_dim": 4,
            "seed": 0,
        },
        "split": {"val_fraction": 0.25, "seed": 0},
        "generator": {
            "num_videos": 8,
            "seed": 5,
            "modalities": {"vis_r50": 4, "audio": 4},
            "signal": {"vis_r50": "scene", "audio": "tag"},
            "num_tags": 3,
            "scenes_per_video": [2, 3],
            "shots_per_scene": [1, 2],
            "tags_per_scene": [1, 2],
            "duration_mean_s": 10.0,
            "duration_std_s": 2.0,
        },
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestExitCodes:
    def test_generate_then_full_loop(self, tmp_path):
        cfg = base_config(tmp_path)
        assert main(["generate", "--config", str(cfg)]) == 0
        assert (tmp_path / "corpus" / "manifest.json").exists()
        assert main(["train", "--config", str(cfg), "--net", "boundary"]) == 0
        assert main(["train", "--config", str(cfg), "--net", "tag"]) == 0
        assert (tmp_path / "ckpts" / "boundary.ckpt").exists()
        assert (tmp_path / "out" / "loss_boundary.csv").exists()
        assert main(["predict", "--config", str(cfg), "--mode", "a"]) == 0
        assert (tmp_path / "out" / "predictions.jsonl").exists()
        assert main(["evaluate", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert 0.0 <= report["final"] <= 1.0
        assert (tmp_path / "out" / "report.csv").exists()
        assert (tmp_path / "out" / "resolved_config.json").exists()

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["generate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_malformed_config_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["generate", "--config", str(path)]) == 2

    def test_unknown_config_key_is_config_error(self, tmp_path):
        cfg = base_config(tmp_path, extra_section={"x": 1})
        assert main(["generate", "--config", str(cfg)]) == 2

    def test_missing_corpus_is_data_error(self, tmp_path):
        cfg = base_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--net", "tag"]) == 3

    def test_non_positive_max_duration_shots_exits_2(self, tmp_path, capsys):
        cfg = base_config(tmp_path, pipeline={"mode": "b", "max_duration_shots": 0})
        capsys.readouterr()
        assert main(["predict", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "pipeline.max_duration_shots must be null or an integer >= 1, got 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("training, detail", [
        ({"batch_size": 0}, "training.batch_size must be an integer >= 1, got 0"),
        ({"lr": math.nan}, "training.lr must be a finite number > 0, got nan"),
        ({"lr": 1e300}, "training diverged in epoch 1: non-finite values in "),
    ], ids=["zero-batch-size", "nan-lr", "diverging-lr"])
    def test_bad_training_value_exits_2(self, tmp_path, capsys, training, detail):
        assert main(["generate", "--config", str(base_config(tmp_path))]) == 0
        doc = json.loads((tmp_path / "config.json").read_text())
        cfg = base_config(tmp_path, training={**doc["training"], **training})
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--net", "tag"]) == 2
        err = capsys.readouterr().err
        assert detail in err
        assert "Traceback" not in err
        if "diverged" in detail:
            assert err.rstrip().endswith("; lower training.lr")

    @pytest.mark.parametrize("command, section, values, detail", [
        (["train", "--net", "tag"], "split", {"seed": -1}, "split.seed must be an integer >= 0, got -1"),
        (["generate"], "generator", {"seed": -1}, "generator.seed must be an integer >= 0, got -1"),
        (["predict"], "pipeline", {"threshold_b": "x"},
         "pipeline.threshold_b must be a finite number in (0, 1), got 'x'"),
    ], ids=["split-seed", "generator-seed", "threshold-b"])
    def test_bad_section_value_exits_2_naming_key(self, tmp_path, capsys, command, section,
                                                  values, detail):
        doc = json.loads(base_config(tmp_path).read_text())
        cfg = base_config(tmp_path, **{section: {**doc[section], **values}})
        capsys.readouterr()
        assert main([*command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert detail in err
        assert "Traceback" not in err

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        assert main(["generate", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--net", "tag", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "training.seed must be an integer >= 0, got -1" in err
        assert "Traceback" not in err

    def test_malformed_records_line_exits_3(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        assert main(["generate", "--config", str(cfg)]) == 0
        records = tmp_path / "corpus" / "records.bin"
        tag, header, data = records.read_bytes().split(b"\n", 2)
        videos = json.loads(header)["videos"]
        del videos[-1]["starts"]
        records.write_bytes(b"\n".join([tag, json.dumps({"videos": videos}).encode(), data]))
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert f"records.bin video {len(videos)}: missing key 'starts'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, rewrite, detail", [
        ("out/predictions.jsonl", lambda _raw: b'{"video_id": "synth-00000"}\n',
         " line 1: missing key 'segments'"),
        ("out/predictions.jsonl", lambda _raw: prediction_line(scene_score=math.nan).encode(),
         " line 1: scene_score must be a finite number"),
        ("out/predictions.jsonl",
         lambda _raw: prediction_line(tags=[{"id": 99, "score": 0.5}]).encode(),
         ": video 'synth-00000': predicted tag id 99 is outside 1..3"),
        ("out/predictions.jsonl", lambda _raw: (prediction_line() * 2).encode(),
         " line 2: video 'synth-00000' was already predicted on line 1"),
        ("corpus/manifest.json",
         lambda raw: json.dumps({**json.loads(raw), "modalities": []}).encode(),
         ": 'modalities' must be a JSON object"),
        ("corpus/manifest.json", lambda raw: json.dumps({**json.loads(raw), "num_tags": "x"}).encode(),
         ": num_tags must be a positive integer"),
        ("corpus/records.bin", lambda raw: raw.replace(b'"tags": [', b'"tags": ["12", ', 1),
         " video 1: malformed scene tags ['12'"),
    ], ids=["prediction-no-segments", "prediction-nan-score", "prediction-tag-id",
            "prediction-duplicate-video", "manifest-list-modalities", "manifest-text-num-tags",
            "records-text-tag"])
    def test_malformed_evaluate_input_exits_3(self, tmp_path, capsys, name, rewrite, detail):
        cfg = base_config(tmp_path)
        assert main(["generate", "--config", str(cfg)]) == 0
        (tmp_path / "out").mkdir(exist_ok=True)
        (tmp_path / "out" / "predictions.jsonl").write_text(prediction_line())
        path = tmp_path / name
        path.write_bytes(rewrite(path.read_bytes()))
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert f"{path}{detail}" in err
        assert "Traceback" not in err

    def test_predict_without_segment_checkpoint_exits_4(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        assert main(["generate", "--config", str(cfg)]) == 0
        assert main(["train", "--config", str(cfg), "--net", "boundary"]) == 0
        assert main(["train", "--config", str(cfg), "--net", "tag"]) == 0
        code = main(["predict", "--config", str(cfg), "--mode", "d"])
        assert code == 4
        assert "segment" in capsys.readouterr().err

    def test_predict_with_malformed_checkpoint_config_exits_4(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        assert main(["generate", "--config", str(cfg)]) == 0
        assert main(["train", "--config", str(cfg), "--net", "boundary"]) == 0
        assert main(["train", "--config", str(cfg), "--net", "tag"]) == 0
        ckpt = tmp_path / "ckpts" / "tag.ckpt"
        kind, config, params = load_checkpoint(ckpt)
        del config["num_tags"]
        save_checkpoint(ckpt, kind, config, params)
        capsys.readouterr()
        assert main(["predict", "--config", str(cfg), "--mode", "a"]) == 4
        err = capsys.readouterr().err
        assert "tag.ckpt" in err and "'num_tags'" in err

    def test_evaluate_ground_truth_scores_one(self, tmp_path):
        cfg = base_config(tmp_path)
        assert main(["generate", "--config", str(cfg)]) == 0
        corpus = load_corpus(tmp_path / "corpus" / "manifest.json", tmp_path / "corpus" / "records.bin")
        out = tmp_path / "out"
        out.mkdir(exist_ok=True)
        with (out / "predictions.jsonl").open("w") as fh:
            for video in corpus.videos:
                doc = {
                    "video_id": video.video_id,
                    "segments": [
                        {
                            "start_s": s.span.start_s,
                            "end_s": s.span.end_s,
                            "scene_score": None,
                            "tags": [{"id": k, "score": 1.0} for k in sorted(s.tags)],
                        }
                        for s in video.scenes
                    ],
                }
                fh.write(json.dumps(doc) + "\n")
        assert main(["evaluate", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["final"] == 1.0


class TestDeterminism:
    def test_rerun_reproduces_predictions_and_report(self, tmp_path):
        cfg = base_config(tmp_path)
        outputs = {}
        for round_name in ("first", "second"):
            for cmd in (
                ["generate", "--config", str(cfg)],
                ["train", "--config", str(cfg), "--net", "boundary"],
                ["train", "--config", str(cfg), "--net", "tag"],
                ["predict", "--config", str(cfg), "--mode", "a"],
                ["evaluate", "--config", str(cfg)],
            ):
                assert main(cmd) == 0
            outputs[round_name] = {
                name: (tmp_path / "out" / name).read_bytes()
                for name in ("predictions.jsonl", "report.json", "report.csv", "resolved_config.json")
            }
        assert outputs["first"] == outputs["second"]


class TestSeedOverride:
    def test_seed_flag_changes_training(self, tmp_path):
        cfg = base_config(tmp_path)
        ckpt = tmp_path / "ckpts" / "tag.ckpt"
        assert main(["generate", "--config", str(cfg)]) == 0
        assert main(["train", "--config", str(cfg), "--net", "tag"]) == 0
        first = ckpt.read_bytes()
        assert main(["train", "--config", str(cfg), "--net", "tag"]) == 0
        assert ckpt.read_bytes() == first
        assert main(["train", "--config", str(cfg), "--net", "tag", "--seed", "99"]) == 0
        assert ckpt.read_bytes() != first


class TestSplitCorpus:
    def make_corpus(self, n):
        videos = [make_video(f"v{idx:05d}", [0.0, 1.0], feature_dim=1) for idx in range(n)]
        return Corpus(manifest=CorpusManifest({"vis_r50": 1}, 2), videos=videos)

    def test_published_split_sizes(self):
        corpus = self.make_corpus(5000)
        train_ids, val_ids = split_corpus(corpus, 0.2, 0)
        assert len(val_ids) == 1000
        assert len(train_ids) == 4000

    def test_same_seed_same_split(self):
        corpus = self.make_corpus(40)
        assert split_corpus(corpus, 0.2, 7) == split_corpus(corpus, 0.2, 7)

    def test_partition_property(self):
        corpus = self.make_corpus(23)
        train_ids, val_ids = split_corpus(corpus, 0.3, 3)
        assert set(train_ids) | set(val_ids) == {v.video_id for v in corpus.videos}
        assert set(train_ids) & set(val_ids) == set()

    def test_tiny_corpus_rejected(self):
        corpus = self.make_corpus(1)
        with pytest.raises(DataError):
            split_corpus(corpus, 0.5, 0)


class TestAblate:
    def test_single_mask_matches_manual_run(self, tmp_path):
        cfg_path = base_config(
            tmp_path,
            ablate={"net": "tag", "masks": [{"modalities": ["audio"], "include_length": True}]},
        )
        assert main(["generate", "--config", str(cfg_path)]) == 0
        assert main(["ablate", "--config", str(cfg_path)]) == 0
        csv_path = tmp_path / "out" / "ablation_tag.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].endswith("tagging_map")
        value_from_csv = float(lines[1].split(",")[-1])

        cfg = load_experiment_config(cfg_path)
        corpus = load_corpus(cfg.paths.manifest, cfg.paths.records)
        from scenestruct.fusion import ModalityMask

        manual = ablation_metric(corpus, cfg, "tag", ModalityMask.from_names(["audio"]))
        assert value_from_csv == manual

    def test_ablate_without_masks_is_config_error(self, tmp_path):
        cfg_path = base_config(tmp_path)
        assert main(["generate", "--config", str(cfg_path)]) == 0
        assert main(["ablate", "--config", str(cfg_path)]) == 2

    def test_rows_sorted_descending(self, tmp_path):
        cfg_path = base_config(
            tmp_path,
            ablate={
                "net": "tag",
                "masks": [
                    {"modalities": ["audio"], "include_length": True},
                    {"modalities": ["vis_r50"], "include_length": True},
                    {"modalities": ["text"], "include_length": True},
                ],
            },
            generator={
                "num_videos": 12,
                "seed": 5,
                "modalities": {"vis_r50": 4, "audio": 4, "text": 3},
                "signal": {"vis_r50": "scene", "audio": "tag", "text": "none"},
                "num_tags": 3,
                "scenes_per_video": [2, 3],
                "shots_per_scene": [1, 2],
                "tags_per_scene": [1, 2],
                "duration_mean_s": 10.0,
                "duration_std_s": 2.0,
            },
        )
        assert main(["generate", "--config", str(cfg_path)]) == 0
        assert main(["ablate", "--config", str(cfg_path)]) == 0
        lines = (tmp_path / "out" / "ablation_tag.csv").read_text().strip().splitlines()
        values = [float(line.split(",")[-1]) for line in lines[1:]]
        assert values == sorted(values, reverse=True)
        assert len(values) == 3
