import json
import math
import re

import pytest

from scenestruct.config import SplitConfig, load_experiment_config
from scenestruct.errors import ConfigError, DataError
from scenestruct.models.common import TrainingHyper
from scenestruct.pipeline import PipelineConfig


class TestPublishedDefaults:
    def test_training_defaults(self):
        hyper = TrainingHyper()
        assert hyper.lr == 0.01
        assert hyper.batch_size == 32
        assert hyper.dropout == 0.5

    def test_pipeline_defaults(self):
        cfg = PipelineConfig()
        assert cfg.threshold_b == 0.65
        assert cfg.nms_tiou == 0.0

    def test_split_default_mirrors_published_fraction(self):
        assert SplitConfig().val_fraction == 0.2


class TestLoading:
    def test_empty_config_gives_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        cfg = load_experiment_config(path)
        assert cfg.training.lr == 0.01
        assert cfg.pipeline.mode == "d"

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        sub = tmp_path / "exp"
        sub.mkdir()
        path = sub / "c.json"
        path.write_text(json.dumps({"paths": {"corpus": "data", "out": "../shared_out"}}))
        cfg = load_experiment_config(path)
        assert cfg.paths.corpus == str(sub / "data")
        assert cfg.paths.out == str(tmp_path / "shared_out")

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        for key in ("learning_rate", "encoder_dim"):  # encoder_dim: a removed setting
            path.write_text(json.dumps({"training": {key: 0.1}}))
            with pytest.raises(ConfigError, match=key):
                load_experiment_config(path)

    def test_bad_val_fraction_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"split": {"val_fraction": 1.5}}))
        with pytest.raises(ConfigError, match="val_fraction"):
            load_experiment_config(path)


    @pytest.mark.parametrize("section, key, value, rule", [
        pytest.param(section, "max_duration_shots", value, "null or an integer >= 1",
                     id=f"{value}-{section}")
        for value in (0, -3, 2.5, True, "4") for section in ("pipeline", "training")
    ] + [
        pytest.param("training", key, value, rule, id=f"{key}-{value}")
        for key, rule, values in [
            ("lr", "a finite number > 0", (0, -0.1, math.nan, math.inf, "x", True)),
            ("positive_weight", "a finite number > 0", (0, math.nan, True)),
            ("batch_size", "an integer >= 1", (0, 2.5, "x", True)),
            ("epochs", "an integer >= 1", (0, -1, 1.5, True)),
            ("hidden_dim", "an integer >= 1", (0, "16", True)),
            ("patience", "an integer >= 0", (-1, 1.5, True)),
            ("seed", "an integer >= 0", (-1, 0.5, "0", True)),
            ("dropout", "a finite number in [0, 1)", (1, 1.5, -0.1, math.nan, "0.5", True)),
        ]
        for value in values
    ] + [
        pytest.param(section, key, value, rule, id=f"{section}.{key}-{value}")
        for section, key, rule, values in [
            ("split", "seed", "an integer >= 0", (-1, 0.5, True)),
            ("split", "val_fraction", "a finite number in (0, 1)", (0, 1, math.nan, "x", True)),
            ("generator", "seed", "an integer >= 0", (-1, "7", True)),
            ("pipeline", "threshold_b", "a finite number in (0, 1)", (0, 1, math.nan, "x", True)),
            ("pipeline", "nms_tiou", "a finite number in [0, 1)", (-0.1, 1, math.inf, "x", True)),
        ]
        for value in values
    ])
    def test_bad_max_duration_shots_names_key(self, tmp_path, section, key, value, rule):
        """Every checked numeric setting, max_duration_shots first, is a
        ConfigError naming the key, its rule and the value."""
        path = tmp_path / "c.json"
        path.write_text(json.dumps({section: {key: value}}))
        with pytest.raises(ConfigError, match=re.escape(
                f"{section}.{key} must be {rule}, got {value!r}")):
            load_experiment_config(path)

    @pytest.mark.parametrize("section", ["pipeline", "training"])
    @pytest.mark.parametrize("value", [None, 1, 12])
    def test_max_duration_shots_accepted(self, tmp_path, section, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({section: {"max_duration_shots": value}}))
        cfg = load_experiment_config(path)
        assert getattr(cfg, section).max_duration_shots == value


class TestMaskOverride:
    def test_train_mask_flag_is_recorded_in_checkpoint(self, tmp_path):
        from test_cli import base_config
        from scenestruct.cli import main
        from scenestruct.nn import load_checkpoint

        cfg = base_config(tmp_path)
        assert main(["generate", "--config", str(cfg)]) == 0
        assert main(["train", "--config", str(cfg), "--net", "tag", "--mask", "audio"]) == 0
        _, config, _ = load_checkpoint(tmp_path / "ckpts" / "tag.ckpt")
        assert config["mask"]["modalities"] == ["audio"]


class TestEvaluateErrors:
    def test_video_without_ground_truth_rejected(self, tiny_manifest):
        from scenestruct.data.records import Corpus
        from scenestruct.metrics import evaluate
        from scenestruct.pipeline import LoadedPrediction
        from conftest import make_video

        video = make_video("v0", [0.0, 2.0])  # no scenes
        corpus = Corpus(manifest=tiny_manifest, videos=[video])
        with pytest.raises(DataError, match="ground truth"):
            evaluate([LoadedPrediction(video_id="v0", segments=[])], corpus)
