"""Experiment configuration: one JSON document, overridable by CLI flags.

Precedence is flags > config file > defaults. Defaults follow the published
training recipe (Adam lr 0.01, batch 32, dropout 0.5, boundary threshold
0.65, NMS tIoU 0, validation fraction 0.2). Relative paths are resolved
against the config file's directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .data.corpus_io import RECORDS_FILE
from .errors import ConfigError
from .fusion import EncoderSpec, ModalityMask
from .models.common import TrainingHyper, check_setting
from .pipeline import PipelineConfig
from .synth import GeneratorConfig


@dataclass
class PathsConfig:
    corpus: str = "corpus"
    checkpoints: str = "checkpoints"
    out: str = "out"

    def resolve(self, base: Path) -> "PathsConfig":
        return PathsConfig(
            corpus=str((base / self.corpus).resolve()),
            checkpoints=str((base / self.checkpoints).resolve()),
            out=str((base / self.out).resolve()),
        )

    @property
    def manifest(self) -> Path:
        return Path(self.corpus) / "manifest.json"

    @property
    def records(self) -> Path:
        return Path(self.corpus) / RECORDS_FILE

    @property
    def predictions(self) -> Path:
        return Path(self.out) / "predictions.jsonl"


@dataclass
class SplitConfig:
    val_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        check_setting(self.val_fraction, "split.val_fraction", 0, 1, open_low=True)
        check_setting(self.seed, "split.seed", 0, integer=True)


@dataclass
class ExperimentConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    mask: ModalityMask = field(default_factory=lambda: ModalityMask.from_names(["vis_r50", "vis_i3"]))
    encoders: dict = field(default_factory=dict)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    training: TrainingHyper = field(default_factory=TrainingHyper)
    split: SplitConfig = field(default_factory=SplitConfig)
    generator: GeneratorConfig | None = None
    ablate_net: str = "tag"
    ablate_masks: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "paths": {
                "corpus": self.paths.corpus,
                "checkpoints": self.paths.checkpoints,
                "out": self.paths.out,
            },
            "mask": self.mask.as_dict(),
            "encoders": {
                mod: {"trainable": spec.trainable, "dim": spec.dim}
                for mod, spec in self.encoders.items()
            },
            "pipeline": self.pipeline.as_dict(),
            "training": self.training.as_dict(),
            "split": {"val_fraction": self.split.val_fraction, "seed": self.split.seed},
            "generator": None if self.generator is None else self.generator.as_dict(),
            "ablate": {"net": self.ablate_net, "masks": [m.as_dict() for m in self.ablate_masks]},
        }


def _check_keys(doc: dict, allowed, where: str) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


def _parse_mask(doc) -> ModalityMask:
    _check_keys(doc, {"modalities", "include_length"}, "mask")
    return ModalityMask.from_names(
        doc.get("modalities", []), include_length=doc.get("include_length", True)
    )


def _parse_encoders(doc) -> dict:
    out = {}
    for mod, spec in doc.items():
        _check_keys(spec, {"trainable", "dim"}, f"encoders.{mod}")
        out[mod] = EncoderSpec(trainable=spec.get("trainable", False), dim=spec.get("dim", 32))
    return out


def _build(cls, doc: dict, where: str, tuple_keys=()):
    import dataclasses

    names = {f.name for f in dataclasses.fields(cls)}
    _check_keys(doc, names, where)
    kwargs = dict(doc)
    for key in tuple_keys:
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad {where} section: {exc}") from exc


def load_experiment_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    _check_keys(
        doc,
        {"paths", "mask", "encoders", "pipeline", "training", "split", "generator", "ablate"},
        "config",
    )
    cfg = ExperimentConfig()
    if "paths" in doc:
        cfg.paths = _build(PathsConfig, doc["paths"], "paths")
    cfg.paths = cfg.paths.resolve(path.parent)
    if "mask" in doc:
        cfg.mask = _parse_mask(doc["mask"])
    if "encoders" in doc:
        cfg.encoders = _parse_encoders(doc["encoders"])
    if "pipeline" in doc:
        cfg.pipeline = _build(PipelineConfig, doc["pipeline"], "pipeline")
    if "training" in doc:
        cfg.training = _build(TrainingHyper, doc["training"], "training")
    if "split" in doc:
        cfg.split = _build(SplitConfig, doc["split"], "split")
    if doc.get("generator") is not None:
        cfg.generator = _build(
            GeneratorConfig,
            doc["generator"],
            "generator",
            tuple_keys=("scenes_per_video", "shots_per_scene", "tags_per_scene"),
        )
    if "ablate" in doc:
        _check_keys(doc["ablate"], {"net", "masks"}, "ablate")
        cfg.ablate_net = doc["ablate"].get("net", "tag")
        cfg.ablate_masks = [_parse_mask(m) for m in doc["ablate"].get("masks", [])]
    return cfg


def write_resolved_config(cfg: ExperimentConfig, out_dir) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "resolved_config.json"
    path.write_text(json.dumps(cfg.as_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
