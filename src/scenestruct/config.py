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
from .data.records import CANONICAL_MODALITIES
from .errors import ConfigError
from .fusion import EncoderSpec, ModalityMask
from .models.bundle import NETS_BY_KIND
from .models.common import TrainingHyper, check_setting
from .pipeline import PipelineConfig
from .synth import GeneratorConfig


@dataclass
class PathsConfig:
    corpus: str = "corpus"
    checkpoints: str = "checkpoints"
    out: str = "out"

    def __post_init__(self):
        for key in ("corpus", "checkpoints", "out"):
            if not isinstance(getattr(self, key), str):
                raise ConfigError(f"paths.{key} must be a string, got {getattr(self, key)!r}")

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
    net_masks: dict = field(default_factory=dict)  # net -> its own mask; other nets use mask
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
            "net_masks": {net: mask.as_dict() for net, mask in self.net_masks.items()},
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
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {doc!r}")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


def _check_flag(value, key: str) -> None:
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")


def _parse_mask(doc, where: str) -> ModalityMask:
    _check_keys(doc, {"modalities", "include_length"}, where)
    names, include_length = doc.get("modalities", []), doc.get("include_length", True)
    if not isinstance(names, list):
        raise ConfigError(f"{where}.modalities must be a list of modality names, got {names!r}")
    _check_flag(include_length, f"{where}.include_length")
    return mask_from_names(names, include_length, f"{where}.modalities")


def mask_from_names(names, include_length: bool, where: str) -> ModalityMask:
    """The mask of names; an unknown name is a ConfigError naming where."""
    unknown = [m for m in names if m not in CANONICAL_MODALITIES]
    if unknown:
        raise ConfigError(f"{where}: unknown modality {unknown[0]!r}, "
                          f"expected one of {CANONICAL_MODALITIES}")
    return ModalityMask.from_names(names, include_length=include_length)


def _parse_encoders(doc) -> dict:
    _check_keys(doc, CANONICAL_MODALITIES, "encoders")
    out = {}
    for mod, spec in doc.items():
        _check_keys(spec, {"trainable", "dim"}, f"encoders.{mod}")
        trainable, dim = spec.get("trainable", False), spec.get("dim", 32)
        _check_flag(trainable, f"encoders.{mod}.trainable")
        check_setting(dim, f"encoders.{mod}.dim", 1, integer=True)
        out[mod] = EncoderSpec(trainable=trainable, dim=dim)
    return out


def _build(cls, doc: dict, where: str):
    import dataclasses

    names = {f.name for f in dataclasses.fields(cls)}
    _check_keys(doc, names, where)
    try:
        return cls(**doc)
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
        {"paths", "mask", "net_masks", "encoders", "pipeline", "training", "split", "generator",
         "ablate"},
        "config",
    )
    cfg = ExperimentConfig()
    if "paths" in doc:
        cfg.paths = _build(PathsConfig, doc["paths"], "paths")
    cfg.paths = cfg.paths.resolve(path.parent)
    if "mask" in doc:
        cfg.mask = _parse_mask(doc["mask"], "mask")
    if "net_masks" in doc:
        _check_keys(doc["net_masks"], NETS_BY_KIND, "net_masks")
        cfg.net_masks = {net: _parse_mask(mask, f"net_masks.{net}")
                         for net, mask in doc["net_masks"].items()}
    if "encoders" in doc:
        cfg.encoders = _parse_encoders(doc["encoders"])
    if "pipeline" in doc:
        cfg.pipeline = _build(PipelineConfig, doc["pipeline"], "pipeline")
    if "training" in doc:
        cfg.training = _build(TrainingHyper, doc["training"], "training")
    if "split" in doc:
        cfg.split = _build(SplitConfig, doc["split"], "split")
    if doc.get("generator") is not None:
        cfg.generator = _build(GeneratorConfig, doc["generator"], "generator")
    if "ablate" in doc:
        _check_keys(doc["ablate"], {"net", "masks"}, "ablate")
        cfg.ablate_net = doc["ablate"].get("net", "tag")
        if cfg.ablate_net not in NETS_BY_KIND:
            raise ConfigError(f"ablate.net must be one of {tuple(NETS_BY_KIND)}, "
                              f"got {cfg.ablate_net!r}")
        masks = doc["ablate"].get("masks", [])
        if not isinstance(masks, list):
            raise ConfigError(f"ablate.masks must be a list of masks, got {masks!r}")
        cfg.ablate_masks = [_parse_mask(m, f"ablate.masks[{k}]") for k, m in enumerate(masks)]
    return cfg


def write_resolved_config(cfg: ExperimentConfig, out_dir) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "resolved_config.json"
    path.write_text(json.dumps(cfg.as_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
