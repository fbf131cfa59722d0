"""Synthetic corpora with planted scene and tag structure.

Each video is a timeline of scenes tiling the duration; scenes subdivide
into shots at random interior points, so shot boundaries include every
scene join exactly. Per modality, features carry one of three signals:
  tag   - the mean of the scene's tag prototype vectors plus noise, so
          tags are recoverable from features;
  scene - a prototype drawn from a per-corpus pool whose entries are at
          least a configured distance apart, with consecutive scenes always
          drawing different entries, so boundaries are learnable;
  none  - pure noise, statistically independent of the ground truth.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .data.corpus_io import RECORDS_FILE, save_corpus
from .data.records import (CANONICAL_MODALITIES, Corpus, CorpusManifest, SceneTable, ShotTable,
                           VideoRecord)
from .errors import ConfigError
from .models.common import check_setting

SIGNAL_MODES = ("tag", "scene", "none")


def _default_modalities() -> dict:
    return {"vis_r50": 16, "vis_i3": 16, "image": 16, "audio": 16, "text": 16}


def _default_signal() -> dict:
    return {"vis_r50": "scene", "vis_i3": "tag", "image": "scene", "audio": "tag", "text": "none"}


@dataclass
class GeneratorConfig:
    num_videos: int = 250
    seed: int = 7
    duration_mean_s: float = 42.74
    duration_std_s: float = 14.16
    scenes_per_video: tuple[int, int] = (2, 5)
    shots_per_scene: tuple[int, int] = (1, 4)
    num_tags: int = 8
    tags_per_scene: tuple[int, int] = (1, 3)
    modalities: dict = field(default_factory=_default_modalities)
    signal: dict = field(default_factory=_default_signal)
    noise_std: float | dict = 0.05
    prototype_scale: float = 1.0
    min_scene_prototype_distance: float = 2.0
    scene_prototype_pool: int = 12
    tag_zipf_exponent: float = 0.0
    min_scene_s: float = 1.0
    min_shot_s: float = 0.2

    def __post_init__(self):
        """Check every value: a bad one is a ConfigError naming its key."""
        for key, low in (("num_videos", 0), ("seed", 0), ("num_tags", 1),
                         ("scene_prototype_pool", 2)):
            check_setting(getattr(self, key), f"generator.{key}", low, integer=True)
        for key in ("duration_mean_s", "min_scene_s", "min_shot_s"):
            check_setting(getattr(self, key), f"generator.{key}", 0, open_low=True)
        for key in ("duration_std_s", "prototype_scale", "min_scene_prototype_distance",
                    "tag_zipf_exponent"):
            check_setting(getattr(self, key), f"generator.{key}", 0)
        if isinstance(self.noise_std, dict):
            for mod, value in self.noise_std.items():
                check_setting(value, f"generator.noise_std.{mod}", 0)
        else:
            check_setting(self.noise_std, "generator.noise_std", 0)
        for key in ("scenes_per_video", "shots_per_scene", "tags_per_scene"):
            pair = getattr(self, key)
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ConfigError(f"generator.{key} must be a [low, high] pair, got {pair!r}")
            check_setting(pair[0], f"generator.{key}[0]", 1, integer=True)
            check_setting(pair[1], f"generator.{key}[1]", pair[0], integer=True)
            setattr(self, key, tuple(pair))
        if self.tags_per_scene[1] > self.num_tags:
            raise ConfigError("tags_per_scene exceeds the tag vocabulary")
        for key in ("modalities", "signal"):
            if not isinstance(getattr(self, key), dict):
                raise ConfigError(f"generator.{key} must be a JSON object, "
                                  f"got {getattr(self, key)!r}")
        # a misspelt signal or noise_std key would leave its modality at the default
        noise = self.noise_std if isinstance(self.noise_std, dict) else {}
        for key, entries in (("modalities", self.modalities), ("signal", self.signal),
                             ("noise_std", noise)):
            for mod in entries:
                if mod not in CANONICAL_MODALITIES:
                    raise ConfigError(f"generator.{key}.{mod}: unknown modality, "
                                      f"expected one of {CANONICAL_MODALITIES}")
        for mod, dim in self.modalities.items():
            check_setting(dim, f"generator.modalities.{mod}", 1, integer=True)
            if self.signal.get(mod, "none") not in SIGNAL_MODES:
                raise ConfigError(
                    f"modality {mod!r} signal must be one of {SIGNAL_MODES}, "
                    f"got {self.signal.get(mod)!r}"
                )
        floor = self.scenes_per_video[1] * self.min_scene_s
        if floor > self.duration_mean_s + 5.0 * self.duration_std_s:
            raise ConfigError(
                f"infeasible config: {self.scenes_per_video[1]} scenes of at least "
                f"{self.min_scene_s}s cannot fit plausible video durations"
            )

    def noise_for(self, modality: str) -> float:
        if isinstance(self.noise_std, dict):
            return float(self.noise_std.get(modality, 0.0))
        return float(self.noise_std)

    def as_dict(self) -> dict:
        return asdict(self)


def _split_interval(total, parts, floor, rng) -> np.ndarray:
    """Random positive parts summing to total, each at least floor."""
    if parts == 1:
        return np.array([total])
    weights = rng.dirichlet(np.ones(parts))
    return floor + (total - parts * floor) * weights


def _tag_probs(cfg: GeneratorConfig) -> np.ndarray:
    if cfg.tag_zipf_exponent <= 0:
        return np.full(cfg.num_tags, 1.0 / cfg.num_tags)
    ranks = np.arange(1, cfg.num_tags + 1, dtype=np.float64)
    p = ranks**-cfg.tag_zipf_exponent
    return p / p.sum()


def _prototype_pool(rng, size, dim, scale, min_dist) -> np.ndarray:
    """Pool entries pairwise at least min_dist apart (rejection sampling)."""
    pool = np.zeros((size, dim))
    for idx in range(size):
        for _ in range(1000):
            candidate = rng.normal(0.0, scale, size=dim)
            if all(np.linalg.norm(candidate - pool[j]) >= min_dist for j in range(idx)):
                pool[idx] = candidate
                break
        else:
            raise ConfigError(
                f"cannot place {size} scene prototypes of scale {scale} "
                f"at pairwise distance {min_dist} in {dim} dims"
            )
    return pool


def build_corpus(cfg: GeneratorConfig) -> Corpus:
    """Generate an in-memory corpus; identical for identical configs."""
    rng = np.random.default_rng(cfg.seed)
    tag_probs = _tag_probs(cfg)
    tag_protos = {
        mod: rng.normal(0.0, cfg.prototype_scale, size=(cfg.num_tags, dim))
        for mod, dim in cfg.modalities.items()
        if cfg.signal.get(mod, "none") == "tag"
    }
    scene_pools = {
        mod: _prototype_pool(
            rng, cfg.scene_prototype_pool, dim, cfg.prototype_scale,
            cfg.min_scene_prototype_distance,
        )
        for mod, dim in cfg.modalities.items()
        if cfg.signal.get(mod, "none") == "scene"
    }
    # one normal() call per scene draws the noise shot by shot in modality order:
    # scale 1 for 'none' modalities, else noise_std, skipping a zero noise_std
    scales = {mod: 1.0 if cfg.signal.get(mod, "none") == "none" else cfg.noise_for(mod)
              for mod in cfg.modalities}
    drawn = {mod: dim for mod, dim in cfg.modalities.items() if scales[mod] > 0}
    draw_scales = np.repeat([scales[mod] for mod in drawn], list(drawn.values()))
    draw_splits = np.cumsum(list(drawn.values()))[:-1]
    videos = []
    for v_idx in range(cfg.num_videos):
        n_scenes = int(rng.integers(cfg.scenes_per_video[0], cfg.scenes_per_video[1] + 1))
        floor = n_scenes * cfg.min_scene_s
        duration = None
        for _ in range(1000):
            draw = rng.normal(cfg.duration_mean_s, cfg.duration_std_s)
            if draw >= floor:
                duration = draw
                break
        if duration is None:
            raise ConfigError(
                f"could not sample a duration of at least {floor}s for {n_scenes} scenes"
            )
        scene_lens = _split_interval(duration, n_scenes, cfg.min_scene_s, rng)
        scene_bounds = np.concatenate([[0.0], np.cumsum(scene_lens)])
        scene_tags = np.zeros((n_scenes, cfg.num_tags), dtype=bool)
        starts = []
        columns = {mod: [] for mod in cfg.modalities}
        prev_pool_pick: dict[str, int] = {}
        for s_idx in range(n_scenes):
            start, end = float(scene_bounds[s_idx]), float(scene_bounds[s_idx + 1])
            n_tags = int(rng.integers(cfg.tags_per_scene[0], cfg.tags_per_scene[1] + 1))
            picked = rng.choice(cfg.num_tags, size=n_tags, replace=False, p=tag_probs)
            scene_tags[s_idx, picked] = True

            scene_protos = {}
            for mod in cfg.modalities:
                mode = cfg.signal.get(mod, "none")
                if mode == "tag":
                    scene_protos[mod] = tag_protos[mod][scene_tags[s_idx]].mean(axis=0)
                elif mode == "scene":
                    # consecutive scenes never reuse a pool entry, so the
                    # feature jump at every boundary is at least the pool's
                    # pairwise minimum distance
                    pick = int(rng.integers(cfg.scene_prototype_pool))
                    while pick == prev_pool_pick.get(mod):
                        pick = int(rng.integers(cfg.scene_prototype_pool))
                    prev_pool_pick[mod] = pick
                    scene_protos[mod] = scene_pools[mod][pick]

            scene_len = end - start
            n_shots = int(rng.integers(cfg.shots_per_scene[0], cfg.shots_per_scene[1] + 1))
            n_shots = max(1, min(n_shots, int(scene_len / cfg.min_shot_s)))
            shot_lens = _split_interval(scene_len, n_shots, cfg.min_shot_s, rng)
            shot_bounds = start + np.concatenate([[0.0], np.cumsum(shot_lens)])
            shot_bounds[0] = start
            shot_bounds[-1] = end
            starts.append(shot_bounds[:-1])
            draws = rng.normal(0.0, draw_scales, size=(n_shots, draw_scales.size))
            noise = dict(zip(drawn, np.split(draws, draw_splits, axis=1)))
            for mod, dim in cfg.modalities.items():
                columns[mod].append(scene_protos.get(mod, 0.0)
                                    + noise.get(mod, np.zeros((n_shots, dim))))
        edges = np.concatenate(starts + [scene_bounds[-1:]])  # each shot ends where the next starts
        videos.append(VideoRecord(
            video_id=f"synth-{v_idx:05d}",
            duration_s=float(scene_bounds[-1]),
            shots=ShotTable(edges[:-1], edges[1:],
                            {mod: np.concatenate(cols) for mod, cols in columns.items()}),
            scenes=SceneTable(np.column_stack([scene_bounds[:-1], scene_bounds[1:]]), scene_tags),
        ))
    manifest = CorpusManifest(
        modality_dims=dict(cfg.modalities),
        num_tags=cfg.num_tags,
        stats={},
    )
    corpus = Corpus(manifest=manifest, videos=videos)
    manifest.stats = corpus_stats(corpus)
    return corpus


def corpus_stats(corpus: Corpus) -> dict:
    """Exact counts and moments of a corpus."""
    durations = np.array([v.duration_s for v in corpus.videos], dtype=np.float64)
    tags = np.concatenate([np.zeros((0, corpus.manifest.num_tags), dtype=bool)]
                          + [v.scenes.tags for v in corpus.videos if v.scenes is not None])
    return {
        "video_count": len(corpus.videos),
        "shot_count": int(sum(v.num_shots for v in corpus.videos)),
        "scene_count": len(tags),
        "duration_mean_s": float(durations.mean()) if len(durations) else 0.0,
        "duration_std_s": float(durations.std()) if len(durations) else 0.0,
        "tag_counts": {str(k): n for k, n in enumerate(tags.sum(axis=0).tolist(), start=1)},
    }


def generate_corpus(cfg: GeneratorConfig, out_dir):
    """Write manifest.json and records.bin; returns their paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = build_corpus(cfg)
    manifest_path = out_dir / "manifest.json"
    records_path = out_dir / RECORDS_FILE
    save_corpus(corpus, manifest_path, records_path)
    return manifest_path, records_path
