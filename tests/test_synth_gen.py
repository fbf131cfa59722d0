from itertools import combinations

import numpy as np
import pytest

from scenestruct.data.corpus_io import load_corpus, save_corpus
from scenestruct.errors import ConfigError
from scenestruct.synth import GeneratorConfig, build_corpus, corpus_stats, generate_corpus


def small_cfg(**kwargs):
    defaults = dict(
        num_videos=10,
        seed=21,
        modalities={"vis_r50": 4, "audio": 4, "text": 3},
        signal={"vis_r50": "scene", "audio": "tag", "text": "none"},
        num_tags=5,
        scenes_per_video=(2, 4),
        shots_per_scene=(1, 3),
        tags_per_scene=(1, 2),
        duration_mean_s=18.0,
        duration_std_s=4.0,
    )
    defaults.update(kwargs)
    return GeneratorConfig(**defaults)


def first_shot_features(video, start_s, modality):
    """The modality's features of the shot that opens at start_s."""
    row = np.flatnonzero(video.shots.starts == start_s)[0]
    return video.shots.features[modality][row]


class TestDeterminism:
    def test_same_seed_twice_is_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            generate_corpus(small_cfg(), tmp_path / name)
        assert (tmp_path / "a" / "records.bin").read_bytes() == (
            tmp_path / "b" / "records.bin"
        ).read_bytes()
        assert (tmp_path / "a" / "manifest.json").read_bytes() == (
            tmp_path / "b" / "manifest.json"
        ).read_bytes()
        loaded = load_corpus(tmp_path / "a" / "manifest.json", tmp_path / "a" / "records.bin")
        for made, back in zip(build_corpus(small_cfg()).videos, loaded.videos, strict=True):
            assert back.duration_s == made.duration_s
            for a, b in zip([made.shots.starts, made.shots.ends, *made.shots.features.values()],
                            [back.shots.starts, back.shots.ends, *back.shots.features.values()]):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
        save_corpus(loaded, tmp_path / "c" / "manifest.json", tmp_path / "c" / "records.bin")
        for name in ("manifest.json", "records.bin"):
            assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        generate_corpus(small_cfg(), tmp_path / "a")
        generate_corpus(small_cfg(seed=22), tmp_path / "b")
        assert (tmp_path / "a" / "records.bin").read_bytes() != (
            tmp_path / "b" / "records.bin"
        ).read_bytes()


class TestStructure:
    def test_loader_accepts_generated_corpus(self, tmp_path):
        manifest, records = generate_corpus(small_cfg(), tmp_path)
        corpus = load_corpus(manifest, records)
        assert len(corpus) == 10

    def test_scenes_tile_video_and_shots_tile_scenes(self):
        corpus = build_corpus(small_cfg())
        for video in corpus.videos:
            spans = video.scenes.spans
            assert spans[0, 0] == 0.0
            assert spans[-1, 1] == video.duration_s
            assert np.array_equal(spans[:-1, 1], spans[1:, 0])
            shots = video.shots
            for start, end in spans:
                inside = (shots.starts >= start - 1e-12) & (shots.ends <= end + 1e-12)
                starts, ends = shots.starts[inside], shots.ends[inside]
                assert starts[0] == start
                assert ends[-1] == end
                assert np.array_equal(ends[:-1], starts[1:])

    def test_scene_joins_are_shot_boundaries(self):
        corpus = build_corpus(small_cfg())
        for video in corpus.videos:
            shot_edges = set(video.shots.ends.tolist())
            for end in video.scenes.spans[:-1, 1].tolist():
                assert end in shot_edges

    def test_consecutive_scene_prototype_distance_guaranteed(self):
        cfg = small_cfg(noise_std=0.0)
        corpus = build_corpus(cfg)
        for video in corpus.videos:
            starts = video.scenes.spans[:, 0]
            for a, b in zip(starts, starts[1:]):
                dist = np.linalg.norm(first_shot_features(video, a, "vis_r50")
                                      - first_shot_features(video, b, "vis_r50"))
                assert dist >= cfg.min_scene_prototype_distance


class TestSignals:
    def test_zero_noise_allows_exact_tag_recovery(self):
        cfg = small_cfg(noise_std=0.0, num_videos=20)
        corpus = build_corpus(cfg)
        rng = np.random.default_rng(cfg.seed)
        tag_protos = rng.normal(0.0, cfg.prototype_scale, size=(cfg.num_tags, 4))
        candidates = {
            tags: tag_protos[[t - 1 for t in sorted(tags)]].mean(axis=0)
            for size in range(cfg.tags_per_scene[0], cfg.tags_per_scene[1] + 1)
            for tags in combinations(range(1, cfg.num_tags + 1), size)
        }
        checked = 0
        for video in corpus.videos:
            for (start, _end), row in zip(video.scenes.spans, video.scenes.tags):
                feat = first_shot_features(video, start, "audio")
                best = min(candidates, key=lambda tags: np.linalg.norm(candidates[tags] - feat))
                assert list(best) == (np.flatnonzero(row) + 1).tolist()
                checked += 1
        assert checked > 20

    def test_none_signal_independent_of_tags(self):
        cfg = small_cfg(num_videos=150, tags_per_scene=(1, 1), num_tags=2)
        corpus = build_corpus(cfg)
        values = {1: [], 2: []}
        for video in corpus.videos:
            for (start, _end), row in zip(video.scenes.spans, video.scenes.tags):
                tag = int(np.flatnonzero(row)[0]) + 1
                values[tag].append(first_shot_features(video, start, "text"))
        gap = np.abs(np.mean(values[1], axis=0) - np.mean(values[2], axis=0))
        assert np.max(gap) < 0.3

    def test_scaling_video_count_scales_shot_count(self):
        small = build_corpus(small_cfg(num_videos=40))
        large = build_corpus(small_cfg(num_videos=80))
        ratio = large.manifest.stats["shot_count"] / small.manifest.stats["shot_count"]
        assert 1.6 <= ratio <= 2.4


class TestStats:
    def test_empty_corpus_zero_counts(self):
        corpus = build_corpus(small_cfg(num_videos=0))
        stats = corpus_stats(corpus)
        assert stats["video_count"] == 0
        assert stats["shot_count"] == 0

    def test_handcrafted_counts(self):
        corpus = build_corpus(small_cfg(num_videos=2))
        stats = corpus_stats(corpus)
        assert stats["video_count"] == 2
        assert stats["shot_count"] == sum(v.num_shots for v in corpus.videos)
        assert stats["scene_count"] == sum(len(v.scenes) for v in corpus.videos)

    def test_moments_match_streaming_recomputation(self):
        corpus = build_corpus(small_cfg(num_videos=30))
        stats = corpus_stats(corpus)
        # two-pass oracle
        durations = [v.duration_s for v in corpus.videos]
        mean = sum(durations) / len(durations)
        var = sum((d - mean) ** 2 for d in durations) / len(durations)
        assert stats["duration_mean_s"] == pytest.approx(mean, abs=1e-9)
        assert stats["duration_std_s"] == pytest.approx(var**0.5, abs=1e-9)

    def test_tag_counts_match_brute_force(self):
        corpus = build_corpus(small_cfg(num_videos=25))
        stats = corpus_stats(corpus)
        for k in range(1, 6):
            expected = sum(
                1 for v in corpus.videos for row in v.scenes.tags.tolist() if row[k - 1]
            )
            assert stats["tag_counts"][str(k)] == expected


class TestCalibration:
    def test_duration_moments_match_published_dataset(self):
        cfg = GeneratorConfig(
            num_videos=1000,
            seed=3,
            modalities={"vis_r50": 2},
            signal={"vis_r50": "none"},
            num_tags=4,
        )
        corpus = build_corpus(cfg)
        stats = corpus_stats(corpus)
        assert abs(stats["duration_mean_s"] - 42.74) <= 1.5
        assert abs(stats["duration_std_s"] - 14.16) <= 1.5


class TestValidation:
    def test_infeasible_config_rejected(self):
        with pytest.raises(ConfigError, match="infeasible"):
            build_corpus(small_cfg(scenes_per_video=(30, 40), min_scene_s=5.0))

    def test_bad_signal_mode_rejected(self):
        with pytest.raises(ConfigError, match="signal"):
            build_corpus(small_cfg(signal={"vis_r50": "loud"}))

    def test_too_many_tags_per_scene_rejected(self):
        with pytest.raises(ConfigError, match="vocabulary"):
            build_corpus(small_cfg(tags_per_scene=(6, 7)))

    def test_zipf_exponent_skews_tag_counts(self):
        balanced = corpus_stats(build_corpus(small_cfg(num_videos=120)))
        skewed = corpus_stats(build_corpus(small_cfg(num_videos=120, tag_zipf_exponent=2.0)))

        def spread(stats):
            counts = sorted(int(v) for v in stats["tag_counts"].values())
            return counts[-1] / max(counts[0], 1)

        assert spread(skewed) > spread(balanced)
