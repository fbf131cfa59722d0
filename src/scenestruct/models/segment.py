"""Segment proposal scorer.

A bi-directional LSTM encodes the whole video once for global context; each
candidate segment (inclusive shot range) is summarized by the hidden states
at its two ends plus the mean hidden state over the range, then scored by a
dense head and a sigmoid. The head emits a scalar confidence or a per-tag
vector depending on head_mode.
"""

from __future__ import annotations

import logging

import numpy as np

from ..data.labels import range_spans
from ..errors import ConfigError, DataError
from ..metrics import tiou
from ..nn.layers import sigmoid
from ..nn.losses import bce_loss
from .common import SequenceNet, TrainingHyper, fit

log = logging.getLogger(__name__)

HEAD_MODES = ("scalar", "per_tag")


def enumerate_proposals(num_shots, max_duration_shots=None) -> np.ndarray:
    """(N, 2) array of all inclusive 1-based shot ranges (i, j) with
    j - i + 1 <= the cap, in lexicographic order."""
    if num_shots < 1:
        raise ValueError(f"num_shots must be >= 1, got {num_shots}")
    cap = num_shots if max_duration_shots is None else max_duration_shots
    if cap < 1:
        raise ValueError(f"max_duration_shots must be >= 1, got {cap}")
    i_idx, j_idx = np.triu_indices(num_shots)  # row-major: lexicographic
    keep = j_idx - i_idx < cap
    return np.column_stack([i_idx[keep], j_idx[keep]]) + 1


def _best_scene(proposals, video):
    """Each proposal's best tIoU over the video's scenes and that scene's
    row (argmax: the first scene on ties)."""
    if video.scenes is None:
        raise DataError(f"video {video.video_id!r} has no scenes for proposal targets")
    tious = tiou(*range_spans(video, proposals).T, *video.scenes.spans.T)
    # a zero column keeps argmax defined for a video without scenes
    tious = np.pad(tious, ((0, 0), (0, 1)))
    best = tious.argmax(axis=1)
    return tious[np.arange(len(tious)), best], best


def proposal_targets(proposals, video) -> np.ndarray:
    """Soft scalar targets: the best tIoU of each proposal over GT scenes."""
    return _best_scene(proposals, video)[0]


def proposal_tag_targets(proposals, video) -> np.ndarray:
    """Per-tag targets: the best-tIoU scene's tag indicators scaled by that
    tIoU (first scene wins ties); all-zero rows for disjoint proposals."""
    best_t, best = _best_scene(proposals, video)
    indicators = np.zeros((len(video.scenes) + 1, video.scenes.tags.shape[1]))  # last: no scene
    indicators[:-1] = video.scenes.tags
    return indicators[best] * best_t[:, None]


class SegmentNet(SequenceNet):
    kind = "segment"
    config_keys = ("head_mode", "num_tags")
    summary_width = 6  # [h_i, h_j, mean(h_i..h_j)]

    def __init__(self, mask, dims, *, num_tags=None, head_mode="scalar", **kwargs):
        if head_mode not in HEAD_MODES:
            raise ConfigError(f"head_mode must be one of {HEAD_MODES}, got {head_mode!r}")
        if head_mode == "per_tag" and not num_tags:
            raise ConfigError("per_tag head requires num_tags")
        super().__init__(mask, dims, num_outputs=1 if head_mode == "scalar" else num_tags,
                         **kwargs)
        self.head_mode = head_mode
        self.num_tags = num_tags

    @staticmethod
    def _summaries(hidden_1video, i_idx, j_idx):
        """Per-proposal summary rows: [h_i, h_j, mean(h_i..h_j)]."""
        prefix = np.concatenate(
            [np.zeros((1, hidden_1video.shape[1]), dtype=hidden_1video.dtype),
             np.cumsum(hidden_1video, axis=0, dtype=hidden_1video.dtype)],
            axis=0,
        )
        lengths = (j_idx - i_idx + 1).astype(hidden_1video.dtype)
        mean = (prefix[j_idx] - prefix[i_idx - 1]) / lengths[:, None]
        return np.concatenate([hidden_1video[i_idx - 1], hidden_1video[j_idx - 1], mean], axis=1)

    def _head_forward(self, summaries):
        # per-row reduction keeps each row's value independent of how many
        # proposals are scored together
        weights = self.params["head.W"]
        logits = (summaries[:, :, None] * weights[None, :, :]).sum(axis=1) + self.params["head.b"]
        return sigmoid(logits)

    def _scatter_summary_grads(self, d_summary, hidden_1video, i_idx, j_idx):
        hd2 = 2 * self.hidden_dim
        d_hidden = np.zeros_like(hidden_1video)
        np.add.at(d_hidden, i_idx - 1, d_summary[:, :hd2])
        np.add.at(d_hidden, j_idx - 1, d_summary[:, hd2 : 2 * hd2])
        lengths = (j_idx - i_idx + 1).astype(hidden_1video.dtype)
        weights = d_summary[:, 2 * hd2 :] / lengths[:, None]
        diff = np.zeros((hidden_1video.shape[0] + 1, hd2), dtype=hidden_1video.dtype)
        np.add.at(diff, i_idx - 1, weights)
        np.add.at(diff, j_idx, -weights)
        d_hidden += np.cumsum(diff[:-1], axis=0)
        return d_hidden

    def forward_video(self, video, proposals):
        """Scores for an (N, 2) array of (i, j) proposals: (N,) or (N, num_tags)."""
        proposals = np.asarray(proposals, dtype=np.intp).reshape(-1, 2)
        i_idx, j_idx = proposals.T
        bad = np.flatnonzero((i_idx < 1) | (i_idx > j_idx) | (j_idx > video.num_shots))
        if bad.size:
            i, j = proposals[bad[0]].tolist()
            raise DataError(
                f"proposal ({i}, {j}) out of range for video {video.video_id!r} "
                f"with {video.num_shots} shots"
            )
        if not len(proposals):
            shape = (0,) if self.head_mode == "scalar" else (0, self.num_tags)
            return np.zeros(shape, dtype=self.lstm.dtype)
        hidden, _lengths = self._infer([video.shots])
        scores = self._head_forward(self._summaries(hidden[0], i_idx, j_idx))
        return scores[:, 0] if self.head_mode == "scalar" else scores

    def batch_loss_and_grads(self, items, rng, *, train=True, backward=None):
        """items: (video, i_idx, j_idx, targets). Returns (loss, count) or None.

        train controls dropout; backward (default: same as train) controls
        whether gradients are accumulated.
        """
        if backward is None:
            backward = train
        hidden, _lengths, cache = self._encode([video.shots for video, *_rest in items],
                                               train=train, rng=rng)
        summaries = [self._summaries(hidden[row, : video.num_shots], i_idx, j_idx)
                     for row, (video, i_idx, j_idx, _targets) in enumerate(items)]
        counts = [s.shape[0] for s in summaries]
        if sum(counts) == 0:
            return None
        stacked = np.concatenate(summaries, axis=0)
        probs = self._head_forward(stacked)
        targets = np.concatenate([t for *_rest, t in items]).astype(self.lstm.dtype)
        targets = targets.reshape(probs.shape)
        loss, d_logits = bce_loss(probs, targets)
        if backward:
            d_summary = self._head_backward(stacked, d_logits)
            d_hidden = np.zeros_like(hidden)
            offset = 0
            for row, (video, i_idx, j_idx, _t) in enumerate(items):
                n = counts[row]
                m = video.num_shots
                d_hidden[row, :m] = self._scatter_summary_grads(
                    d_summary[offset : offset + n], hidden[row, :m], i_idx, j_idx
                )
                offset += n
            self._backprop(cache, d_hidden)
        return loss, int(targets.size)


def _prepare_items(videos, head_mode, max_duration_shots):
    items = []
    for video in videos:
        if video.scenes is None:
            log.warning("skipping video %s: no scenes for segment supervision", video.video_id)
            continue
        proposals = enumerate_proposals(video.num_shots, max_duration_shots)
        if head_mode == "scalar":
            targets = proposal_targets(proposals, video)
        else:
            targets = proposal_tag_targets(proposals, video)
        items.append((video, proposals[:, 0], proposals[:, 1], targets))
    return items


def train_segment(train_videos, val_videos, mask, dims, hyper: TrainingHyper,
                  *, num_tags=None, encoders=None):
    """Fit a SegmentNet against soft tIoU targets over enumerated proposals."""
    head_mode = hyper.segment_head
    items = _prepare_items(train_videos, head_mode, hyper.max_duration_shots)
    if not items:
        raise ConfigError("segment training requires videos with scene annotations")
    model = SegmentNet(mask, dims, hidden_dim=hyper.hidden_dim, num_tags=num_tags,
                       head_mode=head_mode, encoders=encoders, dropout_rate=hyper.dropout,
                       seed=hyper.seed)
    val_items = _prepare_items(val_videos, head_mode, hyper.max_duration_shots)
    return model, fit(model, items, hyper=hyper, val_items=val_items)
