"""Segment proposal scorer.

A bi-directional LSTM encodes the whole video once for global context; each
candidate segment (inclusive shot range) is summarized by the hidden states
at its two ends plus the mean hidden state over the range, then scored by a
dense head and a sigmoid. The head emits a scalar confidence or a per-tag
vector depending on head_mode.

The head is linear, so no summary row is built: each of its three weight
blocks multiplies every shot's hidden state once, and a proposal's logit
adds up per-shot products (the mean through a prefix sum over shots). A
video of M shots costs three M-row products for all M(M+1)/2 proposals,
in training and inference alike.
"""

from __future__ import annotations

import logging

import numpy as np

from ..data.labels import range_spans
from ..errors import ConfigError, DataError
from ..metrics import tiou
from ..nn.layers import sigmoid
from ..nn.losses import bce_loss
from .common import HEAD_MODES, SequenceNet

log = logging.getLogger(__name__)


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
    def training_items(videos, hyper):
        """(video, i_idx, j_idx, targets) of every proposal of at most
        hyper.max_duration_shots shots in each annotated video, with
        hyper.segment_head's targets; a video without scenes is skipped
        with a warning."""
        items = []
        for video in videos:
            if video.scenes is None:
                log.warning("skipping video %s: no scenes for segment supervision", video.video_id)
                continue
            proposals = enumerate_proposals(video.num_shots, hyper.max_duration_shots)
            targets = (proposal_targets if hyper.segment_head == "scalar"
                       else proposal_tag_targets)(proposals, video)
            items.append((video, proposals[:, 0], proposals[:, 1], targets))
        return items

    def _head_logits(self, hidden, rows, i_idx, j_idx):
        """Logits of proposals over hidden states (B, T, 2H): proposal n
        spans shots i_idx[n]..j_idx[n] (1-based) of batch row rows[n].

        P_i, P_j and P_mean are every shot's products with head.W's three
        (2H, outputs) blocks, for h_i, h_j and the mean; a proposal adds
        P_i[i], P_j[j] and the mean of P_mean over its range, from a prefix
        sum with a zero row in front. Nothing is summed across proposals,
        so a logit does not depend on which other proposals are scored
        with it.
        """
        p_i, p_j, p_mean = hidden @ self.params["head.W"].reshape(3, hidden.shape[2], -1)[:, None]
        prefix = np.zeros((p_mean.shape[0], p_mean.shape[1] + 1, p_mean.shape[2]), p_mean.dtype)
        np.cumsum(p_mean, axis=1, out=prefix[:, 1:])
        lengths = (j_idx - i_idx + 1).astype(hidden.dtype)[:, None]
        return (p_i[rows, i_idx - 1] + p_j[rows, j_idx - 1]
                + (prefix[rows, j_idx] - prefix[rows, i_idx - 1]) / lengths
                + self.params["head.b"])

    def _head_backward(self, hidden, rows, i_idx, j_idx, d_logits):
        """Add the head's gradients for _head_logits; returns the gradient
        w.r.t. hidden. d_logits goes to dP_i at i and dP_j at j; the mean's
        share d_logits / length reaches every shot of the range through a
        difference array (+ at i, - after j) and its cumsum."""
        b_sz, t_max, width = hidden.shape
        n_out = d_logits.shape[1]
        d_p = np.zeros((3, b_sz, t_max + 1, n_out), dtype=hidden.dtype)  # + 1: a step after j
        np.add.at(d_p[0], (rows, i_idx - 1), d_logits)
        np.add.at(d_p[1], (rows, j_idx - 1), d_logits)
        share = d_logits / (j_idx - i_idx + 1).astype(hidden.dtype)[:, None]
        np.add.at(d_p[2], (rows, i_idx - 1), share)
        np.add.at(d_p[2], (rows, j_idx), -share)
        np.cumsum(d_p[2], axis=1, out=d_p[2])
        d_p = d_p[:, :, :-1]
        g_w = hidden.reshape(-1, width).T @ d_p.reshape(3, -1, n_out)
        self.grads["head.W"] += g_w.reshape(-1, n_out)
        self.grads["head.b"] += d_logits.sum(axis=0)
        w_t = self.params["head.W"].reshape(3, width, n_out).swapaxes(1, 2)
        return (d_p @ w_t[:, None]).sum(axis=0)

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
        hidden, _lengths = self._infer([video.shots])
        scores = sigmoid(self._head_logits(hidden, 0, i_idx, j_idx))
        return scores[:, 0] if self.head_mode == "scalar" else scores

    def batch_loss_and_grads(self, items, rng, *, train=True, backward=None):
        """items: (video, i_idx, j_idx, targets). Returns (loss, count) or None.

        train controls dropout; backward (default: same as train) controls
        whether gradients are accumulated.
        """
        if backward is None:
            backward = train
        videos, i_lists, j_lists, target_lists = zip(*items)
        hidden, _lengths, cache = self._encode([video.shots for video in videos],
                                               train=train, rng=rng)
        i_idx, j_idx = np.concatenate(i_lists), np.concatenate(j_lists)
        if not len(i_idx):
            return None
        rows = np.repeat(np.arange(len(items)), [len(i) for i in i_lists])
        probs = sigmoid(self._head_logits(hidden, rows, i_idx, j_idx))
        targets = np.concatenate(target_lists).astype(self.lstm.dtype).reshape(probs.shape)
        loss, d_logits = bce_loss(probs, targets)
        if backward:
            self._backprop(cache, self._head_backward(hidden, rows, i_idx, j_idx, d_logits))
        return loss, int(targets.size)
