"""Scene-boundary classifier over a video's shot sequence.

A two-layer bi-directional LSTM reads the fused shot features; for each of
the M-1 interior shot boundaries, the hidden states of the two flanking
shots feed a dense head and a sigmoid, giving a boundary score in [0, 1].
"""

from __future__ import annotations

import numpy as np

from ..data.labels import boundary_labels
from ..errors import ConfigError
from ..nn.layers import Dense, sigmoid
from ..nn.losses import bce_loss
from .common import SequenceNet, TrainingHyper, fit


class BoundaryNet(SequenceNet):
    kind = "boundary"
    config_keys = ("positive_weight",)

    def __init__(self, mask, dims, *, positive_weight=1.0, **kwargs):
        super().__init__(mask, dims, **kwargs)
        self.positive_weight = positive_weight
        self.head = Dense(4 * self.hidden_dim, 1, dtype=self.lstm.dtype)

    def _head_forward(self, hidden):
        pair = np.concatenate([hidden[:, :-1], hidden[:, 1:]], axis=2)
        b_sz, tm1, dim = pair.shape
        logits = (pair.reshape(b_sz * tm1, dim) @ self.head.W + self.head.b).reshape(b_sz, tm1)
        return sigmoid(logits), pair

    def forward_videos(self, videos, *, train=False, rng=None) -> list[np.ndarray]:
        """Boundary scores of each video, encoded together as one batch."""
        hidden, _lengths, _cache = self._encode([v.shots for v in videos], train=train, rng=rng)
        probs, _pair = self._head_forward(hidden)
        return [probs[row, : video.num_shots - 1] for row, video in enumerate(videos)]

    def forward_video(self, video, *, train=False, rng=None) -> np.ndarray:
        """Boundary scores b_1..b_{M-1}; empty for single-shot videos."""
        if video.num_shots < 2:
            return np.zeros(0, dtype=self.lstm.dtype)
        return self.forward_videos([video], train=train, rng=rng)[0]

    def batch_loss_and_grads(self, items, rng, *, train=True, backward=None):
        """items: (video, labels) pairs. Returns (loss, count) or None.

        train controls dropout; backward (default: same as train) controls
        whether gradients are accumulated.
        """
        if backward is None:
            backward = train
        hidden, _lengths, cache = self._encode([v.shots for v, _labels in items],
                                               train=train, rng=rng)
        probs, pair = self._head_forward(hidden)
        b_sz, tm1 = probs.shape
        dtype = self.lstm.dtype
        targets = np.zeros((b_sz, tm1), dtype=dtype)
        valid = np.zeros((b_sz, tm1), dtype=bool)
        for row, (_video, labels) in enumerate(items):
            n = len(labels)
            targets[row, :n] = labels
            valid[row, :n] = True
        if not valid.any():
            return None
        loss, d_logits = bce_loss(probs, targets, valid, pos_weight=self.positive_weight)
        if backward:
            hd2 = 2 * self.hidden_dim
            d_pair = d_logits[:, :, None] * self.head.W[None, None, :, 0]
            self.head.gW[:, 0] += np.einsum("btk,bt->k", pair, d_logits)
            self.head.gb += d_logits.sum()
            d_hidden = np.zeros_like(hidden)
            d_hidden[:, :-1] += d_pair[:, :, :hd2]
            d_hidden[:, 1:] += d_pair[:, :, hd2:]
            self._backprop(cache, d_hidden)
        return loss, int(valid.sum())


def boundaries_to_scenes(scores, threshold_b) -> list[tuple[int, int]]:
    """Partition shots 1..M by cutting at every score >= threshold_b.

    scores has length M-1; returns inclusive 1-based shot index pairs that
    tile the video. Raising the threshold never increases the scene count.
    """
    if not 0.0 < threshold_b < 1.0:
        raise ConfigError(f"threshold_b must be in (0, 1), got {threshold_b}")
    m = len(scores) + 1
    scenes = []
    start = 1
    for idx, score in enumerate(scores, start=1):
        if score >= threshold_b:
            scenes.append((start, idx))
            start = idx + 1
    scenes.append((start, m))
    return scenes


def train_boundary(train_videos, val_videos, mask, dims, hyper: TrainingHyper,
                   *, encoders=None):
    """Fit a BoundaryNet against boundary labels derived from ground truth."""
    labeled = [v for v in train_videos if v.scenes is not None]
    if not labeled:
        raise ConfigError("boundary training requires videos with scene annotations")
    items = [(v, boundary_labels(v)) for v in labeled]
    model = BoundaryNet(mask, dims, hidden_dim=hyper.hidden_dim, encoders=encoders,
                        dropout_rate=hyper.dropout, seed=hyper.seed,
                        positive_weight=hyper.positive_weight)
    val_items = [(v, boundary_labels(v)) for v in val_videos if v.scenes is not None]
    return model, fit(model, items, hyper=hyper, val_items=val_items)
