"""Multi-label scene tagger.

A bi-directional LSTM reads a scene's fused shot features; the forward
direction's final hidden state and the backward direction's state at the
first timestep form a fixed-length summary regardless of scene length,
which a dense head maps to per-tag sigmoid scores.
"""

from __future__ import annotations

import numpy as np

from ..data.labels import shots_in_span
from ..errors import ConfigError, DataError
from ..nn.layers import Dense, sigmoid
from ..nn.losses import bce_loss
from .common import SequenceNet, TrainingHyper, fit


def multihot(tags, num_tags) -> np.ndarray:
    out = np.zeros(num_tags, dtype=np.float64)
    for tag in tags:
        out[tag - 1] = 1.0
    return out


class TagNet(SequenceNet):
    kind = "tag"
    config_keys = ("num_tags",)

    def __init__(self, mask, dims, num_tags, **kwargs):
        if num_tags < 1:
            raise ConfigError(f"num_tags must be >= 1, got {num_tags}")
        super().__init__(mask, dims, **kwargs)
        self.num_tags = num_tags
        self.head = Dense(2 * self.hidden_dim, num_tags, dtype=self.lstm.dtype)

    def _summary(self, hidden, lengths):
        # forward direction at the last valid step; backward direction at step 0
        hd = self.hidden_dim
        rows = np.arange(hidden.shape[0])
        return np.concatenate([hidden[rows, lengths - 1, :hd], hidden[:, 0, hd:]], axis=1)

    def forward_scenes(self, scene_shots, *, train=False, rng=None) -> np.ndarray:
        """Tag scores (n_scenes, num_tags) for shot lists encoded as one batch."""
        hidden, lengths, _cache = self._encode(scene_shots, train=train, rng=rng)
        return sigmoid(self.head.forward(self._summary(hidden, lengths)))

    def forward_scene(self, video, i, j, *, train=False, rng=None) -> np.ndarray:
        """Tag scores (num_tags,) for the inclusive shot range [i, j]."""
        if not 1 <= i <= j <= video.num_shots:
            raise DataError(
                f"scene range ({i}, {j}) out of range for video {video.video_id!r}"
            )
        return self.forward_scenes([video.shots[i - 1 : j]], train=train, rng=rng)[0]

    def batch_loss_and_grads(self, items, rng, *, train=True, backward=None):
        """items: (shots, target) pairs with target of shape (num_tags,).

        train controls dropout; backward (default: same as train) controls
        whether gradients are accumulated.
        """
        if backward is None:
            backward = train
        hidden, lengths, cache = self._encode([shots for shots, _t in items], train=train, rng=rng)
        summary = self._summary(hidden, lengths)
        probs = sigmoid(self.head.forward(summary))
        targets = np.stack([t for _s, t in items]).astype(self.lstm.dtype)
        loss, d_logits = bce_loss(probs, targets)
        if backward:
            hd = self.hidden_dim
            d_summary = self.head.backward(summary, d_logits)
            d_hidden = np.zeros_like(hidden)
            d_hidden[np.arange(hidden.shape[0]), lengths - 1, :hd] += d_summary[:, :hd]
            d_hidden[:, 0, hd:] += d_summary[:, hd:]
            self._backprop(cache, d_hidden)
        return loss, int(targets.size)


def _scene_items(videos, num_tags):
    items = []
    for video in videos:
        for scene in video.scenes or ():
            shots = shots_in_span(video, scene.span)
            if shots:
                items.append((shots, multihot(scene.tags, num_tags)))
    return items


def train_tag(train_videos, val_videos, mask, dims, num_tags, hyper: TrainingHyper,
              *, encoders=None):
    """Fit a TagNet on ground-truth scenes with multi-hot tag targets."""
    items = _scene_items(train_videos, num_tags)
    if not items:
        raise ConfigError("tag training requires videos with scene annotations")
    model = TagNet(mask, dims, num_tags, hidden_dim=hyper.hidden_dim, encoders=encoders,
                   dropout_rate=hyper.dropout, seed=hyper.seed)
    return model, fit(model, items, hyper=hyper, val_items=_scene_items(val_videos, num_tags))
