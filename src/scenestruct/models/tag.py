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
from ..nn.layers import assert_finite, dense_backward, dense_forward, rowwise_matmul, sigmoid
from ..nn.losses import bce_loss
from .common import SequenceNet


def scene_shots(video, i, j):
    """The shots of the inclusive 1-based range [i, j]; a range outside the
    video is a DataError."""
    if not 1 <= i <= j <= video.num_shots:
        raise DataError(f"scene range ({i}, {j}) out of range for video {video.video_id!r}")
    return video.shots[i - 1 : j]


class TagNet(SequenceNet):
    kind = "tag"
    config_keys = ("num_tags",)
    summary_width = 2  # one hidden state per direction

    def __init__(self, mask, dims, num_tags, **kwargs):
        if num_tags < 1:
            raise ConfigError(f"num_tags must be >= 1, got {num_tags}")
        super().__init__(mask, dims, num_outputs=num_tags, **kwargs)
        self.num_tags = num_tags

    @staticmethod
    def training_items(videos, _hyper):
        """(shots, multi-hot target) of each ground-truth scene that holds shots."""
        items = []
        for video in videos:
            if video.scenes is None:
                continue
            targets = video.scenes.tags.astype(np.float64)
            for (start, end), target in zip(video.scenes.spans.tolist(), targets):
                shots = shots_in_span(video, start, end)
                if shots:
                    items.append((shots, target))
        return items

    def _summary(self, hidden, lengths):
        # forward direction at the last valid step; backward direction at step 0
        hd = self.hidden_dim
        rows = np.arange(hidden.shape[0])
        return np.concatenate([hidden[rows, lengths - 1, :hd], hidden[:, 0, hd:]], axis=1)

    def _probs(self, logits):
        assert_finite("tag head output", logits)
        return sigmoid(logits)

    def forward_scenes(self, shot_lists) -> np.ndarray:
        """Tag scores (n_scenes, num_tags) for shot lists encoded as one
        batch; each row has the bits of its shot list scored alone."""
        hidden, lengths = self._infer(shot_lists)
        logits = rowwise_matmul(self._summary(hidden, lengths), self.params["head.W"])
        return self._probs(logits + self.params["head.b"])

    def forward_scene(self, video, i, j) -> np.ndarray:
        """Tag scores (num_tags,) for the inclusive shot range [i, j]."""
        return self.forward_scenes([scene_shots(video, i, j)])[0]

    def batch_loss_and_grads(self, items, rng, *, train=True, backward=None):
        """items: (shots, target) pairs with target of shape (num_tags,).

        train controls dropout; backward (default: same as train) controls
        whether gradients are accumulated.
        """
        if backward is None:
            backward = train
        hidden, lengths, cache = self._encode([shots for shots, _t in items], train=train, rng=rng)
        summary = self._summary(hidden, lengths)
        probs = self._probs(dense_forward(summary, self.params["head.W"], self.params["head.b"]))
        targets = np.stack([t for _s, t in items]).astype(self.lstm.dtype)
        loss, d_logits = bce_loss(probs, targets)
        if backward:
            hd = self.hidden_dim
            d_summary, g_w, g_b = dense_backward(summary, self.params["head.W"], d_logits)
            self.grads["head.W"] += g_w
            self.grads["head.b"] += g_b
            d_hidden = np.zeros_like(hidden)
            d_hidden[np.arange(hidden.shape[0]), lengths - 1, :hd] += d_summary[:, :hd]
            d_hidden[:, 0, hd:] += d_summary[:, hd:]
            self._backprop(cache, d_hidden)
        return loss, int(targets.size)
