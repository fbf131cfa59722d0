"""Two-layer bi-directional LSTM with hand-derived backpropagation.

Gate layout along the last axis is (input, forget, cell, output). States are
zero-initialized; the forget-gate bias starts at 1.0 and all weights are
uniform in +-1/sqrt(hidden_dim). Padded timesteps are excluded from the
recurrence by selection (np.where), not multiplication, so outputs and
gradients are exactly independent of padded values.
"""

from __future__ import annotations

import numpy as np

from .batching import SequenceBatch
from .layers import assert_finite, sigmoid

DIRECTIONS = ("fwd", "bwd")


class BiLstm:
    """Stacked bi-directional LSTM over a SequenceBatch.

    Output shape is (batch, max_len, 2 * hidden_dim); the first hidden_dim
    channels come from the forward direction of the top layer and the rest
    from the backward direction.
    """

    def __init__(self, input_dim, hidden_dim, *, num_layers=2, rng=None, dtype=np.float32):
        if rng is None:
            rng = np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.dtype = np.dtype(dtype)
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        scale = 1.0 / np.sqrt(hidden_dim)
        for layer in range(num_layers):
            in_dim = input_dim if layer == 0 else 2 * hidden_dim
            for direction in DIRECTIONS:
                prefix = f"l{layer}_{direction}_"
                wx = rng.uniform(-scale, scale, size=(in_dim, 4 * hidden_dim))
                wh = rng.uniform(-scale, scale, size=(hidden_dim, 4 * hidden_dim))
                b = np.zeros(4 * hidden_dim)
                b[hidden_dim : 2 * hidden_dim] = 1.0
                self.params[prefix + "Wx"] = wx.astype(self.dtype)
                self.params[prefix + "Wh"] = wh.astype(self.dtype)
                self.params[prefix + "b"] = b.astype(self.dtype)
        for name, p in self.params.items():
            self.grads[name] = np.zeros_like(p)

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0

    def forward(self, batch: SequenceBatch):
        """Returns (output, cache); cache is consumed by backward()."""
        if batch.data.shape[2] != self.input_dim:
            raise ValueError(
                f"batch feature dim {batch.data.shape[2]} does not match "
                f"lstm input dim {self.input_dim}"
            )
        valid = batch.mask
        x = np.where(valid[:, :, None], batch.data, 0).astype(self.dtype, copy=False)
        layer_caches = []
        layer_in = x
        for layer in range(self.num_layers):
            h_fwd, cache_fwd = self._run_direction(layer_in, valid, layer, "fwd")
            h_bwd, cache_bwd = self._run_direction(layer_in, valid, layer, "bwd")
            out = np.concatenate([h_fwd, h_bwd], axis=2)
            assert_finite(f"lstm layer {layer} output", out)
            layer_caches.append((cache_fwd, cache_bwd, layer_in))
            layer_in = out
        cache = (layer_caches, valid)
        return layer_in, cache

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        """Accumulates parameter grads; returns the grad w.r.t. the input."""
        layer_caches, valid = cache
        hd = self.hidden_dim
        d = np.where(valid[:, :, None], grad_out, 0).astype(self.dtype, copy=False)
        for layer in reversed(range(self.num_layers)):
            cache_fwd, cache_bwd, layer_in = layer_caches[layer]
            dx_fwd = self._direction_backward(cache_fwd, layer_in, valid, layer, "fwd", d[:, :, :hd])
            dx_bwd = self._direction_backward(cache_bwd, layer_in, valid, layer, "bwd", d[:, :, hd:])
            d = dx_fwd + dx_bwd
        return d

    def _run_direction(self, x, valid, layer, direction):
        b_sz, t_max, _ = x.shape
        hd = self.hidden_dim
        prefix = f"l{layer}_{direction}_"
        wx = self.params[prefix + "Wx"]
        wh = self.params[prefix + "Wh"]
        bias = self.params[prefix + "b"]
        order = range(t_max - 1, -1, -1) if direction == "bwd" else range(t_max)
        h = np.zeros((b_sz, hd), dtype=self.dtype)
        c = np.zeros((b_sz, hd), dtype=self.dtype)
        out = np.zeros((b_sz, t_max, hd), dtype=self.dtype)
        gates = np.zeros((t_max, b_sz, 4 * hd), dtype=self.dtype)
        c_hat = np.zeros((t_max, b_sz, hd), dtype=self.dtype)
        tanh_c = np.zeros((t_max, b_sz, hd), dtype=self.dtype)
        h_prev = np.zeros((t_max, b_sz, hd), dtype=self.dtype)
        c_prev = np.zeros((t_max, b_sz, hd), dtype=self.dtype)
        for t in order:
            h_prev[t] = h
            c_prev[t] = c
            z = x[:, t] @ wx + h @ wh + bias
            i = sigmoid(z[:, :hd])
            f = sigmoid(z[:, hd : 2 * hd])
            g = np.tanh(z[:, 2 * hd : 3 * hd])
            o = sigmoid(z[:, 3 * hd :])
            c_new = f * c + i * g
            tc = np.tanh(c_new)
            h_new = o * tc
            m = valid[:, t : t + 1]
            h = np.where(m, h_new, 0)
            c = np.where(m, c_new, 0)
            out[:, t] = h
            gates[t] = np.concatenate([i, f, g, o], axis=1)
            c_hat[t] = c_new
            tanh_c[t] = tc
        return out, (gates, c_hat, tanh_c, h_prev, c_prev, order)

    def _direction_backward(self, dir_cache, x, valid, layer, direction, d_out):
        gates, c_hat, tanh_c, h_prev, c_prev, order = dir_cache
        b_sz, t_max, _ = x.shape
        hd = self.hidden_dim
        prefix = f"l{layer}_{direction}_"
        wx = self.params[prefix + "Wx"]
        wh = self.params[prefix + "Wh"]
        g_wx = self.grads[prefix + "Wx"]
        g_wh = self.grads[prefix + "Wh"]
        g_b = self.grads[prefix + "b"]
        dx = np.zeros_like(x)
        dh_carry = np.zeros((b_sz, hd), dtype=self.dtype)
        dc_carry = np.zeros((b_sz, hd), dtype=self.dtype)
        for t in reversed(order):
            m = valid[:, t : t + 1]
            i = gates[t][:, :hd]
            f = gates[t][:, hd : 2 * hd]
            g = gates[t][:, 2 * hd : 3 * hd]
            o = gates[t][:, 3 * hd :]
            tc = tanh_c[t]
            dh_new = np.where(m, d_out[:, t] + dh_carry, 0)
            dc_new = np.where(m, dc_carry, 0) + dh_new * o * (1.0 - tc * tc)
            do = dh_new * tc
            df = dc_new * c_prev[t]
            di = dc_new * g
            dg = dc_new * i
            dc_carry = dc_new * f
            dz = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - g * g),
                    do * o * (1.0 - o),
                ],
                axis=1,
            )
            g_wx += x[:, t].T @ dz
            g_wh += h_prev[t].T @ dz
            g_b += dz.sum(axis=0)
            dx[:, t] = dz @ wx.T
            dh_carry = dz @ wh.T
        return dx
