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
from .layers import assert_finite, rowwise_matmul, sigmoid

DIRECTIONS = ("fwd", "bwd")


class BiLstm:
    """Stacked bi-directional LSTM over a SequenceBatch.

    Output shape is (batch, max_len, 2 * hidden_dim); the first hidden_dim
    channels come from the forward direction of the top layer and the rest
    from the backward direction.
    """

    num_layers = 2  # the paper's depth

    def __init__(self, input_dim, hidden_dim, params, *, dtype=np.float32):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.dtype = np.dtype(dtype)
        self.params = params  # the owning net's dict; this layer reads its "lstm.*" entries

    def param_shapes(self) -> dict:
        """Name -> shape of each parameter, in draw and checkpoint order."""
        hd = self.hidden_dim
        shapes = {}
        for layer in range(self.num_layers):
            in_dim = self.input_dim if layer == 0 else 2 * hd
            for direction in DIRECTIONS:
                prefix = f"lstm.l{layer}_{direction}_"
                shapes[prefix + "Wx"] = (in_dim, 4 * hd)
                shapes[prefix + "Wh"] = (hd, 4 * hd)
                shapes[prefix + "b"] = (4 * hd,)
        return shapes

    def draw_params(self, rng) -> None:
        """Fill params with initial weights drawn from rng."""
        hd = self.hidden_dim
        scale = 1.0 / np.sqrt(hd)
        for name, shape in self.param_shapes().items():
            value = (np.repeat([0.0, 1.0, 0.0, 0.0], hd) if name.endswith("_b")  # forget gate at 1
                     else rng.uniform(-scale, scale, size=shape))
            self.params[name] = value.astype(self.dtype)

    def _input(self, batch: SequenceBatch) -> np.ndarray:
        """The batch data with padded steps zeroed, in this layer's dtype."""
        if batch.data.shape[2] != self.input_dim:
            raise ValueError(
                f"batch feature dim {batch.data.shape[2]} does not match "
                f"lstm input dim {self.input_dim}"
            )
        return np.where(batch.mask[:, :, None], batch.data, 0).astype(self.dtype, copy=False)

    def forward(self, batch: SequenceBatch):
        """Training forward: returns (output, cache); cache is consumed by
        backward()."""
        x = self._input(batch)
        valid = batch.mask
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

    def infer(self, batch: SequenceBatch) -> np.ndarray:
        """Inference forward: forward()'s output, with no cache kept.

        Each row has the bits of forward() on that row alone, whatever else
        shares the batch: every product runs one row at a time
        (rowwise_matmul), each layer projects all steps' inputs before its
        recurrence, and step k advances the fwd direction at t = k and the
        bwd direction at t = T-1-k together, with gates summed in forward()'s
        order, (x Wx + h Wh) + b.
        """
        x = self._input(batch)
        b_sz, t_max, _ = x.shape
        hd = self.hidden_dim
        valid = batch.mask[:, :, None]
        step_valid = np.stack([valid, valid[:, ::-1]])  # (2, B, T, 1), in step order
        for layer in range(self.num_layers):
            wx, wh, bias = ([self.params[f"lstm.l{layer}_{direction}_{name}"]
                             for direction in DIRECTIONS] for name in ("Wx", "Wh", "b"))
            # (2, B, T, 4H): each direction's input projection, in step order
            xw = np.stack([rowwise_matmul(x, wx[0]), rowwise_matmul(x, wx[1])[:, ::-1]])
            wh = np.stack(wh)[:, None]  # (2, 1, H, 4H)
            bias = np.stack(bias)[:, None]  # (2, 1, 4H)
            h = np.zeros((2, b_sz, hd), dtype=self.dtype)
            c = np.zeros((2, b_sz, hd), dtype=self.dtype)
            out = np.empty((2, b_sz, t_max, hd), dtype=self.dtype)
            for k in range(t_max):
                z = xw[:, :, k] + rowwise_matmul(h, wh) + bias
                gates = sigmoid(z)  # i, f and o are read from it; g takes tanh
                c_new = (gates[..., hd : 2 * hd] * c
                         + gates[..., :hd] * np.tanh(z[..., 2 * hd : 3 * hd]))
                h_new = gates[..., 3 * hd :] * np.tanh(c_new)
                m = step_valid[:, :, k]
                h = np.where(m, h_new, 0)
                c = np.where(m, c_new, 0)
                out[:, :, k] = h
            x = np.concatenate([out[0], out[1, :, ::-1]], axis=2)
            assert_finite(f"lstm layer {layer} output", x)
        return x

    def backward(self, cache, grad_out: np.ndarray, grads: dict) -> np.ndarray:
        """Adds the parameter gradients into grads; returns the gradient
        w.r.t. the input."""
        layer_caches, valid = cache
        hd = self.hidden_dim
        d = np.where(valid[:, :, None], grad_out, 0).astype(self.dtype, copy=False)
        for layer in reversed(range(self.num_layers)):
            cache_fwd, cache_bwd, layer_in = layer_caches[layer]
            dx_fwd = self._direction_backward(cache_fwd, layer_in, valid, layer, "fwd",
                                              d[:, :, :hd], grads)
            dx_bwd = self._direction_backward(cache_bwd, layer_in, valid, layer, "bwd",
                                              d[:, :, hd:], grads)
            d = dx_fwd + dx_bwd
        return d

    def _run_direction(self, x, valid, layer, direction):
        b_sz, t_max, _ = x.shape
        hd = self.hidden_dim
        prefix = f"lstm.l{layer}_{direction}_"
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

    def _direction_backward(self, dir_cache, x, valid, layer, direction, d_out, grads):
        gates, c_hat, tanh_c, h_prev, c_prev, order = dir_cache
        b_sz, t_max, _ = x.shape
        hd = self.hidden_dim
        prefix = f"lstm.l{layer}_{direction}_"
        wx = self.params[prefix + "Wx"]
        wh = self.params[prefix + "Wh"]
        g_wx = grads[prefix + "Wx"]
        g_wh = grads[prefix + "Wh"]
        g_b = grads[prefix + "b"]
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
