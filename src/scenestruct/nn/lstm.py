"""Two-layer bi-directional LSTM with hand-derived backpropagation.

Gate layout along the last axis is (input, forget, cell, output). States are
zero-initialized; the forget-gate bias starts at 1.0 and all weights are
uniform in +-1/sqrt(hidden_dim). Padded timesteps are excluded from the
recurrence by selection (np.where), not multiplication, so outputs and
gradients are exactly independent of padded values.

Both directions of a layer run in one step loop (_recurrence) on a (2, B, .)
stack: step k advances fwd at t = k and bwd at t = T-1-k. The input
projections x Wx of all steps are taken before the loop, leaving only h Wh
inside it (Appleyard et al., arXiv:1604.01946); gates sum as
(x Wx + h Wh) + b. forward and infer share the loop and differ only in their
products. backward runs one reverse step loop over both directions for the
gate gradients, then forms the weight and input gradients step by step; a
caller that has no use for the input gradient (every encoder frozen) skips
layer 0's, a (B, 4H) by (4H, input_dim) product per step and direction.
"""

from __future__ import annotations

import numpy as np

from .batching import SequenceBatch
from .layers import assert_finite, rowwise_matmul, sigmoid

DIRECTIONS = ("fwd", "bwd")


def _step_order(fwd: np.ndarray, bwd: np.ndarray) -> np.ndarray:
    """Two (B, T, .) arrays, one per direction, as one (2, T, B, .) stack in
    step order: step k is t = k for fwd and t = T-1-k for bwd."""
    return np.stack([fwd.swapaxes(0, 1), bwd[:, ::-1].swapaxes(0, 1)])


def _time_order(steps: np.ndarray) -> np.ndarray:
    """A (2, T, B, H) stack in step order as one (B, T, 2H) array [fwd | bwd]."""
    return np.concatenate([steps[0].swapaxes(0, 1), steps[1, ::-1].swapaxes(0, 1)], axis=2)


def _previous(steps: np.ndarray) -> np.ndarray:
    """Each step's predecessor in a (2, T, B, .) stack, zeros before the first."""
    return np.concatenate([np.zeros_like(steps[:, :1]), steps[:, :-1]], axis=1)


def _stepwise_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w as one GEMM per step: (B, T, K) by (K, N) to (B, T, N)."""
    return np.stack([x[:, t] @ w for t in range(x.shape[1])], axis=1)


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

    def _weights(self, layer: int):
        """Wx, Wh and b of one layer, each a [fwd, bwd] list."""
        return ([self.params[f"lstm.l{layer}_{direction}_{name}"] for direction in DIRECTIONS]
                for name in ("Wx", "Wh", "b"))

    def forward(self, batch: SequenceBatch):
        """Training forward: returns (output, cache); cache is consumed by
        backward()."""
        return self._layers(batch, rowwise=False)

    def infer(self, batch: SequenceBatch) -> np.ndarray:
        """Inference forward: forward()'s output, with the cache dropped.

        Each row has the bits of forward() on that row alone, whatever else
        shares the batch: it runs forward()'s recurrence with every product
        taken one row at a time (rowwise_matmul), which for one row are the
        products forward() takes.
        """
        return self._layers(batch, rowwise=True)[0]

    def _layers(self, batch: SequenceBatch, *, rowwise: bool):
        """Both layers over the batch: returns (output, cache). Products are
        one per row (rowwise) or one GEMM per step."""
        x = self._input(batch)
        step_valid = _step_order(batch.mask[:, :, None], batch.mask[:, :, None])  # (2, T, B, 1)
        layer_caches = []
        for layer in range(self.num_layers):
            wx, wh, bias = self._weights(layer)
            wh, bias = np.stack(wh), np.stack(bias)[:, None]  # (2, H, 4H), (2, 1, 4H)
            if rowwise:
                xw = _step_order(*(rowwise_matmul(x, w) for w in wx))
                steps = self._recurrence(xw, step_valid, wh[:, None], bias, rowwise_matmul)
            else:
                xw = _step_order(*(_stepwise_matmul(x, w) for w in wx))
                steps = self._recurrence(xw, step_valid, wh, bias, np.matmul)
            layer_caches.append((x, *steps))
            x = _time_order(steps[0])
            assert_finite(f"lstm layer {layer} output", x)
        return x, (layer_caches, step_valid)

    def _recurrence(self, xw, step_valid, wh, bias, matmul):
        """Both directions of one layer in one step loop.

        xw (2, T, B, 4H) holds each step's input projection and step_valid
        (2, T, B, 1) its mask, in step order; matmul(h, wh) is the recurrent
        product of the (2, B, H) state. Returns the hidden states, the gate
        activations (sigmoid for i, f and o; tanh for g) and the cell states
        before masking, each (2, T, B, .) in step order.
        """
        _, t_max, b_sz, _ = xw.shape
        hd = self.hidden_dim
        h = np.zeros((2, b_sz, hd), dtype=self.dtype)
        c = np.zeros_like(h)
        out = np.empty((2, t_max, b_sz, hd), dtype=self.dtype)
        acts = np.empty((2, t_max, b_sz, 4 * hd), dtype=self.dtype)
        cells = np.empty_like(out)
        for k in range(t_max):
            z = xw[:, k] + matmul(h, wh) + bias
            act = acts[:, k]
            act[...] = sigmoid(z)
            act[..., 2 * hd : 3 * hd] = np.tanh(z[..., 2 * hd : 3 * hd])
            c_new = cells[:, k] = (act[..., hd : 2 * hd] * c
                                   + act[..., :hd] * act[..., 2 * hd : 3 * hd])
            m = step_valid[:, k]
            h = out[:, k] = np.where(m, act[..., 3 * hd :] * np.tanh(c_new), 0)
            c = np.where(m, c_new, 0)
        return out, acts, cells

    def backward(self, cache, grad_out: np.ndarray, grads: dict, *,
                 input_grad: bool = True) -> np.ndarray | None:
        """Adds the parameter gradients into grads; returns the gradient
        w.r.t. the input, or None without input_grad, in which case layer 0's
        input gradient is never formed. The parameter gradients are the same
        either way."""
        layer_caches, step_valid = cache
        hd = self.hidden_dim
        d = np.where(step_valid[0].swapaxes(0, 1), grad_out, 0).astype(self.dtype, copy=False)
        for layer in reversed(range(self.num_layers)):
            x, out, acts, cells = layer_caches[layer]
            wx, wh, _bias = self._weights(layer)
            dz = self._recurrence_backward(_step_order(d[..., :hd], d[..., hd:]), step_valid,
                                           acts, cells, np.stack(wh).swapaxes(1, 2))
            h_prev = _previous(out)
            t_max = x.shape[1]
            form_dx = layer > 0 or input_grad
            dx = []
            for n, direction in enumerate(DIRECTIONS):
                prefix = f"lstm.l{layer}_{direction}_"
                g_wx, g_wh, g_b = grads[prefix + "Wx"], grads[prefix + "Wh"], grads[prefix + "b"]
                dx_dir = np.zeros_like(x) if form_dx else None
                for k in reversed(range(t_max)):
                    t, dz_k = (k if direction == "fwd" else t_max - 1 - k), dz[n, k]
                    g_wx += x[:, t].T @ dz_k
                    g_wh += h_prev[n, k].T @ dz_k
                    g_b += dz_k.sum(axis=0)
                    if form_dx:
                        dx_dir[:, t] = dz_k @ wx[n].T
                dx.append(dx_dir)
            d = dx[0] + dx[1] if form_dx else None
        return d

    def _recurrence_backward(self, d_out, step_valid, acts, cells, wh_t):
        """The reverse step loop of _recurrence over both directions: returns
        the (2, T, B, 4H) gate pre-activation gradients dz in step order.

        d_out (2, T, B, H) is the gradient of the hidden states and wh_t the
        stacked (2, 4H, H) transposes of Wh, which carry dz to the step before.
        """
        _, t_max, b_sz, _ = d_out.shape
        hd = self.hidden_dim
        tanh_c = np.tanh(cells)
        c_prev = _previous(np.where(step_valid, cells, 0))
        dz = np.empty_like(acts)
        dh_carry = np.zeros((2, b_sz, hd), dtype=self.dtype)
        dc_carry = np.zeros_like(dh_carry)
        for k in reversed(range(t_max)):
            m = step_valid[:, k]
            i, f, g, o = (acts[:, k, :, n * hd : (n + 1) * hd] for n in range(4))
            tc = tanh_c[:, k]
            dh_new = np.where(m, d_out[:, k] + dh_carry, 0)
            dc_new = np.where(m, dc_carry, 0) + dh_new * o * (1.0 - tc * tc)
            dc_carry = dc_new * f
            dz_k = dz[:, k]
            dz_k[..., :hd] = dc_new * g * i * (1.0 - i)
            dz_k[..., hd : 2 * hd] = dc_new * c_prev[:, k] * f * (1.0 - f)
            dz_k[..., 2 * hd : 3 * hd] = dc_new * i * (1.0 - g * g)
            dz_k[..., 3 * hd :] = dh_new * tc * o * (1.0 - o)
            dh_carry = np.matmul(dz_k, wh_t)
        return dz
