"""Two-layer bi-directional LSTM with hand-derived backpropagation.

Gate layout along the last axis is (input, forget, cell, output). States are
zero-initialized; the forget-gate bias starts at 1.0 and all weights are
uniform in +-1/sqrt(hidden_dim). Padded timesteps are excluded from the
recurrence by selection (np.where), and no product reads a padded cell, so
outputs and gradients are exactly independent of padded values.

Each layer packs its valid (row, step) cells into one (N_valid, K) block, as
pack_padded_sequence does, and takes their input projections x Wx before its
step loop (Appleyard et al., arXiv:1604.01946): forward over the whole
block, infer row by row. The loop (_recurrence) runs both directions on a
(2, B, .) stack, step k advancing fwd at t = k and bwd at t = T-1-k, with
gates (x Wx + h Wh) + b. backward runs one reverse step loop over both
directions, then forms the weight gradients over the packed cells, and the
input gradient unless the caller has no use for it (every encoder frozen).
"""

from __future__ import annotations

import numpy as np

from .batching import SequenceBatch
from .layers import assert_finite, rowwise_matmul, sigmoid

DIRECTIONS = ("fwd", "bwd")
# Valid cells per weight-gradient product: at the shipped width a product over
# more (about 480 at K = 33) is split across OpenBLAS threads, and its bits
# change with their count. The blocks add up in a fixed order.
CELL_BLOCK = 256
# An input projection over fewer packed cells takes one vector-matrix product
# per cell: at K >= 256, OpenBLAS's GEMM over 2 or 3 rows is slower than that.
GEMM_MIN_ROWS = 4


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

    def _weights(self, layer: int):
        """Wx, Wh and b of one layer, each a [fwd, bwd] list."""
        return ([self.params[f"lstm.l{layer}_{direction}_{name}"] for direction in DIRECTIONS]
                for name in ("Wx", "Wh", "b"))

    def forward(self, batch: SequenceBatch):
        """Training forward: returns (output, cache); cache is consumed by
        backward()."""
        return self._layers(batch, per_row=False)

    def infer(self, batch: SequenceBatch) -> np.ndarray:
        """Inference forward: forward()'s output, with the cache dropped.

        Each row has the bits of forward() on that row alone, whatever else
        shares the batch: its input projection is the one forward() takes for
        a batch of that row alone (one GEMM over the row's valid steps, or one
        product per step below GEMM_MIN_ROWS steps), and the recurrent
        products are taken one row at a time (rowwise_matmul).
        """
        return self._layers(batch, per_row=True)[0]

    def _layers(self, batch: SequenceBatch, *, per_row: bool):
        """Both layers over the batch: returns (output, cache). The input
        projections are one product per row (per_row) or one over all valid
        cells; the recurrent products one per row or one GEMM per step."""
        b_sz, t_max, dim = batch.data.shape
        if dim != self.input_dim:
            raise ValueError(f"batch feature dim {dim} does not match "
                             f"lstm input dim {self.input_dim}")
        rows, ts = np.nonzero(batch.mask)  # the valid cells, row by row
        at = (ts, t_max - 1 - ts)  # each cell's step in fwd and in bwd order
        step_valid = _step_order(batch.mask[:, :, None], batch.mask[:, :, None])  # (2, T, B, 1)
        ends = np.cumsum(batch.lengths).tolist()
        spans = list(zip([0, *ends], ends)) if per_row else [(0, len(rows))]
        x, layer_caches = batch.data, []
        for layer in range(self.num_layers):
            wx, wh, bias = self._weights(layer)
            x_valid = x[rows, ts].astype(self.dtype, copy=False)  # (N_valid, K)
            xw = np.zeros((2, t_max, b_sz, 4 * self.hidden_dim), dtype=self.dtype)
            for n, w in enumerate(wx):
                xw[n, at[n], rows] = np.concatenate([
                    x_valid[a:b] @ w if b - a >= GEMM_MIN_ROWS else rowwise_matmul(x_valid[a:b], w)
                    for a, b in spans])
            wh, bias = np.stack(wh), np.stack(bias)[:, None]  # (2, H, 4H), (2, 1, 4H)
            steps = (self._recurrence(xw, step_valid, wh[:, None], bias, rowwise_matmul)
                     if per_row else self._recurrence(xw, step_valid, wh, bias, np.matmul))
            layer_caches.append((x_valid, *steps))
            x = _time_order(steps[0])
            assert_finite(f"lstm layer {layer} output", x)
        return x, (layer_caches, step_valid, (rows, at))

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
        layer_caches, step_valid, (rows, at) = cache
        hd = self.hidden_dim
        d = np.where(step_valid[0].swapaxes(0, 1), grad_out, 0).astype(self.dtype, copy=False)
        for layer in reversed(range(self.num_layers)):
            x_valid, out, acts, cell_states = layer_caches[layer]
            wx, wh, _bias = self._weights(layer)
            dz = self._recurrence_backward(_step_order(d[..., :hd], d[..., hd:]), step_valid,
                                           acts, cell_states, np.stack(wh).swapaxes(1, 2))
            h_prev = _previous(out)
            dz_valid = [dz[n, at[n], rows] for n in range(2)]  # (N_valid, 4H) per direction
            for n, direction in enumerate(DIRECTIONS):
                prefix = f"lstm.l{layer}_{direction}_"
                h_valid = h_prev[n, at[n], rows]
                for start in range(0, len(rows), CELL_BLOCK):
                    block = slice(start, start + CELL_BLOCK)
                    grads[prefix + "Wx"] += x_valid[block].T @ dz_valid[n][block]
                    grads[prefix + "Wh"] += h_valid[block].T @ dz_valid[n][block]
                grads[prefix + "b"] += dz_valid[n].sum(axis=0)
            if layer == 0 and not input_grad:
                return None
            d = np.zeros(d.shape[:2] + x_valid.shape[1:], dtype=self.dtype)
            d[rows, at[0]] = dz_valid[0] @ wx[0].T + dz_valid[1] @ wx[1].T
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
