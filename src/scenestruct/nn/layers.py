"""Dense layer, sigmoid and dropout primitives."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError


def assert_finite(name: str, x: np.ndarray) -> None:
    """Raise if an activation or gradient contains NaN or Inf."""
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(f"non-finite values in {name}")


def sigmoid(x):
    """Numerically stable logistic function 1 / (1 + exp(-x)).

    Accepts scalars or arrays; saturates smoothly without overflow for
    large |x|. Returns a Python float for scalar input.
    """
    arr = np.asarray(x)
    if arr.dtype.kind != "f":
        arr = arr.astype(np.float64)
    # exp(-|x|) is always in (0, 1], so neither branch can overflow
    z = np.exp(-np.abs(arr))
    out = np.where(arr >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    if arr.ndim == 0:
        return float(out)
    return out


def dense_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """y = x @ W + b with b broadcast per row."""
    if x.ndim != 2 or weights.ndim != 2:
        raise ValueError(
            f"dense_forward expects 2-d arrays, got x{x.shape} and W{weights.shape}"
        )
    if x.shape[1] != weights.shape[0]:
        raise ValueError(
            f"dense_forward shape mismatch: x has shape {x.shape}, "
            f"weights have shape {weights.shape}"
        )
    if bias.shape != (weights.shape[1],):
        raise ValueError(
            f"dense_forward bias shape {bias.shape} does not match "
            f"weights shape {weights.shape}"
        )
    return x @ weights + bias


def dense_backward(x, weights, grad_y):
    """Gradients of dense_forward: returns (grad_x, grad_w, grad_b)."""
    return grad_y @ weights.T, x.T @ grad_y, grad_y.sum(axis=0)


class Dense:
    """Affine map y = x W + b with gradient accumulation, zero-initialised:
    every head starts at the sigmoid midpoint (all outputs 0.5)."""

    def __init__(self, in_dim, out_dim, *, dtype=np.float32):
        self.W = np.zeros((in_dim, out_dim), dtype=dtype)
        self.b = np.zeros(out_dim, dtype=dtype)
        self.gW = np.zeros_like(self.W)
        self.gb = np.zeros_like(self.b)

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = dense_forward(x, self.W, self.b)
        assert_finite("dense output", y)
        return y

    def backward(self, x: np.ndarray, grad_y: np.ndarray) -> np.ndarray:
        grad_x, gw, gb = dense_backward(x, self.W, grad_y)
        self.gW += gw
        self.gb += gb
        return grad_x

    def params(self) -> dict:
        return {"W": self.W, "b": self.b}

    def grads(self) -> dict:
        return {"W": self.gW, "b": self.gb}

    def zero_grads(self) -> None:
        self.gW[...] = 0
        self.gb[...] = 0


def dropout(x: np.ndarray, rate: float, train: bool, rng=None):
    """Inverted dropout.

    Returns (output, scaled_mask). Eval mode and rate 0 are the identity
    (mask is None); in train mode kept units are scaled by 1/(1-rate) so
    the expected value is preserved. Backward is output_grad * scaled_mask.
    """
    if rate < 0.0 or rate >= 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x, None
    if rng is None:
        raise ValueError("train-mode dropout requires an rng")
    keep = rng.random(x.shape) >= rate
    scaled_mask = keep.astype(x.dtype) / x.dtype.type(1.0 - rate)
    return x * scaled_mask, scaled_mask
