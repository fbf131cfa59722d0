"""Adam over dictionaries of parameter arrays."""

from __future__ import annotations

import numpy as np

# Elements per pass of Adam's arithmetic. Each flattened block is updated in
# chunks this long, so the ~16 ufunc passes over a chunk (its gradient,
# moments, step and scratch: ~0.6 MiB in float32) stay in L2 instead of
# streaming the whole block through memory once per pass.
CHUNK = 1 << 15


class Adam:
    """Adam with bias correction; updates parameters in place, all or
    nothing: every gradient and every block's step is checked before any
    parameter changes. A non-finite gradient raises FloatingPointError
    before any state changes; a non-finite step raises it with every
    parameter as it was (the moments may have advanced).

    First and second moment accumulators are zero-initialized with the same
    shapes as the parameters; the step counter increases by one per step.
    Gradients share their parameter's dtype.
    """

    def __init__(self, params, *, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros(p.shape, p.dtype) for name, p in params.items()}
        self.v = {name: np.zeros(p.shape, p.dtype) for name, p in params.items()}

    def step(self, params, grads) -> None:
        for name in params:
            if not np.all(np.isfinite(grads[name])):
                raise FloatingPointError(f"non-finite gradient in parameter block {name!r}")
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        steps = {}  # every block's step, held until all are known finite
        for name, p in params.items():
            steps[name] = np.empty(p.shape, p.dtype)
            if not self._block_step(np.ravel(grads[name]), self.m[name].reshape(-1),
                                    self.v[name].reshape(-1), steps[name].reshape(-1),
                                    bc1, bc2):
                raise FloatingPointError(
                    f"non-finite values in the step of parameter block {name!r}")
        for name, p in params.items():
            p -= steps[name]

    def _block_step(self, g, m, v, step, bc1, bc2) -> bool:
        """Advance one flattened block's moments m, v by its gradient g and
        write its step into step, chunk by chunk; returns False at the first
        chunk whose step is not finite. The arithmetic is, in this order and
        with these Python-float scalars, m += (1-b1)(g-m); v += (1-b2)(g*g-v);
        step = lr*(m/bc1)/(sqrt(v/bc2)+eps): the bits of whole-array Adam."""
        tmp = np.empty(min(CHUNK, g.size), g.dtype)
        for lo in range(0, g.size, CHUNK):
            hi = min(lo + CHUNK, g.size)
            g_c, m_c, v_c, s_c, t_c = g[lo:hi], m[lo:hi], v[lo:hi], step[lo:hi], tmp[: hi - lo]
            np.subtract(g_c, m_c, out=t_c)
            t_c *= 1.0 - self.beta1
            m_c += t_c
            np.multiply(g_c, g_c, out=t_c)
            t_c -= v_c
            t_c *= 1.0 - self.beta2
            v_c += t_c
            with np.errstate(over="ignore", invalid="ignore"):
                np.divide(m_c, bc1, out=s_c)
                s_c *= self.lr
                np.divide(v_c, bc2, out=t_c)
                np.sqrt(t_c, out=t_c)
                t_c += self.eps
                s_c /= t_c
            if not np.isfinite(s_c).all():
                return False
        return True
