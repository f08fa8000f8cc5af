"""Recursive (stochastic-approximation) density estimator, its weighted
closed form, and the nonrecursive Rosenblatt baseline.

The recursive estimator updates a grid of evaluation points per observation:

    f_n(x) = (1 - gamma_n) f_{n-1}(x) + gamma_n h_n^{-d} K((x - X_n) / h_n)

at O(#points) cost independent of n.  With the weight-induced stepsize
``gamma_n = w_n / sum_{k<=n} w_k`` it coincides with the weighted average

    f_n(x) = (sum w_k)^{-1} sum_k w_k h_k^{-d} K((x - X_k) / h_k),

an identity the test suite certifies to 1e-12.

Every estimate after the whole sample, of one sample or of a batch of
replications, is one weighted kernel sum ``sum_k c_k K((x - X_k) / h_k)``
(:func:`_kernel_sum`, chunked under a scalar memory budget); the estimators
differ only in ``c_k`` and ``h_k``.
"""

from __future__ import annotations

import math

import numpy as np

from sakde.kernels import Kernel
from sakde.sequences import BandwidthPlan, SequencePlan, StepsizePlan, pi_product

# scalars (batch x observations x points x dim) per kernel-evaluation chunk,
# 16 MB per temporary; a chunk holds at least one observation
_KERNEL_BUDGET = 1 << 21


def _as_points(points, dim) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None] if dim == 1 else pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"points must have shape (m, {dim})")
    if not np.isfinite(pts).all():
        raise ValueError("points and observations must be finite")
    return pts


def _kernel_sum(kernel: Kernel, coef: np.ndarray, h: np.ndarray,
                sample: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``sum_k coef_k K((p - X_k) / h_k)`` at every point ``p`` of ``points`` (m, d) for a
    ``sample`` of shape (..., n, d) and ``coef``, ``h`` of shape (n,); returns (..., m)."""
    *batch, n, d = sample.shape
    chunk = max(1, _KERNEL_BUDGET // (math.prod(batch) * len(points) * d))
    out = np.zeros((*batch, len(points)))
    for lo in range(0, n, chunk):
        sl = slice(lo, lo + chunk)
        k = kernel.fn((points[:, None, :] - sample[..., None, sl, :]) / h[sl, None])
        out += (k.reshape(-1, k.shape[-1]) @ coef[sl]).reshape(out.shape)
    return out


class RecursiveEstimator:
    """Streaming estimator state over a fixed grid of evaluation points.

    One instance is owned by one updater at a time; distinct instances are
    independent.  ``values`` holds the current estimate per grid point.
    """

    def __init__(self, kernel: Kernel, step: StepsizePlan, bandwidth: BandwidthPlan,
                 points, f0=0.0):
        self.kernel = kernel
        self.step = step
        self.bandwidth = bandwidth
        self.points = _as_points(points, kernel.dim)
        # raises ValueError unless f0 broadcasts to one value per point
        self.values = np.array(np.broadcast_to(f0, self.points.shape[:1]), dtype=float)
        self.n = 0
        self._gammas = step.gamma_stream()

    def update(self, x_obs) -> None:
        """Absorb one observation; a non-finite one raises ValueError, changing nothing."""
        x_obs = np.asarray(x_obs, dtype=float).reshape(self.kernel.dim)
        if not all(map(math.isfinite, x_obs.tolist())):
            raise ValueError("observations must be finite")
        self.n += 1
        g = next(self._gammas)
        h = self.bandwidth.value(self.n)
        z = (self.points - x_obs) / h
        self.values = (1.0 - g) * self.values + g * self.kernel.fn(z) / h**self.kernel.dim

    def update_many(self, sample) -> None:
        """Absorb the rows of ``sample`` in order, once all are checked to be finite."""
        for row in _as_points(sample, self.kernel.dim):
            self.update(row)


def recursion_weights(step: StepsizePlan, n: int) -> np.ndarray:
    """Coefficients ``c_k = gamma_k * prod_{j=k+1..n} (1 - gamma_j)``, k = 1..n.

    These expand the recursion as ``f_n = sum_k c_k Z_k + Pi_n f_0``.
    """
    g = step.gamma_values(n)
    one_minus = 1.0 - g
    rev = np.cumprod(one_minus[::-1])[::-1]
    tail = np.empty_like(rev)
    tail[:-1] = rev[1:]
    tail[-1] = 1.0
    return g * tail


def recursive_at_points(kernel: Kernel, step: StepsizePlan, bandwidth: BandwidthPlan,
                        sample, points, f0=0.0) -> np.ndarray:
    """Closed-form evaluation of the recursion after the whole sample.

    Equals driving :class:`RecursiveEstimator` over the sample, up to
    accumulation round-off.
    """
    sample = _as_points(sample, kernel.dim)
    n = sample.shape[0]
    h = bandwidth.value(np.arange(1, n + 1))
    coef = recursion_weights(step, n) / h**kernel.dim
    out = _kernel_sum(kernel, coef, h, sample, _as_points(points, kernel.dim))
    return out + pi_product(step, n) * np.broadcast_to(f0, out.shape)


def weighted_closed_form(kernel: Kernel, weights: SequencePlan, bandwidth: BandwidthPlan,
                         sample, points) -> np.ndarray:
    """Weighted-average estimator ``(sum w_k)^{-1} sum_k w_k h_k^{-d} K((x - X_k)/h_k)``."""
    sample = _as_points(sample, kernel.dim)
    n = sample.shape[0]
    if n == 0:
        raise ValueError("sample must be nonempty")
    k = np.arange(1, n + 1)
    w = weights.value(k)
    h = bandwidth.value(k)
    out = _kernel_sum(kernel, w / h**kernel.dim, h, sample, _as_points(points, kernel.dim))
    return out / w.sum()


class RosenblattEstimator:
    """Nonrecursive baseline: one bandwidth ``h_n`` shared by all n observations.

    The sample is stored (O(n) memory) because ``h_n`` depends on the final
    sample size.
    """

    def __init__(self, dim: int, bandwidth: BandwidthPlan, sample):
        self.dim = dim
        self.bandwidth = bandwidth
        self.sample = _as_points(sample, dim)
        if self.sample.shape[0] == 0:
            raise ValueError("sample must be nonempty")

    @property
    def n(self) -> int:
        return self.sample.shape[0]

    def eval(self, kernel: Kernel, points, h: float | None = None) -> np.ndarray:
        """Evaluate at the given points; ``h`` defaults to the plan at the stored n."""
        if kernel.dim != self.dim:
            raise ValueError("kernel dimension mismatch")
        if h is None:
            h = float(self.bandwidth.value(self.n))
        coef = np.full(self.n, 1.0 / (self.n * h**self.dim))
        return _kernel_sum(kernel, coef, np.full(self.n, h), self.sample,
                           _as_points(points, self.dim))


def recursive_batch(kernel: Kernel, step: StepsizePlan, bandwidth: BandwidthPlan,
                    samples: np.ndarray, x) -> np.ndarray:
    """Recursive estimate at one point ``x`` for a batch of replication samples.

    ``samples`` has shape (reps, n, dim); returns shape (reps,).  Matches the
    streaming recursion (certified in the tests) but vectorises across
    replications for the Monte Carlo driver.
    """
    n = samples.shape[1]
    h = bandwidth.value(np.arange(1, n + 1))
    coef = recursion_weights(step, n) / h**kernel.dim
    return _kernel_sum(kernel, coef, h, samples, np.reshape(x, (1, kernel.dim)))[:, 0]


def rosenblatt_batch(kernel: Kernel, bandwidth: BandwidthPlan,
                     samples: np.ndarray, x) -> np.ndarray:
    """Rosenblatt estimate at one point ``x`` for a batch of replication samples."""
    n = samples.shape[1]
    h = float(bandwidth.value(n))
    coef = np.full(n, 1.0 / (n * h**kernel.dim))
    return _kernel_sum(kernel, coef, np.full(n, h), samples, np.reshape(x, (1, kernel.dim)))[:, 0]
