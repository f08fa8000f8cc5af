"""Recursive (stochastic-approximation) density estimator, its weighted
closed form, and the nonrecursive Rosenblatt baseline.

The recursive estimator updates a grid of evaluation points per observation:

    f_n(x) = (1 - gamma_n) f_{n-1}(x) + gamma_n h_n^{-d} K((x - X_n) / h_n)

at O(#points) cost independent of n.  With the weight-induced stepsize
``gamma_n = w_n / sum_{k<=n} w_k`` it coincides with the weighted average

    f_n(x) = (sum w_k)^{-1} sum_k w_k h_k^{-d} K((x - X_k) / h_k),

an identity the test suite certifies to 1e-12.

Every estimate after the whole sample, of one sample or of a batch of
replications, is one weighted kernel sum ``sum_k c_k h_k^-d K((x - X_k) / h_k)``
(:func:`_kernel_sum`, chunked under :data:`SCALAR_BUDGET`); the estimators
differ only in ``(c_k, h_k)``.  :func:`recursion_coefficients` builds the
recursion's and :func:`rosenblatt_coefficients` the baseline's, once for every
caller, the exact oracle in :mod:`sakde.mc` included.  The sum is one fused
product-Gaussian evaluation, and :meth:`RecursiveEstimator.update_many` runs
on it too, absorbing blocks of :data:`~sakde.sequences.STREAM_BLOCK` rows.
"""

from __future__ import annotations

import itertools
import math
from typing import Tuple

import numpy as np

from sakde.kernels import Kernel, gaussian_kernel, gaussian_norm
from sakde.sequences import (STREAM_BLOCK, BandwidthPlan, SequencePlan, StepsizePlan, floats,
                             pi_product, suffix_products)

# the package's one memory budget, in float64 scalars (16 MB) per temporary:
# a kernel-evaluation chunk (batch x observations x points x dim, at least one
# observation) and a Monte Carlo sample block (replications x n x dim, at
# least one replication) stay within it
SCALAR_BUDGET = 1 << 21


def _as_points(points, dim) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None] if dim == 1 else pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"points must have shape (m, {dim})")
    if not np.isfinite(pts).all():
        raise ValueError("points and observations must be finite")
    return pts


def _gaussian_norm(kernel: Kernel) -> float:
    """``(2 pi)^(-d/2)`` of the product Gaussian ``kernel``; the kernel sums and
    :class:`RecursiveEstimator` take no other kernel."""
    if kernel.name != gaussian_kernel(kernel.dim).name:
        raise ValueError("the kernel sums take the product Gaussian kernel only")
    return gaussian_norm(kernel.dim)


def _kernel_sum(kernel: Kernel, c: np.ndarray, h: np.ndarray,
                sample: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``sum_k c_k h_k^-d K((p - X_k) / h_k)`` at every point ``p`` of ``points`` (m, d)
    for a ``sample`` of shape (..., n, d) and ``c``, ``h`` of shape (n,); returns (..., m).
    Each chunk's kernel matrix is built in place in one (..., m, chunk) buffer,
    adding the squared scaled differences in one coordinate at a time."""
    *batch, n, d = sample.shape
    norm = _gaussian_norm(kernel)
    coef = c / h**d
    rows = math.prod(batch) * len(points)
    chunk = max(1, SCALAR_BUDGET // (rows * d))
    kbuf = np.empty(rows * min(chunk, n))
    tbuf = np.empty_like(kbuf) if d > 1 else kbuf
    out = np.zeros((*batch, len(points)))
    for lo in range(0, n, chunk):
        sl = slice(lo, lo + chunk)
        x = sample[..., None, sl, :]
        shape = (*batch, len(points), x.shape[-2])
        k, t = (buf[:math.prod(shape)].reshape(shape) for buf in (kbuf, tbuf))
        for j in range(d):
            s = t if j else k
            np.subtract(points[:, j, None], x[..., j], out=s)
            s /= h[sl]
            s *= s
            if j:
                k += s
        k *= -0.5
        np.exp(k, out=k)
        k *= norm
        out += (k.reshape(-1, shape[-1]) @ coef[sl]).reshape(out.shape)
    return out


class RecursiveEstimator:
    """Streaming estimator state over a fixed grid of evaluation points.

    One instance is owned by one updater at a time; distinct instances are
    independent.  ``values`` holds the current estimate per grid point.
    """

    def __init__(self, kernel: Kernel, step: StepsizePlan, bandwidth: BandwidthPlan,
                 points, f0=0.0):
        _gaussian_norm(kernel)  # rejects another kernel before any state exists
        self.kernel = kernel
        self.step = step
        self.bandwidth = bandwidth
        self.points = _as_points(points, kernel.dim)
        # raises ValueError unless f0 broadcasts to one value per point
        self.values = np.array(np.broadcast_to(f0, self.points.shape[:1]), dtype=float)
        self.n = 0
        self._gammas = step.gamma_stream()
        self._bandwidths = floats(bandwidth.seq.blocks(block=STREAM_BLOCK))

    def update(self, x_obs) -> None:
        """Absorb one observation; a non-finite one raises ValueError, changing nothing."""
        x_obs = np.asarray(x_obs, dtype=float).reshape(self.kernel.dim)
        if not all(map(math.isfinite, x_obs.tolist())):
            raise ValueError("observations must be finite")
        self.n += 1
        g, h = next(self._gammas), next(self._bandwidths)
        z = (self.points - x_obs) / h
        self.values = (1.0 - g) * self.values + g * self.kernel.fn(z) / h**self.kernel.dim

    def update_many(self, sample) -> None:
        """Absorb the rows of ``sample`` in order, once all are checked to be finite:
        per block of up to :data:`STREAM_BLOCK` rows, with the gains and bandwidths
        :meth:`update` would take, ``f <- Pi_b f + sum_k c_k h_k^-d K((x - X_k)/h_k)``,
        ``c_k = gamma_k prod_{j>k} (1 - gamma_j)``, the recursion expanded exactly."""
        sample = _as_points(sample, self.kernel.dim)
        for lo in range(0, len(sample), STREAM_BLOCK):
            block = sample[lo:lo + STREAM_BLOCK]
            g = np.fromiter(itertools.islice(self._gammas, len(block)), float, len(block))
            h = np.fromiter(itertools.islice(self._bandwidths, len(block)), float, len(block))
            tail = suffix_products(1.0 - g)
            self.values = (tail[0] * (1.0 - g[0]) * self.values
                           + _kernel_sum(self.kernel, g * tail, h, block, self.points))
            self.n += len(block)


def recursion_weights(step: StepsizePlan, n: int) -> np.ndarray:
    """Coefficients ``c_k = gamma_k * prod_{j=k+1..n} (1 - gamma_j)``, k = 1..n.

    These expand the recursion as ``f_n = sum_k c_k Z_k + Pi_n f_0``.
    """
    g = step.gamma_values(n)
    return g * suffix_products(1.0 - g)


def recursion_coefficients(step: StepsizePlan, bandwidth: BandwidthPlan,
                           n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The recursion's ``(c_k, h_k)``, k = 1..n: :func:`recursion_weights` and ``h_1..h_n``."""
    return recursion_weights(step, n), bandwidth.value(np.arange(1, n + 1))


def rosenblatt_coefficients(n: int, h: float) -> Tuple[np.ndarray, np.ndarray]:
    """The baseline's ``(c_k, h_k) = (1/n, h)``, k = 1..n."""
    return np.full(n, 1.0 / n), np.full(n, float(h))


def recursive_at_points(kernel: Kernel, step: StepsizePlan, bandwidth: BandwidthPlan,
                        sample, points, f0=0.0) -> np.ndarray:
    """Closed-form evaluation of the recursion after the whole sample.

    Equals driving :class:`RecursiveEstimator` over the sample, up to
    accumulation round-off.
    """
    sample = _as_points(sample, kernel.dim)
    n = sample.shape[0]
    out = _kernel_sum(kernel, *recursion_coefficients(step, bandwidth, n), sample,
                      _as_points(points, kernel.dim))
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
    return _kernel_sum(kernel, w / w.sum(), bandwidth.value(k), sample,
                       _as_points(points, kernel.dim))


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
            h = self.bandwidth.value(self.n)
        return _kernel_sum(kernel, *rosenblatt_coefficients(self.n, h), self.sample,
                           _as_points(points, self.dim))


def recursive_batch(kernel: Kernel, step: StepsizePlan, bandwidth: BandwidthPlan,
                    samples: np.ndarray, x) -> np.ndarray:
    """Recursive estimate at one point ``x`` for a batch of replication samples.

    ``samples`` has shape (reps, n, dim); returns shape (reps,).  Matches the
    streaming recursion (certified in the tests) but vectorises across
    replications for the Monte Carlo driver.
    """
    c, h = recursion_coefficients(step, bandwidth, samples.shape[1])
    return _kernel_sum(kernel, c, h, samples, np.reshape(x, (1, kernel.dim)))[:, 0]


def rosenblatt_batch(kernel: Kernel, bandwidth: BandwidthPlan,
                     samples: np.ndarray, x) -> np.ndarray:
    """Rosenblatt estimate at one point ``x`` for a batch of replication samples."""
    n = samples.shape[1]
    c, h = rosenblatt_coefficients(n, bandwidth.value(n))
    return _kernel_sum(kernel, c, h, samples, np.reshape(x, (1, kernel.dim)))[:, 0]
