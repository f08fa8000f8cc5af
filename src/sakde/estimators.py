"""Recursive (stochastic-approximation) density estimator, its weighted
closed form, and the nonrecursive Rosenblatt baseline.

The recursive estimator updates a grid of evaluation points per observation:

    f_n(x) = (1 - gamma_n) f_{n-1}(x) + gamma_n h_n^{-d} K((x - X_n) / h_n)

at O(#points) cost independent of n.  With the weight-induced stepsize
``gamma_n = w_n / sum_{k<=n} w_k`` it coincides with the weighted average

    f_n(x) = (sum w_k)^{-1} sum_k w_k h_k^{-d} K((x - X_k) / h_k),

an identity the test suite certifies to 1e-12.

Every estimate is built from one weighted kernel sum
``sum_k c_k h_k^-d K((x - X_k) / h_k)`` (:func:`_kernel_sum`, chunked under
:data:`SCALAR_BUDGET`); the estimators differ only in ``(c_k, h_k)``.  The
recursion is expanded in one place, :func:`_recursion`, one run of at most
:data:`SCALAR_BUDGET` rows at a time, and :meth:`RecursiveEstimator.update_many`,
:func:`recursive_at_points` and the Monte Carlo's :func:`recursive_batch` run it;
the baseline's ``(c_k, h_k)`` are :func:`rosenblatt_coefficients`.  The sum
reads d from the shapes.  In general it is one fused product-Gaussian
evaluation, its exponent floored at :data:`~sakde.kernels.EXP_FLOOR` as in
:func:`~sakde.kernels.product_gaussian`, bit for bit: with positive ``c_k`` an
estimate is never exactly 0 and moves by at most
``L = sum_k c_k h_k^-d (2 pi)^(-d/2) e^-700``.  On a tensor grid in d >= 2,
detected from the points, the kernel factors by coordinate and the sum is one
matrix product of per-axis factors; it stays within L of the fused sum, up to
rounding of about |exponent| ulp, and never below L.  The streaming
estimator keeps its estimate, step count and one weight sum, and takes each
step's gain and bandwidth from the step's index.  Only the public entry points
that take a :class:`~sakde.kernels.Kernel` see one: they reject any kernel but
the product Gaussian, by name, and read d from it.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from sakde.kernels import (EXP_FLOOR, Kernel, check_dim, gaussian_kernel, gaussian_norm,
                           product_gaussian)
from sakde.sequences import BandwidthPlan, SequencePlan, StepsizePlan, suffix_products

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


def _as_sample(sample, dim) -> np.ndarray:
    """A sample as ``(n, dim)`` observations, with n at least 1."""
    obs = _as_points(sample, dim)
    if obs.shape[0] == 0:
        raise ValueError("sample must be nonempty")
    return obs


def _initial_values(f0, m: int) -> np.ndarray:
    """``f0`` as one finite value per point of an m-point grid, or ValueError."""
    values = np.array(np.broadcast_to(f0, (m,)), dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("f0 must be finite")
    return values


def _gaussian_dim(kernel: Kernel) -> int:
    """``kernel.dim``, once ``kernel`` is known to be the product Gaussian: the
    entry points that take a kernel take no other."""
    if kernel.name != gaussian_kernel(kernel.dim).name:
        raise ValueError("the kernel sums take the product Gaussian kernel only")
    return kernel.dim


def _grid_axes(points: np.ndarray):
    """The axes ``(a_1, ..., a_d)`` whose tensor grid, flattened in
    ``meshgrid(indexing="ij")`` order, is ``points`` (m, d) exactly, if
    ``sum_j len(a_j) < m``; else None.  Each axis is read off the first block
    of the one before it, and the grid they span is compared with every point."""
    m, d = points.shape
    axes, block = [], m
    for j in range(d):
        col = points[:block, j]
        run = int(np.argmax(col != col[0])) or block  # the first change, if any
        if block % run:
            return None
        axes.append(points[:block:run, j])
        block = run
    shape = tuple(map(len, axes))
    if block != 1 or sum(shape) >= m:
        return None
    for j, a in enumerate(axes):
        if not (points[:, j].reshape(shape) == a.reshape(a.shape + (1,) * (d - 1 - j))).all():
            return None
    return axes


def _grid_sum(coef: np.ndarray, h: np.ndarray, sample: np.ndarray, axes) -> np.ndarray:
    """``sum_k coef_k prod_j exp(max(-(a_j[i_j] - X_kj)^2 / (2 h_k^2), EXP_FLOOR))``
    over the tensor grid of ``axes``, flattened in ``meshgrid(indexing="ij")``
    order, for a ``sample`` (n, d): per chunk of observations, one factor
    ``E_j`` (len(a_j), chunk) per axis, the row-wise product of all but the
    last scaled by ``coef``, and one matrix product with the last.  The result
    is floored at ``sum_k coef_k e^-700``, the least the fused sum can be, so
    no estimate is 0 where the factors' products underflow."""
    shape = [len(a) for a in axes]
    head = math.prod(shape[:-1])
    chunk = max(1, SCALAR_BUDGET // max(head, shape[-1]))
    out = np.zeros((head, shape[-1]))
    for lo in range(0, len(sample), chunk):
        sl = slice(lo, lo + chunk)
        factors = []
        for j, a in enumerate(axes):
            e = np.subtract.outer(a, sample[sl, j])
            e /= h[sl]
            e *= e
            e *= -0.5
            np.maximum(e, EXP_FLOOR, out=e)
            factors.append(np.exp(e, out=e))
        left = factors[0]
        left *= coef[sl]
        for e in factors[1:-1]:
            left = (left[:, None, :] * e).reshape(-1, e.shape[-1])
        out += left @ factors[-1].T
    return np.maximum(out.reshape(-1), math.exp(EXP_FLOOR) * float(np.sum(coef)))


def _kernel_sum(c: np.ndarray, h: np.ndarray, sample: np.ndarray,
                points: np.ndarray) -> np.ndarray:
    """``sum_k c_k h_k^-d K((p - X_k) / h_k)`` for the product Gaussian K at every
    point ``p`` of ``points`` (m, d), for a ``sample`` of shape (..., n, d) and
    ``c``, ``h`` of shape (n,); returns (..., m).

    Unbatched points in d >= 2 that form a tensor grid (:func:`_grid_axes`)
    take the separable sum :func:`_grid_sum`, (m_1 + ... + m_d) n exponentials
    and one matrix product.  It agrees with the fused sum within
    ``L = sum_k c_k h_k^-d (2 pi)^(-d/2) e^-700`` plus rounding of about
    |exponent| ulp, since ``exp(a) exp(b)`` is not ``exp(a + b)``, and never
    falls below L.  Every other sum is fused: each chunk's kernel matrix is
    built in place in one (..., m, chunk) buffer, adding the squared scaled
    differences in one coordinate at a time, and its exponent floored at
    :data:`~sakde.kernels.EXP_FLOOR` as in ``product_gaussian``, bit for bit."""
    *batch, n, d = sample.shape
    norm = gaussian_norm(d)
    coef = c / h**d
    axes = None if batch or d < 2 or len(points) <= d else _grid_axes(points)
    if axes is not None:
        return _grid_sum(norm * coef, h, sample, axes)
    rows = math.prod(batch) * len(points)
    chunk = max(1, SCALAR_BUDGET // max(1, rows * d))
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
        np.maximum(k, EXP_FLOOR, out=k)
        np.exp(k, out=k)
        k *= norm
        out += (k.reshape(-1, shape[-1]) @ coef[sl]).reshape(out.shape)
    return out


def _recursion(step: StepsizePlan, bandwidth: BandwidthPlan, samples: np.ndarray,
               points: np.ndarray, values: np.ndarray, n: int, wsum: float):
    """The recursion from ``values`` (..., m) after ``n`` steps and weight sum
    ``wsum`` over the rows of ``samples`` (..., count, d), per run of at most
    :data:`SCALAR_BUDGET` rows: ``f <- Pi_run f + sum_k c_k h_k^-d K((x - X_k)/h_k)``,
    ``c_k = gamma_k prod_{j>k} (1 - gamma_j)`` in the run.  Returns ``(values, n, wsum)``."""
    for lo in range(0, samples.shape[-2], SCALAR_BUDGET):
        run = samples[..., lo:lo + SCALAR_BUDGET, :]
        count = run.shape[-2]
        g, wsum = step.gains(np.arange(n + 1, n + count + 1), wsum)
        coef = suffix_products(1.0 - g)
        start = coef[0] * (1.0 - g[0])
        coef *= g
        del g  # freed, as the step indices are, before h: the sum holds no n-long array but (c, h)
        h = bandwidth.value(np.arange(n + 1, n + count + 1))
        values = start * values + _kernel_sum(coef, h, run, points)
        n += count
    return values, n, wsum


class RecursiveEstimator:
    """Streaming estimator state over a fixed grid of evaluation points.

    One instance is owned by one updater at a time; distinct instances are
    independent.  ``values`` holds the current estimate per grid point.
    """

    def __init__(self, kernel: Kernel, step: StepsizePlan, bandwidth: BandwidthPlan,
                 points, f0=0.0):
        self.dim = _gaussian_dim(kernel)  # rejects another kernel before any state exists
        self.step = step
        self.bandwidth = bandwidth
        self.points = _as_points(points, self.dim)
        self.values = _initial_values(f0, len(self.points))
        self.n = 0
        self._wsum = 0.0  # the weight sum through step n of a weight-induced stepsize

    def update(self, x_obs) -> None:
        """Absorb one observation; a non-finite one raises ValueError, changing nothing."""
        x_obs = np.asarray(x_obs, dtype=float).reshape(self.dim)
        if not all(map(math.isfinite, x_obs.tolist())):
            raise ValueError("observations must be finite")
        g, wsum = self.step.gains(self.n + 1, self._wsum)
        h = self.bandwidth.value(self.n + 1)
        z = (self.points - x_obs) / h
        self.values = (1.0 - g) * self.values + g * product_gaussian(z) / h**self.dim
        self.n, self._wsum = self.n + 1, wsum

    def update_many(self, sample) -> None:
        """Absorb the rows of ``sample`` in order, once all are checked to be finite,
        with the gains and bandwidths :meth:`update` would take, one run at a time
        (:func:`_recursion`); the state changes only at the end."""
        self.values, self.n, self._wsum = _recursion(
            self.step, self.bandwidth, _as_points(sample, self.dim), self.points,
            self.values, self.n, self._wsum)


def recursion_weights(step: StepsizePlan, n: int) -> np.ndarray:
    """Coefficients ``c_k = gamma_k * prod_{j=k+1..n} (1 - gamma_j)``, k = 1..n.

    These expand the recursion as ``f_n = sum_k c_k Z_k + Pi_n f_0``.
    """
    g = step.gamma_values(n)
    return g * suffix_products(1.0 - g)


def rosenblatt_coefficients(n: int, h: float) -> Tuple[np.ndarray, np.ndarray]:
    """The baseline's ``(c_k, h_k) = (1/n, h)``, k = 1..n."""
    return np.full(n, 1.0 / n), np.full(n, float(h))


def recursive_at_points(kernel: Kernel, step: StepsizePlan, bandwidth: BandwidthPlan,
                        sample, points, f0=0.0) -> np.ndarray:
    """Closed-form evaluation of the recursion after the whole sample: the
    expansion :meth:`RecursiveEstimator.update_many` runs, so it equals a fresh
    estimator's ``update_many`` over the sample bit for bit."""
    dim = _gaussian_dim(kernel)
    sample, points = _as_sample(sample, dim), _as_points(points, dim)
    return _recursion(step, bandwidth, sample, points, _initial_values(f0, len(points)), 0, 0.0)[0]


def weighted_closed_form(kernel: Kernel, weights: SequencePlan, bandwidth: BandwidthPlan,
                         sample, points) -> np.ndarray:
    """Weighted-average estimator ``(sum w_k)^{-1} sum_k w_k h_k^{-d} K((x - X_k)/h_k)``."""
    dim = _gaussian_dim(kernel)
    sample = _as_sample(sample, dim)
    n = sample.shape[0]
    k = np.arange(1, n + 1)
    w = weights.value(k)
    return _kernel_sum(w / w.sum(), bandwidth.value(k), sample, _as_points(points, dim))


class RosenblattEstimator:
    """Nonrecursive baseline: one bandwidth ``h_n`` shared by all n observations.

    The sample is stored (O(n) memory) because ``h_n`` depends on the final
    sample size.
    """

    def __init__(self, dim: int, bandwidth: BandwidthPlan, sample):
        self.dim = check_dim(dim)
        self.bandwidth = bandwidth
        self.sample = _as_sample(sample, dim)

    @property
    def n(self) -> int:
        return self.sample.shape[0]

    def eval(self, kernel: Kernel, points) -> np.ndarray:
        """Evaluate at the given points with the plan's bandwidth at the stored n."""
        if _gaussian_dim(kernel) != self.dim:
            raise ValueError("kernel dimension mismatch")
        return _kernel_sum(*rosenblatt_coefficients(self.n, self.bandwidth.value(self.n)),
                           self.sample, _as_points(points, self.dim))


def recursive_batch(step: StepsizePlan, bandwidth: BandwidthPlan,
                    samples: np.ndarray, x) -> np.ndarray:
    """Recursive estimate at one point ``x`` for a batch of replication samples.

    ``samples`` has shape (reps, n, dim); returns shape (reps,): the recursion
    from 0, with a replication axis.
    """
    return _recursion(step, bandwidth, samples, np.reshape(x, (1, samples.shape[-1])),
                      np.zeros((len(samples), 1)), 0, 0.0)[0][:, 0]


def rosenblatt_batch(bandwidth: BandwidthPlan, samples: np.ndarray, x) -> np.ndarray:
    """Rosenblatt estimate at one point ``x`` for a batch of replication samples."""
    n = samples.shape[1]
    c, h = rosenblatt_coefficients(n, bandwidth.value(n))
    return _kernel_sum(c, h, samples, np.reshape(x, (1, samples.shape[-1])))[:, 0]
