"""Recursive (stochastic-approximation) density estimator, its weighted
closed form, and the nonrecursive Rosenblatt baseline.

The recursive estimator updates a grid of evaluation points per observation:

    f_n(x) = (1 - gamma_n) f_{n-1}(x) + gamma_n h_n^{-d} K((x - X_n) / h_n)

at O(#points) cost independent of n.  With the weight-induced stepsize
``gamma_n = w_n / sum_{k<=n} w_k`` it coincides with the weighted average

    f_n(x) = (sum w_k)^{-1} sum_k w_k h_k^{-d} K((x - X_k) / h_k),

an identity the test suite certifies to 1e-12.

Every estimate is one weighted kernel sum ``sum_k c_k h_k^-d K((x - X_k) / h_k)``
in the exponent form of :mod:`sakde.kernels`, the estimators differing only in
``(c_k, h_k)``; the recursion is expanded in one place, :func:`_runs`.  Over
one sample the sum is :func:`_kernel_sum`.  Replication samples are evaluated
at their points by :func:`replication_estimates` alone, for the Monte Carlo
and the batch forms.

The streaming estimator keeps its estimate, step count and one weight sum, and
takes each step's gain and bandwidth from the step's index; its one-step
:meth:`RecursiveEstimator.update` evaluates
:func:`~sakde.kernels.product_gaussian` at ``(x - X_n) / h_n``, an oracle
independent of the fused sum.  Only the public entry points that take a
:class:`~sakde.kernels.Kernel` see one: they reject any kernel but the product
Gaussian, by name, and read d from it.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from sakde.kernels import (EXP_FLOOR, Kernel, check_dim, gaussian_kernel, gaussian_norm,
                           product_gaussian)
from sakde.sequences import (BandwidthPlan, SequencePlan, StepsizePlan, is_integer,
                             suffix_products)

# the package's one memory budget, in float64 scalars (16 MB): a chunk of
# observations of a kernel sum (observations x points x dim) and a block of
# replication samples (replications x n x dim) stay within it.  Neither is held
# whole: _kernel_sum holds one tile of a chunk's squared distances, and the
# Monte Carlo (replication_estimates) one tile of a block's samples and one
# tile of their squared distances to a point
SCALAR_BUDGET = 1 << 21

# the exponent tile of every fused kernel sum, in float64 scalars (512 KB): it
# stays in L2, and its matrix-vector products stay below OpenBLAS's threading
# threshold
_TILE = 1 << 16


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


def _grid_sum(coef: np.ndarray, scale: np.ndarray, sample: np.ndarray, axes) -> np.ndarray:
    """``sum_k coef_k prod_j exp(max((a_j[i_j] - X_kj)^2 scale_k, EXP_FLOOR))`` over the
    tensor grid of ``axes``, flattened in ``meshgrid(indexing="ij")`` order, for a
    ``sample`` (n, d): per chunk of observations, one factor ``E_j`` (len(a_j),
    chunk) per axis, the row-wise product of all but the last scaled by
    ``coef``, and one matrix product with the last.  The result is floored at
    ``L = sum_k coef_k e^-700``, the least the fused sum can be, so no estimate is
    0 where the factors' products underflow.  It stays within L of the fused sum,
    up to rounding of about |exponent| ulp, since ``exp(a) exp(b)`` is not
    ``exp(a + b)``, and never falls below L."""
    shape = [len(a) for a in axes]
    head = math.prod(shape[:-1])
    chunk = max(1, SCALAR_BUDGET // max(head, shape[-1]))
    out = np.zeros((head, shape[-1]))
    for lo in range(0, len(sample), chunk):
        sl = slice(lo, lo + chunk)
        factors = []
        for j, a in enumerate(axes):
            e = np.subtract.outer(a, sample[sl, j])
            e *= e
            e *= scale[sl]
            np.maximum(e, EXP_FLOOR, out=e)
            factors.append(np.exp(e, out=e))
        left = factors[0]
        left *= coef[sl]
        for e in factors[1:-1]:
            left = (left[:, None, :] * e).reshape(-1, e.shape[-1])
        out += left @ factors[-1].T
    return np.maximum(out.reshape(-1), math.exp(EXP_FLOOR) * float(np.sum(coef)))


def _exponent_terms(c: np.ndarray, h: np.ndarray, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(c_k (2 pi)^(-d/2) h_k^-d, -1 / (2 h_k^2))``: the coefficients, with the
    kernel's norm folded in, and the exponent scales of a kernel sum."""
    return c * gaussian_norm(dim) / h**dim, -0.5 / (h * h)


def _squared_distances(points: np.ndarray, sample: np.ndarray, q=None) -> np.ndarray:
    """``q = sum_j (p_j - X_kj)^2`` for every point ``p`` of ``points`` (m, d) and
    row ``X_k`` of ``sample`` (n, d), the squares added in coordinate order;
    returns (m, n), written to ``q`` if given.  Tiles of rows are filled in
    turn, so a coordinate's squares take one tile, not a second (m, n) array.
    ``(p - X)^2`` and ``(X - p)^2`` have the same bits, so the two arguments may
    trade roles."""
    n, d = sample.shape
    if q is None:
        q = np.empty((len(points), n))
    step = max(1, _TILE // max(1, n))
    for lo in range(0, len(q), step):
        p, tile = points[lo:lo + step], q[lo:lo + step]
        np.subtract(p[:, None, 0], sample[:, 0], out=tile)
        tile *= tile
        for j in range(1, d):
            t = np.subtract(p[:, None, j], sample[:, j])
            t *= t
            tile += t
    return q


def _row_tiles(rows: int, step: int):
    """``(lo, hi)`` of each tile of ``rows`` rows, ``step`` (a multiple of 4) rows a
    tile, and the last 1-3 rows joined to the tile before them.  OpenBLAS's
    gemv sums rows in groups of 4, the last 1-3 rows apart, and a lone 1-3 row
    product rounds apart from them: a row then has the bits of one product over
    all rows, whichever tiles of this kind the rows are cut into."""
    starts = list(range(0, rows, step))
    if len(starts) > 1 and rows - starts[-1] < 4:
        starts.pop()
    return list(zip(starts, starts[1:] + [rows]))


def _sum_tiles(rows: int, n: int):
    """:func:`_gaussian_sum`'s tiles of ``rows`` rows of ``n`` terms: whole groups
    of 4 rows, at most :data:`_TILE` exponents of one block of columns a tile,
    plus 3 rows (:func:`_row_tiles`)."""
    return _row_tiles(rows, _TILE // min(n, _TILE // 4) // 4 * 4)


def _gaussian_sum(q: np.ndarray, coef: np.ndarray, scale: np.ndarray,
                  qmax: float) -> np.ndarray:
    """``sum_k coef_k exp(max(q_rk scale_k, EXP_FLOOR))`` for each row r of the
    squared distances ``q`` (rows, n) (:func:`_squared_distances`), given a kernel
    sum's exponent terms (:func:`_exponent_terms`): the exponent form of
    :mod:`sakde.kernels`; returns (rows,).

    The exponents are built one tile of at most :data:`_TILE` scalars (plus 3
    rows, :func:`_sum_tiles`) at a time, and each tile's sum is one
    matrix-vector product.  A row of more than ``_TILE / 4`` terms is summed in
    blocks of that many columns, in order.  ``qmax`` bounds ``q``, and the
    floor's pass is skipped where the rule of :mod:`sakde.kernels` shows it
    cannot act: the pass moves no bit where it is skipped, so any bound on
    ``q`` gives the same sum."""
    rows, n = q.shape
    width = min(n, _TILE // 4)
    bounds = _sum_tiles(rows, n)
    buf = np.empty(max((hi - lo for lo, hi in bounds), default=0) * width)
    out = np.zeros(rows)
    for a in range(0, n, width):
        cols = slice(a, a + width)
        s = scale[cols]
        floored = qmax * -float(np.min(s)) > -EXP_FLOOR
        for lo, hi in bounds:
            t = buf[:(hi - lo) * len(s)].reshape(hi - lo, -1)
            np.multiply(q[lo:hi, cols], s, out=t)
            if floored:
                np.maximum(t, EXP_FLOOR, out=t)
            np.exp(t, out=t)
            out[lo:hi] += t @ coef[cols]
    return out


def _kernel_sum(c: np.ndarray, h: np.ndarray, sample: np.ndarray,
                points: np.ndarray) -> np.ndarray:
    """``sum_k c_k h_k^-d K((p - X_k) / h_k)`` at every point ``p`` of ``points`` (m, d)
    over a ``sample`` (n, d); returns (m,).  A tensor grid in d >= 2
    (:func:`_grid_axes`) takes :func:`_grid_sum`; every other sum is fused, per
    chunk of observations and, within it, per tile of points: the tile's
    squared distances (:func:`_squared_distances`) are summed
    (:func:`_gaussian_sum`) before the next tile's are made, so one tile of
    them is held, never the chunk's.  The tiles are :func:`_gaussian_sum`'s
    own (:func:`_sum_tiles`), so each point's sum has the bits of one over all
    points."""
    n, d = sample.shape
    axes = None if d < 2 or len(points) <= d else _grid_axes(points)
    if axes is not None:
        return _grid_sum(*_exponent_terms(c, h, d), sample, axes)
    chunk = max(1, SCALAR_BUDGET // max(1, len(points) * d))
    out = np.zeros(len(points))
    for lo in range(0, n, chunk):
        sl = slice(lo, lo + chunk)
        coef, scale = _exponent_terms(c[sl], h[sl], d)
        for a, b in _sum_tiles(len(points), len(coef)):
            q = _squared_distances(points[a:b], sample[sl])
            out[a:b] += _gaussian_sum(q, coef, scale, float(q.max()))
    return out


def _run_coefficients(g: np.ndarray) -> Tuple[np.ndarray, float]:
    """``(c, Pi)`` of a run of gains ``g``: ``c_k = g_k prod_{j>k} (1 - g_j)`` and
    ``Pi = prod_j (1 - g_j)`` (1 for no gains), so the run maps f to
    ``Pi f + sum_k c_k Z_k``; the one place where gains become coefficients."""
    coef = suffix_products(1.0 - g)
    start = coef[0] * (1.0 - g[0]) if len(g) else 1.0
    coef *= g
    return coef, start


def _runs(step: StepsizePlan, bandwidth: BandwidthPlan, count: int, n: int, wsum: float):
    """The recursion's runs over ``count`` new rows after ``n`` steps and weight
    sum ``wsum``, at most :data:`SCALAR_BUDGET` rows a run: yields ``(rows, c, h,
    start, wsum)`` per run, which maps f to ``start f + sum_k c_k h_k^-d K((x -
    X_k)/h_k)`` over the slice ``rows`` of the new rows, ``c_k = gamma_k prod_{j>k}
    (1 - gamma_j)`` in the run (:func:`_run_coefficients`), with ``wsum`` the
    weight sum after it.  The recursion's one expansion."""
    for lo in range(0, count, SCALAR_BUDGET):
        size = min(SCALAR_BUDGET, count - lo)
        g, wsum = step.gains(np.arange(n + 1, n + size + 1), wsum)
        coef, start = _run_coefficients(g)
        del g  # freed, as the step indices are, before h: a run holds no n-long array but (c, h)
        h = bandwidth.value(np.arange(n + 1, n + size + 1))
        yield slice(lo, lo + size), coef, h, start, wsum
        n += size


def _recursion(step: StepsizePlan, bandwidth: BandwidthPlan, count: int, kernel_sum,
               values: np.ndarray, n: int, wsum: float):
    """The recursion from ``values`` (..., m) after ``n`` steps and weight sum
    ``wsum`` over ``count`` new rows, one run (:func:`_runs`) at a time, the sum
    given by ``kernel_sum(rows, c, h)`` for the slice ``rows`` of the new rows.
    Returns ``(values, n, wsum)``."""
    for rows, c, h, start, wsum in _runs(step, bandwidth, count, n, wsum):
        values = start * values + kernel_sum(rows, c, h)
    return values, n + count, wsum


def _sample_sum(sample: np.ndarray, points: np.ndarray):
    """The run expansion's kernel sum over ``sample`` (count, d) at ``points``."""
    return lambda rows, c, h: _kernel_sum(c, h, sample[rows], points)


def replication_blocks(replications: int, n: int, dim: int):
    """``(lo, hi)`` of each block of ``replications`` samples (n, dim): at most
    :data:`SCALAR_BUDGET` scalars and at least one replication a block.  An
    estimate's last bits can move with its block (BLAS blocks a sum by rows)."""
    block = max(1, min(replications, SCALAR_BUDGET // (n * dim)))
    return [(lo, min(lo + block, replications)) for lo in range(0, replications, block)]


def _exponent_runs(step, bandwidth: BandwidthPlan, dim: int, cut: int, n: int, wsum: float):
    """The runs that take a trajectory from ``cut`` steps and weight sum ``wsum``
    to ``n`` steps, as ``(columns, coef, scale, start)`` with the exponent terms
    of :func:`_exponent_terms`, and the weight sum after them.  The baseline
    (step None) is one run from 0; the recursion's runs are :func:`_runs`."""
    if step is None:
        c, h = rosenblatt_coefficients(n, bandwidth.value(n))
        return [(slice(0, n), *_exponent_terms(c, h, dim), 0.0)], wsum
    runs = []
    for rows, c, h, start, wsum in _runs(step, bandwidth, n - cut, cut, wsum):
        runs.append((slice(cut + rows.start, cut + rows.stop), *_exponent_terms(c, h, dim),
                     start))
    return runs, wsum


def as_point(x, dim: int) -> np.ndarray:
    """``x`` as a ``(dim,)`` float array, once it is known to be ``dim`` finite
    numbers; else ValueError."""
    p = np.asarray(x)  # its kind first: isfinite takes no str, object or complex
    if p.shape != (dim,) or p.dtype.kind not in "iuf" or not np.isfinite(p).all():
        raise ValueError(f"x must be {dim} finite number(s), got {x!r}")
    return p.astype(float)


def replication_estimates(cells, replications: int, n: int, dim: int, draw):
    """The estimates ``(replications,)`` of each cell ``(x, (n, bandwidth, step))``
    of ``cells``, in the cells' order, over the replication samples that
    ``draw(lo, hi)`` gives as an array (hi - lo, ``n``, ``dim``) for the
    replications ``lo`` to ``hi - 1``.  A cell's n that is no integer in [1,
    ``n``], or an x that is not ``dim`` finite numbers, raises ValueError
    before any draw.  Step None is the baseline, one sum over the first n
    observations, and the recursive cells at one x that share (step,
    bandwidth) run one trajectory in order of n, each n extending the run
    before it; each extension's runs (:func:`_runs`) are expanded once per
    call.

    The replications are drawn one tile of rows at a time, and each tile is
    evaluated at every point before the next is drawn: its squared distances
    to a point fill one reused buffer, and every cell at the point is summed
    on it.  So one sample tile and one tile of distances are held, never a
    block.  The tiles cut each block (:func:`replication_blocks`) from its
    start, at multiples of 4 rows (:func:`_row_tiles`, the rule of
    :func:`_gaussian_sum`'s own tiles), so an estimate's bits depend on its
    block, and not on where a block is cut at a multiple of 4 replications, if
    at least 4 follow the cut."""
    points = {}  # the indices of the cells at each point
    for i, (x, (k, _, _)) in enumerate(cells):
        if not (is_integer(k) and 1 <= k <= n):
            raise ValueError(f"a cell's n must be an integer in [1, {n}], got {k!r}")
        points.setdefault(tuple(as_point(x, dim).tolist()), []).append(i)
    paths = {}  # each point's trajectories, cells in order of n; a baseline cell is one of its own
    runs = {}  # each cell's runs from the cell before it: every tile sums them
    for x, idx in points.items():
        trajectories = {}
        for i in sorted(idx, key=lambda i: cells[i][1][0]):
            _, bandwidth, step = cells[i][1]
            trajectories.setdefault(i if step is None else (step, bandwidth), []).append(i)
        paths[x] = list(trajectories.values())
        for path in paths[x]:
            cut, wsum = 0, 0.0
            for i in path:
                k, bandwidth, step = cells[i][1]
                runs[i], wsum = _exponent_runs(step, bandwidth, dim, cut, k, wsum)
                cut = k
    # a tile holds whole groups of 4 rows, about 4 _TILE scalars (2 MiB), so
    # each block of tables 1 and 4 (at most 2 x 10^5 distances) is one tile: on
    # a 2-vCPU Xeon, that ran the coverage benchmark about 4 % faster than
    # tiles of _TILE, and check full ran alike in tiles of 1 to 8 _TILE
    tile = max(4, 4 * _TILE // n // 4 * 4)
    tiles = [(lo + a, lo + b) for lo, hi in replication_blocks(replications, n, dim)
             for a, b in _row_tiles(hi - lo, tile)]
    out, buf = [np.empty(replications) for _ in cells], None
    for lo, hi in tiles:
        rows = draw(lo, hi).reshape(-1, dim)
        if buf is None:  # allocated once the first draw's temporaries are freed
            buf = np.empty(max(b - a for a, b in tiles) * n)
        for x, point_paths in paths.items():
            # each row a point and x the sample: the rows fill _squared_distances's tiles
            q = _squared_distances(rows, np.reshape(x, (1, dim)),
                                   buf[:(hi - lo) * n, None]).reshape(hi - lo, n)
            qmax = float(q.max())
            for path in point_paths:
                values = np.zeros(hi - lo)
                for i in path:
                    for cols, coef, scale, start in runs[i]:
                        values = start * values + _gaussian_sum(q[:, cols], coef, scale, qmax)
                    out[i][lo:hi] = values
        del rows  # freed before the next tile is drawn
    return out


def estimates_at_point(x, samples: np.ndarray, cells):
    """The estimates ``(replications,)`` of each cell ``(n, bandwidth, step)`` of
    ``cells`` at ``x`` over ``samples`` (replications, N, d), in the cells'
    order: :func:`replication_estimates` over given samples, so on the same
    rows it equals the Monte Carlo bit for bit.  An n that is no integer in
    [1, N], or an x that is not d finite numbers, raises ValueError."""
    reps, top, d = samples.shape
    return replication_estimates([(x, cell) for cell in cells], reps, top, d,
                                 lambda lo, hi: samples[lo:hi])


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
        sample = _as_points(sample, self.dim)
        self.values, self.n, self._wsum = _recursion(
            self.step, self.bandwidth, len(sample), _sample_sum(sample, self.points),
            self.values, self.n, self._wsum)


def recursion_weights(step: StepsizePlan, n: int) -> np.ndarray:
    """Coefficients ``c_k = gamma_k * prod_{j=k+1..n} (1 - gamma_j)``, k = 1..n:
    those of one run of the expansion ``f_n = sum_k c_k Z_k + Pi_n f_0``
    (:func:`_run_coefficients`)."""
    return _run_coefficients(step.gamma_values(n))[0]


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
    return _recursion(step, bandwidth, len(sample), _sample_sum(sample, points),
                      _initial_values(f0, len(points)), 0, 0.0)[0]


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


def _one_cell(samples, x, bandwidth: BandwidthPlan, step) -> np.ndarray:
    """The cell ``(n, bandwidth, step)`` at ``x`` over ``samples`` (replications, n,
    d), once both are checked, as the Monte Carlo evaluates it; returns (replications,)."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 3 or 0 in samples.shape[1:] or np.shape(x) != samples.shape[2:]:
        raise ValueError("need samples of shape (replications, n, d), n and d at least 1, "
                         "and x of shape (d,)")
    if not (np.isfinite(samples).all() and np.isfinite(x).all()):
        raise ValueError("points and observations must be finite")
    [out] = estimates_at_point(x, samples, [(samples.shape[1], bandwidth, step)])
    return out


def recursive_batch(step: StepsizePlan, bandwidth: BandwidthPlan,
                    samples: np.ndarray, x) -> np.ndarray:
    """Recursive estimate from 0 at one point ``x`` for replication ``samples``
    (replications, n, dim): the Monte Carlo's recursive cell at n, bit for bit."""
    return _one_cell(samples, x, bandwidth, step)


def rosenblatt_batch(bandwidth: BandwidthPlan, samples: np.ndarray, x) -> np.ndarray:
    """Rosenblatt estimate at one point ``x`` for replication ``samples``
    (replications, n, dim): the Monte Carlo's baseline cell at n, bit for bit."""
    return _one_cell(samples, x, bandwidth, None)
