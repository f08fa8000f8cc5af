"""Ground-truth densities: one Gaussian-mixture algebra with closed-form
Hessians, samplers and curvature functionals.  The curvature is the
Laplacian: the product Gaussian kernel's second moments are all 1.

:class:`GaussianMixture` (full covariances) exposes ``pdf`` and ``hessian_diag``
through its inverse covariances, ``smoothed_pdf`` (the density convolved with
``N(0, s I)``; the exact oracles sum it) through the eigenbasis taken when built,
and ``sample``.  The image ``X = A Y`` of a mixture under an invertible
A is the mixture with means ``A m_i`` and covariances ``A S_i A^T``: :class:`LinearImage`
only builds that mixture, which then draws and evaluates like any other.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from sakde.kernels import check_dim
from sakde.sequences import is_integer


def _as_batch(x, dim):
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[-1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got shape {x.shape}")
    return x, single


#: scalars in a chunk's gathered Cholesky factors (256 kB): the temporaries of
#: the map from normals to draws stay a few chunks, whatever the block size
_MAP_SCALARS = 1 << 15


class GaussianMixture:
    """Mixture of Gaussians with full covariance matrices."""

    def __init__(self, weights, means, covs):
        self.weights = np.asarray(weights, dtype=float)
        self.means = np.atleast_2d(np.asarray(means, dtype=float))
        covs = np.asarray(covs, dtype=float)
        if covs.ndim == 2:
            covs = covs[None, :, :]
        self.covs = covs
        if self.weights.ndim != 1 or np.any(self.weights < 0):
            raise ValueError("weights must be a nonnegative vector")
        if not math.isclose(self.weights.sum(), 1.0, rel_tol=0, abs_tol=1e-12):
            raise ValueError("weights must sum to 1")
        if self.means.ndim != 2:
            raise ValueError("inconsistent mixture component shapes")
        k, d = self.means.shape
        if d < 1:
            raise ValueError("a mixture needs at least one dimension")
        if self.weights.shape[0] != k or self.covs.shape != (k, d, d):
            raise ValueError("inconsistent mixture component shapes")
        if not (np.isfinite(self.means).all() and np.isfinite(self.covs).all()):
            raise ValueError("means and covariances must be finite")
        # pdf reads the whole matrix, the sampler and the exact oracles its lower triangle
        scale = np.abs(self.covs).max(axis=(1, 2), keepdims=True)
        if np.any(np.abs(self.covs - self.covs.swapaxes(1, 2)) > 1e-12 * scale):
            raise ValueError("covariances must be symmetric")
        self._eigh = np.linalg.eigh(self.covs)  # (eigenvalues, eigenvectors)
        if not np.all(self._eigh[0] > 0):
            raise ValueError("covariances must be positive definite")
        self._invs = np.linalg.inv(self.covs)
        dets = np.linalg.det(self.covs)
        self._norms = 1.0 / np.sqrt((2.0 * math.pi) ** d * dets)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    # built on the first draw; a one-component model picks no component
    @cached_property
    def _chols(self):
        return np.linalg.cholesky(self.covs)

    @cached_property
    def _cdf(self):
        # the component pick of rng.choice(k, size, p=weights), without its checks
        cdf = np.cumsum(self.weights)
        return cdf / cdf[-1]

    def _component_pdfs(self, x):
        # (n_points, n_components) matrix of component densities
        out = np.empty((x.shape[0], self.weights.shape[0]))
        for i in range(self.weights.shape[0]):
            delta = x - self.means[i]
            quad = np.einsum("nd,de,ne->n", delta, self._invs[i], delta)
            out[:, i] = self._norms[i] * np.exp(-0.5 * quad)
        return out

    def pdf(self, x):
        x, single = _as_batch(x, self.dim)
        vals = self._component_pdfs(x) @ self.weights
        return float(vals[0]) if single else vals

    def hessian_diag(self, x):
        x, single = _as_batch(x, self.dim)
        comp = self._component_pdfs(x)
        h = np.zeros((x.shape[0], self.dim))
        for i in range(self.weights.shape[0]):
            delta = x - self.means[i]
            u = delta @ self._invs[i]
            h += self.weights[i] * comp[:, i, None] * (u * u - np.diag(self._invs[i]))
        return h[0] if single else h

    def smoothed_pdf(self, x, s) -> np.ndarray:
        """``sum_i w_i phi(x; m_i, S_i + s I)`` at one point ``x`` (shape (dim,)) for
        each variance of the 1-d array ``s >= 0``: the density convolved with
        ``N(0, s I)``, so ``s = 0`` gives the density itself."""
        x, s = np.asarray(x, dtype=float), np.asarray(s, dtype=float)
        if x.shape != (self.dim,) or not np.isfinite(x).all():
            raise ValueError(f"x must be {self.dim} finite number(s), got shape {x.shape}")
        if s.ndim != 1 or not np.isfinite(s).all() or np.any(s < 0):
            raise ValueError("s must be a 1-d array of finite variances >= 0")
        out, d = np.zeros(s.shape[0]), self.dim
        for w, m, lam, q in zip(self.weights, self.means, *self._eigh):
            dt = q.T @ (x - m)
            lam_s = lam[None, :] + s[:, None]
            quad = np.sum(dt[None, :] ** 2 / lam_s, axis=1)
            out += w * np.exp(-0.5 * quad) / np.sqrt((2.0 * math.pi) ** d * np.prod(lam_s, axis=1))
        return out

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` draws from ``rng``, shape (count, dim): its component uniforms
        (none for one component), then its normals; :meth:`sample_block` with
        ``rng`` as both generators of one replication."""
        return self.sample_block([rng], [rng], 1, count)[0]

    def sample_block(self, normals, uniforms, reps: int, count: int) -> np.ndarray:
        """``reps`` samples of ``count`` draws, shape (reps, count, dim): the i-th
        replication takes its component uniforms from the i-th generator of
        ``uniforms`` (a one-component model takes none) and its normals from the
        i-th of ``normals``, ``count`` values from each.  Where no generator
        serves both, the block at ``count`` is the first ``count`` rows of the
        block at any larger count from generators in the same states.

        The uniforms of every replication are drawn first, then the normals,
        each generator filling only its own rows, and none is used again once
        the next is taken (so they may share one bit generator that is rekeyed
        in turn).  The component pick and the Cholesky map then run once over
        the block, in place, in chunks of ``_MAP_SCALARS // dim**2`` rows.
        """
        if not is_integer(count):
            raise TypeError(f"count must be an integer, not {type(count).__name__}")
        if count < 1:
            raise ValueError("count must be positive")
        picks = self.weights.shape[0] > 1
        z = np.empty((reps, count, self.dim))
        u = np.empty((reps, count)) if picks else None
        if picks:
            for i, rng in zip(range(reps), uniforms, strict=True):
                rng.random(out=u[i])
        for i, rng in zip(range(reps), normals, strict=True):
            rng.standard_normal(out=z[i])
        flat, comp = z.reshape(-1, self.dim), 0
        rows = max(1, _MAP_SCALARS // self.dim**2)
        for lo in range(0, len(flat), rows):
            chunk = flat[lo:lo + rows]
            if picks:
                comp = self._cdf.searchsorted(u.reshape(-1)[lo:lo + rows], side="right")
            # index 0 broadcasts the one factor, which einsum sums in the order of
            # gathered factors (written-out sums would not from d = 3 on)
            np.add(self.means[comp], np.einsum("...ij,...j->...i", self._chols[comp], chunk),
                   out=chunk)
        return z


class LinearImage(GaussianMixture):
    """Density of ``X = A Y`` for an invertible matrix A and a mixture Y: the
    mixture with the weights of Y, means ``A m_i`` and covariances ``A S_i A^T``.
    """

    def __init__(self, base: GaussianMixture, matrix):
        matrix = np.asarray(matrix, dtype=float)
        d = base.dim
        if matrix.shape != (d, d):
            raise ValueError(f"matrix must be {d}x{d}")
        if not np.isfinite(matrix).all():
            raise ValueError("matrix must be finite")
        if np.linalg.det(matrix) == 0:
            raise ValueError("matrix must be invertible")
        super().__init__(base.weights, base.means @ matrix.T,
                         np.einsum("ij,njk,lk->nil", matrix, base.covs, matrix))


def standard_gaussian(dim: int) -> GaussianMixture:
    """Standard normal density on R^d as a one-component mixture."""
    check_dim(dim)
    return GaussianMixture([1.0], np.zeros((1, dim)), np.eye(dim)[None, :, :])


def curvature(model, x) -> float:
    """Bias-driving curvature at a point, the Laplacian ``sum_j d^2 f / dx_j^2``."""
    return float(np.sum(model.hessian_diag(np.asarray(x, dtype=float))))


def curvature_squared_integral(model) -> float:
    """Integral over R^d of the squared Laplacian ``(D f)**2``, in closed form.

    It is ``(D^2 g)(0)`` for ``g = f * f(-.)``, the mixture over component pairs
    with weights ``w_i w_j``, means ``m_i - m_j`` and covariances ``S_i + S_j``
    (Marron & Wand 1992, Ann. Statist. 20:712).  With ``P`` a pair's inverse
    covariance, ``u = P m``, ``s = u'u`` and ``t = tr P``,
    ``D^2 phi = phi (s^2 - 2 t s - 4 u'Pu + t^2 + 2 tr(PP))``.
    """
    if not isinstance(model, GaussianMixture):
        raise TypeError(f"{type(model).__name__} is not a Gaussian mixture")
    d = model.dim
    pairs = GaussianMixture(np.outer(model.weights, model.weights).ravel(),
                            (model.means[:, None] - model.means[None, :]).reshape(-1, d),
                            (model.covs[:, None] + model.covs[None, :]).reshape(-1, d, d))
    p = pairs._invs
    u = np.einsum("cjk,ck->cj", p, pairs.means)
    s, t = np.sum(u * u, axis=1), np.trace(p, axis1=1, axis2=2)
    bracket = (s * s - 2.0 * t * s - 4.0 * np.einsum("cj,cjk,ck->c", u, p, u) + t * t
               + 2.0 * np.einsum("cjk,ckj->c", p, p))
    return float(pairs.weights @ (pairs._component_pdfs(np.zeros((1, d)))[0] * bracket))
