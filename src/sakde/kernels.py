"""Smoothing kernels and the moment constants used by every asymptotic formula."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np


def gaussian_norm(dim: int) -> float:
    """Normalising constant ``(2 pi)^(-d/2)`` of the product standard Gaussian kernel."""
    return (2.0 * math.pi) ** (-dim / 2.0)


class _ProductGaussian:
    """Product standard-normal kernel on R^d; picklable callable."""

    def __init__(self, dim: int):
        self.dim = dim
        self._norm = gaussian_norm(dim)

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        # squares added coordinate by coordinate, left to right: the same sum
        # as a reduction over the short last axis, at a fraction of its cost
        sq = z[..., 0] ** 2
        for j in range(1, z.shape[-1]):
            sq += z[..., j] ** 2
        return self._norm * np.exp(-0.5 * sq)


@dataclass(frozen=True)
class Kernel:
    """A multivariate kernel with its per-coordinate second moments and roughness.

    ``fn`` maps arrays of shape ``(..., dim)`` to shape ``(...)``; ``mu2[j]``
    is the second moment along coordinate j and ``roughness`` the integral of
    the squared kernel.  Instances are immutable and ``fn`` must be pure.
    """

    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    mu2: np.ndarray
    roughness: float
    name: str


def gaussian_kernel(dim: int) -> Kernel:
    """Product standard Gaussian kernel: mu2 = (1, ..., 1), roughness (2*sqrt(pi))**-d."""
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    return Kernel(
        dim=dim,
        fn=_ProductGaussian(dim),
        mu2=np.ones(dim),
        roughness=(2.0 * math.sqrt(math.pi)) ** (-dim),
        name=f"gaussian-product(d={dim})",
    )


class KernelMoments(NamedTuple):
    mass: float
    first_moments: np.ndarray
    mu2: np.ndarray
    roughness: float


# tensorized Gauss-Legendre rule on the truncated box [-_HALFWIDTH, _HALFWIDTH]^d
_NODES = 64
_HALFWIDTH = 8.0


def kernel_moments(fn, dim: int) -> KernelMoments:
    """Quadrature moments of a kernel on a truncated box.

    A fixed tensorized Gauss-Legendre rule keeps the constants reproducible
    run to run.
    """
    x1, w1 = np.polynomial.legendre.leggauss(_NODES)
    axes = np.meshgrid(*[_HALFWIDTH * x1] * dim, indexing="ij")
    pts = np.stack([ax.ravel() for ax in axes], axis=-1)
    wts = np.ones(pts.shape[0])
    for wm in np.meshgrid(*[_HALFWIDTH * w1] * dim, indexing="ij"):
        wts *= wm.ravel()
    k = np.asarray(fn(pts), dtype=float)
    return KernelMoments(
        mass=float(np.sum(wts * k)),
        first_moments=np.array([np.sum(wts * pts[:, j] * k) for j in range(dim)]),
        mu2=np.array([np.sum(wts * pts[:, j] ** 2 * k) for j in range(dim)]),
        roughness=float(np.sum(wts * k * k)),
    )
