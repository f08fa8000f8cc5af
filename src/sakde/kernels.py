"""Smoothing kernels and the moment constants used by every asymptotic formula."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Tuple

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

    def __call__(self, z):
        return self.fn(z)


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
    second_abs_moments: np.ndarray
    roughness: float


def _tensor_grid(dim: int, nodes: int, halfwidth: float) -> Tuple[np.ndarray, np.ndarray]:
    x1, w1 = np.polynomial.legendre.leggauss(nodes)
    x1 = halfwidth * x1
    w1 = halfwidth * w1
    axes = np.meshgrid(*([x1] * dim), indexing="ij")
    wmesh = np.meshgrid(*([w1] * dim), indexing="ij")
    pts = np.stack([ax.ravel() for ax in axes], axis=-1)
    wts = np.ones(pts.shape[0])
    for wm in wmesh:
        wts *= wm.ravel()
    return pts, wts


def kernel_moments(fn, dim: int, nodes: int = 64, halfwidth: float = 8.0) -> KernelMoments:
    """Quadrature moments of a kernel on the truncated box [-halfwidth, halfwidth]^d.

    Tensorized Gauss-Legendre nodes (``nodes`` per axis) keep the constants
    reproducible run to run.
    """
    pts, wts = _tensor_grid(dim, nodes, halfwidth)
    k = np.asarray(fn(pts), dtype=float)
    mass = float(np.sum(wts * k))
    first = np.array([np.sum(wts * pts[:, j] * k) for j in range(dim)])
    mu2 = np.array([np.sum(wts * pts[:, j] ** 2 * k) for j in range(dim)])
    second_abs = np.array([np.sum(wts * pts[:, j] ** 2 * np.abs(k)) for j in range(dim)])
    roughness = float(np.sum(wts * k * k))
    return KernelMoments(mass, first, mu2, second_abs, roughness)


@dataclass(frozen=True)
class A1Report:
    """Outcome of the admissibility check on a kernel."""

    passed: bool
    unit_mass: float
    first_moments: np.ndarray
    second_abs_moments: np.ndarray
    second_abs_converged: bool
    failures: Tuple[str, ...]


def a1_check(kernel: Kernel, tol: float = 1e-6, nodes: int = 64, halfwidth: float = 8.0) -> A1Report:
    """Verify numerically that a kernel integrates to 1, has vanishing first
    moments, and finite absolute second moments.

    Failures are reported by name: ``unit-mass``, ``odd-moment[j]``,
    ``second-moment-convergence``.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    mom = kernel_moments(kernel.fn, kernel.dim, nodes, halfwidth)
    refined = kernel_moments(kernel.fn, kernel.dim, nodes + 32, halfwidth)
    failures = []
    if abs(mom.mass - 1.0) >= tol:
        failures.append("unit-mass")
    for j in range(kernel.dim):
        if abs(mom.first_moments[j]) >= tol:
            failures.append(f"odd-moment[{j}]")
    drift = np.max(
        np.abs(refined.second_abs_moments - mom.second_abs_moments)
        / (1.0 + np.abs(mom.second_abs_moments))
    )
    converged = bool(drift < max(tol, 1e-9))
    if not converged:
        failures.append("second-moment-convergence")
    return A1Report(
        passed=not failures,
        unit_mass=mom.mass,
        first_moments=mom.first_moments,
        second_abs_moments=mom.second_abs_moments,
        second_abs_converged=converged,
        failures=tuple(failures),
    )
