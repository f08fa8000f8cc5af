"""The product Gaussian kernel, whose constants are functions of d: second
moments all 1 and roughness :func:`gaussian_roughness`; :func:`kernel_moments`
recomputes them by quadrature.

Every evaluation of the kernel takes one exponent form.  A term at squared
distance ``q = sum_j (p_j - X_j)^2``, the squares added in coordinate order,
with bandwidth h is ``(2 pi)^(-d/2) h^-d exp(max(q s, EXP_FLOOR))``, where
``s = -1/(2 h^2)``; :func:`product_gaussian` is its h = 1 case, ``s = -1/2`` and
``q = |z|^2``, bit for bit.  A value below ``e^-700 ~ 9.9e-305`` reads as that
value, so a weighted kernel sum ``sum_k c_k h_k^-d K(.)`` with positive ``c_k``
moves by at most ``sum_k c_k h_k^-d (2 pi)^(-d/2) e^-700`` and is never exactly
0; inside a sum of normal size such a term is below half an ulp and moves no
bit.  Where ``max q * max_k 1/(2 h_k^2) <= -EXP_FLOOR``, no rounded exponent
``q s_k`` lies below the floor (rounding is monotone), so the floor's pass can be
skipped with the same bits.  The fused kernel sum of :mod:`sakde.estimators`
follows this rule bit for bit; since ``q s`` rounds apart from ``-|z|^2 / 2``
at ``z = (p - X) / h``, it agrees with ``h^-d K((p - X) / h)`` only to an ulp or
so of the exponent.  Its grid path, which multiplies one factor per
coordinate, floors each factor's exponent at :data:`EXP_FLOOR` and the sum at
that same bound: a term then lies between 0 and the floored kernel's, so the
sum keeps both properties (``estimators._grid_sum`` states its bound).
(Flooring each factor at ``EXP_FLOOR / d`` would lift a tail term from about
``e^-700`` to ``e^(-700/d)``.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from sakde.sequences import is_integer

# numpy's vector exp runs at about 1 ns per element down to -700, but leaves
# its vector path below: 3.3 ns at -707, 20 ns at -708, 101 ns at -720 (a
# subnormal result) and 14 ns from -746 on (a result of 0), measured with
# numpy 2.4.6 on AVX-512F.  Mixed into one array, such lanes slow every vector
# that holds one (an undersmoothed kernel far from most of the data puts 13 %
# of its exponents there, and triples the kernel sum's time), and every term
# they compute is below 1e-304.
EXP_FLOOR = -700.0


def gaussian_norm(dim: int) -> float:
    """Normalising constant ``(2 pi)^(-d/2)`` of the product standard Gaussian kernel."""
    return (2.0 * math.pi) ** (-dim / 2.0)


def gaussian_roughness(dim: int) -> float:
    """Roughness ``(2 sqrt(pi))^-d``, the integral of the squared product Gaussian kernel."""
    return (2.0 * math.sqrt(math.pi)) ** (-dim)


def product_gaussian(z) -> np.ndarray:
    """The product standard-normal kernel on R^d at ``z`` of shape ``(..., d)``:
    ``(2 pi)^(-d/2) exp(max(q s, EXP_FLOOR))`` with ``q = |z|^2`` and ``s = -1/2``."""
    z = np.asarray(z, dtype=float)
    # squares added coordinate by coordinate, left to right: the same sum
    # as a reduction over the short last axis, at a fraction of its cost
    sq = z[..., 0] ** 2
    for j in range(1, z.shape[-1]):
        sq += z[..., j] ** 2
    return gaussian_norm(z.shape[-1]) * np.exp(np.maximum(sq * -0.5, EXP_FLOOR))


@dataclass(frozen=True)
class Kernel:
    """A multivariate kernel: ``fn`` maps arrays of shape ``(..., dim)`` to shape
    ``(...)`` and must be pure."""

    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    name: str


def check_dim(dim) -> int:
    """``dim``, once it is known to be a positive integer (not a bool) of at most 2^53."""
    if not (is_integer(dim) and dim >= 1):
        raise ValueError("dim must be a positive integer")
    if dim > 2**53:  # the formulas compute with d as a float
        raise ValueError(f"dim must be at most 2^53, got {dim}")
    return dim


def gaussian_kernel(dim: int) -> Kernel:
    """Product standard Gaussian kernel on R^d."""
    check_dim(dim)
    return Kernel(dim=dim, fn=product_gaussian, name=f"gaussian-product(d={dim})")


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
