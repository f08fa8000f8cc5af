"""Leading-order asymptotics for the recursive estimator and its baseline.

Everything here is a pure function of the plan parameters, the dimension d
(the product Gaussian kernel's constants are functions of d) and the density
constants: bias/variance regimes, pointwise and integrated MSE, CLT
parameters, and the confidence-interval calibration constant.  Every leading
error is ``A h^4 + B h^-d`` in the bandwidth constant h, with (A, B) read off
the bias and variance denominators, and one minimiser turns (A, B) into an
:class:`OptimalPlan`: the recursive and baseline pointwise optima and the
integrated optimum alike.  Their ratio is the efficiency ratio against the
nonrecursive baseline.  Parameters on a pole of a formula or outside its
domain, NaN included, raise ``ValueError``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Tuple

from sakde.kernels import check_dim, gaussian_roughness
from sakde.sequences import BandwidthPlan, StepsizePlan, bandwidth_plan, stepsize_plan

BIAS_DOMINATED = "bias-dominated"
BALANCED = "balanced"
VARIANCE_DOMINATED = "variance-dominated"


def _compare_regime(a, alpha, d: int) -> int:
    """Sign of ``a - alpha/(d+4)``, 0 within 1e-12."""
    lhs, rhs = float(a) * (d + 4), float(alpha)
    if abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs)):
        return 0
    return 1 if lhs > rhs else -1


@dataclass(frozen=True)
class RegimeClassification:
    """Which leading-order expansions apply for a plan pair (a, alpha) in R^d."""

    regime: str
    h2_bias_applies: bool          # squared-bandwidth bias expansion valid
    bias_negligible: bool          # bias is o(sqrt(gamma_n h_n^-d))
    variance_leading_applies: bool  # gamma/h^d variance expansion valid
    variance_negligible: bool      # variance is o(h_n^4)
    gain_limit_admissible: bool    # gamma0 above min{2a, (1-ad)/2}
    both_expansions_valid: bool    # gamma0 above max{2a, (1-ad)/2}


def classify_regime(a, alpha, d: int, gamma0: float) -> RegimeClassification:
    """Classify the bias/variance trade-off of a plan pair.

    Requires ``alpha`` in (1/2, 1], ``a`` in (0, alpha/d) and ``gamma0 > 0``, with
    ``math.inf`` for a gain with no bound.
    The boundary ``a = alpha/(d+4)`` is resolved within 1e-12, with every real
    input (``float``, ``int`` or ``Fraction``) taken through ``float``.
    """
    check_dim(d)
    alpha = stepsize_plan(1.0, alpha).alpha  # a stepsize plan owns the check of alpha
    af, alphaf = float(a), float(alpha)
    if not 0.0 < af < alphaf / d:
        raise ValueError(f"a must lie in (0, alpha/d) = (0, {alphaf / d}), got {a}")
    if not gamma0 > 0:
        raise ValueError(f"gamma0 must be positive, got {gamma0}")
    cmp = _compare_regime(a, alpha, d)
    regime = BALANCED if cmp == 0 else (BIAS_DOMINATED if cmp < 0 else VARIANCE_DOMINATED)
    lo = min(2.0 * af, (1.0 - af * d) / 2.0)
    hi = max(2.0 * af, (1.0 - af * d) / 2.0)
    return RegimeClassification(
        regime=regime,
        h2_bias_applies=cmp <= 0,
        bias_negligible=cmp > 0,
        variance_leading_applies=cmp >= 0,
        variance_negligible=cmp < 0,
        gain_limit_admissible=gamma0 > lo,
        both_expansions_valid=gamma0 > hi,
    )


def _bias_denom(a: float, xi: float) -> float:
    """``1 - 2 a xi``, the denominator of every leading bias constant."""
    if not a > 0:
        raise ValueError(f"bandwidth exponent a must be positive, got {a}")
    denom = 1.0 - 2.0 * a * xi
    if not denom > 0:
        raise ValueError(f"bias pole: 1 - 2*a*xi = {denom} must be positive")
    return denom


def _variance_margin(a: float, d: int) -> float:
    """``1 - a d``, for ``a d`` in (0, 1): the variance's bandwidth domain."""
    if not 0.0 < a * check_dim(d) < 1.0:
        raise ValueError(f"a*d must lie in (0, 1), got {a * d}")
    return 1.0 - a * d


def _variance_denom(a: float, d: int, xi: float) -> float:
    """``2 - (1 - a d) xi``, the denominator of every leading variance constant."""
    denom = 2.0 - _variance_margin(a, d) * xi
    if not denom > 0:
        raise ValueError(f"variance pole: 2 - (1-ad)*xi = {denom} must be positive")
    return denom


def _check_n(n) -> None:
    if not 1 <= n <= sys.float_info.max:  # the formulas compute with n as a float
        raise ValueError(f"n must be at least 1 and at most {sys.float_info.max:g}, got {n}")


def _check_h(h) -> None:
    if not 0 < h < math.inf:
        raise ValueError(f"bandwidth h must be positive and finite, got {h}")


def bias_leading(S_x: float, bandwidth: BandwidthPlan, step: StepsizePlan, n: int) -> float:
    """Leading bias ``h_n^2 S(x) / (2 (1 - 2 a xi))``.

    With ``xi = 0`` this reduces to the nonrecursive constant ``h_n^2 S(x)/2``.
    """
    _check_n(n)
    h = float(bandwidth.value(n))
    return h * h * S_x / (2.0 * _bias_denom(bandwidth.a, step.xi))


def rosenblatt_bias(S_x: float, h: float) -> float:
    """Leading bias of the nonrecursive baseline, ``h^2 S(x) / 2``."""
    _check_h(h)
    return h * h * S_x / 2.0


def variance_leading(f_x: float, d: int, bandwidth: BandwidthPlan,
                     step: StepsizePlan, n: int) -> float:
    """Leading variance ``(gamma_n / h_n^d) f(x) R / (2 - (1 - a d) xi)``.

    Uses the closed-form gain ``step.seq.value(n)`` (the regular-variation
    equivalent for weight-induced plans).
    """
    _check_n(n)
    denom = _variance_denom(bandwidth.a, d, step.xi)
    gamma_n = float(step.seq.value(n))
    h = float(bandwidth.value(n))
    return gamma_n / h**d * f_x * gaussian_roughness(d) / denom


def rosenblatt_variance(f_x: float, d: int, n: int, h: float) -> float:
    """Leading variance of the nonrecursive baseline, ``f(x) R / (n h^d)``."""
    _check_n(n)
    _check_h(h)
    return f_x * gaussian_roughness(check_dim(d)) / (n * h**d)


@dataclass(frozen=True)
class OptimalPlan:
    """Minimum of a leading error ``(A h^4 + B h^-d) n^(-4/(d+4))`` over the
    bandwidth constant h: the minimiser and the constant of the minimum."""

    bandwidth_constant: float
    mse_constant: float
    d: int

    @property
    def bandwidth(self) -> BandwidthPlan:
        """``h_n = bandwidth_constant * n**(-1/(d+4))``."""
        return bandwidth_plan(self.bandwidth_constant, 1.0 / (self.d + 4))

    def mse(self, n: int) -> float:
        return self.mse_constant * float(n) ** (-4.0 / (self.d + 4))


def _minimise(A: float, B: float, d: int) -> OptimalPlan:
    """The one optimiser: ``h = (d B / (4 A))^(1/(d+4))`` minimises ``A h^4 + B h^-d``."""
    h = (check_dim(d) * B / (4.0 * A)) ** (1.0 / (d + 4))
    return OptimalPlan(h, A * h**4 + B * h ** (-d), d)


def _unit_gain_optimum(quad_term: float, rough_term: float, d: int) -> OptimalPlan:
    # quad_term = S(x)^2 (pointwise) or the integrated squared curvature;
    # rough_term = f(x) R (pointwise) or R (integrated); gain 1/n, a = 1/(d+4)
    a = 1.0 / (check_dim(d) + 4)
    return _minimise(quad_term / (2.0 * _bias_denom(a, 1.0)) ** 2,
                     rough_term / _variance_denom(a, d, 1.0), d)


def _check_point(f_x: float, S_x: float) -> None:
    if not f_x > 0:
        raise ValueError("f(x) must be positive")
    if not abs(S_x) > 0:
        raise ValueError("optimal bandwidth undefined where the curvature vanishes")


def mse_optimal_plan(f_x: float, S_x: float, d: int) -> OptimalPlan:
    """Plan minimising the pointwise MSE at a point with density f(x) and
    curvature S(x): gain ``gamma_n = 1/n``, bandwidth ``const * gamma_n**(1/(d+4))``.
    """
    _check_point(f_x, S_x)
    return _unit_gain_optimum(S_x * S_x, f_x * gaussian_roughness(d), d)


def rosenblatt_mse_optimal(f_x: float, S_x: float, d: int) -> OptimalPlan:
    """Minimise ``(h^2 S/2)^2 + f R / (n h^d)`` over h for the baseline."""
    _check_point(f_x, S_x)
    return _minimise(S_x * S_x / 4.0, f_x * gaussian_roughness(d), d)


def mise_leading(curv_integral: float, d: int, step: StepsizePlan,
                 bandwidth: BandwidthPlan, n: int) -> float:
    """Leading integrated MSE; the regime decides which terms contribute.

    ``curv_integral`` is the integral of the squared curvature functional
    (see :func:`sakde.densities.curvature_squared_integral`).
    """
    cmp = _compare_regime(bandwidth.a, step.alpha, check_dim(d))
    bias2 = curv_integral * bias_leading(1.0, bandwidth, step, n) ** 2 if cmp <= 0 else 0.0
    return bias2 + (variance_leading(1.0, d, bandwidth, step, n) if cmp >= 0 else 0.0)


def mise_optimal_plan(curv_integral: float, d: int) -> OptimalPlan:
    """Plan minimising the integrated MSE; mirrors :func:`mse_optimal_plan`
    with the integrated squared curvature in place of S(x)^2 and the kernel
    roughness alone in place of f(x) R."""
    if not curv_integral > 0:
        raise ValueError("integrated squared curvature must be positive")
    return _unit_gain_optimum(curv_integral, gaussian_roughness(d), d)


def efficiency_ratio(d: int) -> float:
    """Ratio of the optimal baseline MSE to the optimal recursive MSE.

    Equals ``(2^4 ((d+2)/(d+4))^(2d+4))^(1/(d+4))``, below 1 and finite for every d.
    """
    check_dim(d)
    return (2.0**4 * ((d + 2.0) / (d + 4.0)) ** (2 * d + 4)) ** (1.0 / (d + 4))


@dataclass(frozen=True)
class CltParams:
    """Parameters of the pointwise limit law.

    For finite ``c`` (the limit of ``gamma_n^{-1} h_n^{d+4}``) the scaled
    error is asymptotically normal with this mean and variance; ``c = inf``
    yields the degenerate limit where ``h_n^{-2}(f_n - f)`` converges in
    probability to ``asym_mean`` and ``asym_var`` is 0.
    """

    c: float
    asym_mean: float
    asym_var: float

    @property
    def degenerate(self) -> bool:
        return math.isinf(self.c)


def clt_params(c: float, f_x: float, S_x: float, d: int, a: float,
               step: StepsizePlan) -> CltParams:
    """Limit-law parameters for a plan with ``gamma_n^{-1} h_n^{d+4} -> c``."""
    check_dim(d)
    if not f_x > 0:
        raise ValueError("f(x) must be positive")
    if not c >= 0:
        raise ValueError("c must be nonnegative (or inf)")
    xi = step.xi
    if math.isinf(c):
        return CltParams(c, S_x / (2.0 * _bias_denom(a, xi)), 0.0)
    vdenom = _variance_denom(a, d, xi)
    mean = 0.0 if c == 0 else math.sqrt(c) * S_x / (2.0 * _bias_denom(a, xi))
    return CltParams(c, mean, f_x * gaussian_roughness(d) / vdenom)


def ci_constant(gamma0: float, a: float, d: int) -> float:
    """Interval calibration constant ``sqrt(gamma0 / (2 - (1 - a d)/gamma0))``.

    ``gamma0`` is the limit of ``n gamma_n``; the interval needs it finite, so a
    gain that decays slower than 1/n (``gamma0 = inf``) is rejected, and so is
    ``a`` unless ``0 < a d < 1``.
    """
    if not 0.0 < gamma0 < math.inf:
        raise ValueError(f"gamma0 must be positive and finite, got {gamma0}")
    return math.sqrt(gamma0 / _variance_denom(a, d, 1.0 / gamma0))


def ci_constant_minimum(a: float, d: int) -> Tuple[float, float]:
    """Minimiser and minimum of :func:`ci_constant`: ``(1 - a d, sqrt(1 - a d))``."""
    margin = _variance_margin(a, d)
    return margin, math.sqrt(margin)
