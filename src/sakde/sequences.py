"""Regularly varying sequence plans: stepsizes, bandwidths, weights.

A plan describes a positive sequence in closed form, ``c * n**e``.
Membership of the regularly-varying class with index ``e`` can be checked
numerically through :func:`gs_index_diagnostic`, and the technical limit that
drives every leading-order constant is evaluated by :func:`lemma_limit` with a
streaming recursion (no arrays of length ``n`` are ever stored).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

# Block length for streaming evaluations; memory use is O(_BLOCK), not O(n).
_BLOCK = 1 << 15


@dataclass(frozen=True)
class SequencePlan:
    """Closed-form plan ``scale * n**exponent``."""

    scale: float
    exponent: float

    def __post_init__(self):
        if not (0 < self.scale < math.inf and math.isfinite(self.exponent)):
            raise ValueError(f"need a finite scale > 0 and a finite exponent, got {self}")

    def value(self, n):
        """Evaluate the sequence at ``n`` (scalar or array of indices >= 1)."""
        out = self.scale * np.asarray(n, dtype=float) ** self.exponent
        return out if out.ndim else float(out)


def gs_index_diagnostic(plan: SequencePlan, n_max: int) -> float:
    """Return ``n_max * (1 - v(n_max - 1) / v(n_max))``.

    For a regularly varying plan this approaches ``plan.exponent`` as a
    membership diagnostic; a constant sequence gives exactly 0.
    """
    if n_max < 10:
        raise ValueError("n_max must be at least 10")
    return n_max * (1.0 - plan.value(n_max - 1) / plan.value(n_max))


def _check_alpha(alpha) -> None:
    if not 0.5 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (1/2, 1], got {alpha}")


def is_integer(value) -> bool:
    """``value`` is an integer, Python's or numpy's, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(n_max) -> None:
    if not (is_integer(n_max) and n_max >= 0):
        raise ValueError(f"step count must be nonnegative and an integer, got {n_max!r}")


def _check_scale(scale) -> None:
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale must lie in (0, 1], got {scale}")


@dataclass(frozen=True)
class StepsizePlan:
    """Gain sequence for the density recursion, ``seq`` in closed form.  When
    built from a weight sequence, ``weights`` yields the exact gains
    ``w_n / sum_{k<=n} w_k`` in place of the asymptotic closed form.  Every gain
    lies in (0, 1]: a closed-form scale outside it is rejected here."""

    seq: SequencePlan
    weights: Optional[SequencePlan] = None

    def __post_init__(self):
        _check_alpha(self.alpha)
        if self.weights is None:
            _check_scale(self.seq.scale)

    @property
    def alpha(self) -> float:
        return -self.seq.exponent

    @property
    def gamma0(self) -> float:
        """Limit of ``n * gamma_n``: the scale at alpha = 1, ``inf`` for slower decay."""
        return self.seq.scale if self.alpha == 1.0 else math.inf

    @property
    def xi(self) -> float:
        return 1.0 / self.gamma0  # 0 when gamma0 is infinite

    def gamma_values(self, n_max: int) -> np.ndarray:
        """Gains for steps 1..n_max as one array (empty for n_max = 0)."""
        _check_count(n_max)
        return self.gains(np.arange(1, n_max + 1), 0.0)[0]

    def gamma_blocks(self, n_max: int) -> Iterator[np.ndarray]:
        """Gains for steps 1..n_max in consecutive arrays of at most ``_BLOCK`` steps."""
        _check_count(n_max)
        wsum = 0.0
        for lo in range(1, n_max + 1, _BLOCK):
            g, wsum = self.gains(np.arange(lo, min(lo + _BLOCK, n_max + 1)), wsum)
            yield g

    def gains(self, k, wsum: float):
        """Gains at step ``k`` (an int) or steps ``k`` (consecutive, an array) and the
        weight sum through the last, from ``wsum``, the sum through the step before;
        the one place where gains are computed, the same bits however steps are cut."""
        if self.weights is None:
            return self.seq.value(k), wsum
        w = self.weights.value(k)
        if np.ndim(w) == 0:
            return w / (wsum + w), wsum + w
        sums = np.cumsum(np.concatenate(([wsum], w)))
        return w / sums[1:], float(sums[-1])


@dataclass(frozen=True)
class BandwidthPlan:
    """Smoothing scale ``h_n``, regularly varying with index ``-a``, a > 0."""

    seq: SequencePlan

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError(f"bandwidth exponent a must be positive, got {self.a}")

    @property
    def a(self) -> float:
        return -self.seq.exponent

    def value(self, n):
        return self.seq.value(n)


def stepsize_plan(scale: float, alpha: float = 1.0) -> StepsizePlan:
    """Build a stepsize plan ``gamma_n = scale * n**(-alpha)``.

    ``alpha`` must lie in (1/2, 1] and ``scale`` in (0, 1], the bounds that
    :class:`StepsizePlan` enforces so that every gain lies in (0, 1].
    """
    _check_scale(scale)  # before the sequence plan, which would name only its scale and exponent
    _check_alpha(alpha)
    return StepsizePlan(SequencePlan(scale, -alpha))


def stepsize_from_weights(weight_plan: SequencePlan) -> StepsizePlan:
    """Stepsize induced by a weight sequence: ``gamma_n = w_n / sum_{k<=n} w_k``.

    Requires the weight index ``w* > -1``; the result has ``alpha = 1``,
    ``gamma0 = 1 + w*`` and ``xi = 1/(1 + w*)``.  The exact gains (not just
    the asymptotic ``(1+w*)/n`` form) remain available through the returned
    plan's ``weights`` field.
    """
    w_star = weight_plan.exponent
    if not w_star > -1.0:
        raise ValueError(f"weight index must exceed -1, got {w_star}")
    return StepsizePlan(SequencePlan(1.0 + w_star, -1.0), weights=weight_plan)


def bandwidth_plan(scale: float, a: float) -> BandwidthPlan:
    """Build a bandwidth plan ``h_n = scale * n**(-a)``, a > 0."""
    return BandwidthPlan(SequencePlan(scale, -a))


def suffix_products(a: np.ndarray) -> np.ndarray:
    """``out[k] = prod_{j>k} a[j]``, with 1 for the last entry (empty product)."""
    out = np.empty_like(a)
    out[:-1] = np.cumprod(a[:0:-1])[::-1]
    out[-1:] = 1.0
    return out


def pi_product(step: StepsizePlan, n: int) -> float:
    """Product ``prod_{j<=n} (1 - gamma_j)``.

    Every gain lies in (0, 1], so every factor lies in [0, 1): accumulates in
    log space while all factors are positive and switches to an exact 0 once
    some ``gamma_j = 1`` (e.g. any weight-induced plan, whose first gain is 1).
    """
    log_pi = 0.0
    for g in step.gamma_blocks(n):
        if np.any(g == 1.0):
            return 0.0
        log_pi += float(np.sum(np.log1p(-g)))
    return math.exp(log_pi)


def lemma_limit(m: float, v_plan: SequencePlan, step: StepsizePlan, n_max: int) -> float:
    """Evaluate ``v_n * Pi_n**m * sum_{k<=n} Pi_k**(-m) * gamma_k / v_k`` at ``n = n_max``.

    The quantity converges to ``1 / (m - v* xi)`` where ``v*`` is the index
    of ``v_plan``; the hypothesis ``m - v* xi > 0`` is enforced.  Evaluation
    is a single forward pass over blocks using the equivalent recursion
    ``Q_n = (v_n / v_{n-1}) (1 - gamma_n)**m Q_{n-1} + gamma_n``, which stays
    finite even when ``gamma_1 = 1`` makes the partial products vanish.
    """
    if not m > 0:
        raise ValueError(f"m must be positive, got {m}")
    denom = m - v_plan.exponent * step.xi
    if not denom > 0:
        raise ValueError(
            f"limit undefined: m - v*·xi = {denom} must be positive"
        )
    q = 0.0
    prev_v = None
    lo = 1
    for g in step.gamma_blocks(n_max):
        k = np.arange(lo, lo + g.size)
        v = np.asarray(v_plan.value(k), dtype=float)
        shifted = np.empty_like(v)
        shifted[1:] = v[:-1]
        # the k=1 ratio multiplies Q_0 = 0, so any finite value works
        shifted[0] = v[0] if prev_v is None else prev_v
        a = (v / shifted) * (1.0 - g) ** m
        tail = suffix_products(a)
        q = q * (tail[0] * a[0]) + float(np.sum(g * tail))
        prev_v = float(v[-1])
        lo += g.size
    return q
