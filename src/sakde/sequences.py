"""Regularly varying sequence plans: stepsizes, bandwidths, weights.

A plan describes a positive sequence in closed form, ``c * n**e * log(n+1)**b``.
Membership of the regularly-varying class with index ``e`` can be checked
numerically through :func:`gs_index_diagnostic`, and the technical limit that
drives every leading-order constant is evaluated by :func:`lemma_limit` with a
streaming recursion (no arrays of length ``n`` are ever stored).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

# Block length for streaming evaluations; memory use is O(_BLOCK), not O(n).
_BLOCK = 1 << 15

# Block length of the gains and bandwidths a streaming estimator buffers, and
# of its block updates: every value is the same for any block length, and a
# short block keeps each estimator's buffers small.
STREAM_BLOCK = 1 << 10


@dataclass(frozen=True)
class SequencePlan:
    """Closed-form plan ``scale * n**exponent * log(n+1)**log_exponent``."""

    scale: float
    exponent: float
    log_exponent: float = 0.0

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def value(self, n):
        """Evaluate the sequence at ``n`` (scalar or array of indices >= 1)."""
        arr = np.asarray(n, dtype=float)
        out = self.scale * arr**self.exponent
        if self.log_exponent != 0.0:
            out = out * np.log(arr + 1.0) ** self.log_exponent
        return out if out.ndim else float(out)

    def blocks(self, n_max: float = math.inf, block: int = _BLOCK) -> Iterator[np.ndarray]:
        """Values at 1..n_max (without end by default) in consecutive arrays
        of at most ``block`` indices."""
        for lo in itertools.takewhile(lambda start: start <= n_max, itertools.count(1, block)):
            yield np.asarray(self.value(np.arange(lo, min(lo + block, n_max + 1))), dtype=float)


def gs_index_diagnostic(plan: SequencePlan, n_max: int) -> float:
    """Return ``n_max * (1 - v(n_max - 1) / v(n_max))``.

    For a regularly varying plan this approaches ``plan.exponent`` as a
    membership diagnostic; a constant sequence gives exactly 0.
    """
    if n_max < 10:
        raise ValueError("n_max must be at least 10")
    return n_max * (1.0 - plan.value(n_max - 1) / plan.value(n_max))


@dataclass(frozen=True)
class StepsizePlan:
    """Gain sequence for the density recursion.

    ``gamma0`` is the limit of ``n * gamma_n`` (``inf`` when the sequence
    decays slower than 1/n) and ``xi`` its reciprocal (0 when ``gamma0`` is
    infinite).  When built from a weight sequence, ``weights`` is kept so the
    exact gains ``w_n / sum_{k<=n} w_k`` can be produced instead of the
    asymptotic closed form.
    """

    seq: SequencePlan
    gamma0: float
    xi: float
    weights: Optional[SequencePlan] = None

    @property
    def alpha(self) -> float:
        return -self.seq.exponent

    def gamma(self, n: int) -> float:
        """Exact gain at step ``n`` (O(n) work; drive a recursion with :meth:`gamma_stream`)."""
        return float(self.gamma_values(n)[-1])

    def gamma_values(self, n_max: int) -> np.ndarray:
        """Gains for steps 1..n_max as one array (empty for n_max = 0)."""
        return np.concatenate((np.empty(0), *self._gamma_blocks(n_max)))

    def gamma_stream(self) -> Iterator[float]:
        """Yield gamma_1, gamma_2, ... lazily, one short block of gains at a time."""
        return floats(self._gamma_blocks(block=STREAM_BLOCK))

    def _gamma_blocks(self, n_max: float = math.inf, block: int = _BLOCK) -> Iterator[np.ndarray]:
        """Gains for steps 1..n_max (without end by default) in consecutive
        arrays of at most ``block`` steps; the one place where gains are computed.
        Weight sums run through one ``cumsum`` carried across blocks, so no gain
        depends on where the blocks end."""
        if self.weights is None:
            yield from self.seq.blocks(n_max, block)
            return
        wsum = 0.0
        for w in self.weights.blocks(n_max, block):
            sums = np.cumsum(np.concatenate(([wsum], w)))[1:]
            wsum = float(sums[-1])
            yield w / sums


@dataclass(frozen=True)
class BandwidthPlan:
    """Smoothing scale ``h_n``, regularly varying with index ``-a``, a > 0."""

    seq: SequencePlan

    @property
    def a(self) -> float:
        return -self.seq.exponent

    def value(self, n):
        return self.seq.value(n)


def stepsize_plan(scale: float, alpha: float = 1.0, log_exponent: float = 0.0) -> StepsizePlan:
    """Build a stepsize plan ``gamma_n = scale * n**(-alpha) * log(n+1)**b``.

    ``alpha`` must lie in (1/2, 1] and ``scale`` in (0, 1] so that every gain
    stays in (0, 1].  ``gamma0`` and ``xi`` are derived from the plan.
    """
    if not 0.5 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (1/2, 1], got {alpha}")
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale must lie in (0, 1], got {scale}")
    if alpha < 1.0 or log_exponent > 0.0:
        gamma0 = math.inf
    elif log_exponent < 0.0:
        raise ValueError("n*gamma_n -> 0 is outside the admissible stepsize class")
    else:
        gamma0 = scale
    xi = 0.0 if math.isinf(gamma0) else 1.0 / gamma0
    return StepsizePlan(SequencePlan(scale, -alpha, log_exponent), gamma0, xi)


def stepsize_from_weights(weight_plan: SequencePlan) -> StepsizePlan:
    """Stepsize induced by a weight sequence: ``gamma_n = w_n / sum_{k<=n} w_k``.

    Requires the weight index ``w* > -1``; the result has ``alpha = 1``,
    ``gamma0 = 1 + w*`` and ``xi = 1/(1 + w*)``.  The exact gains (not just
    the asymptotic ``(1+w*)/n`` form) remain available through the returned
    plan's ``weights`` field.
    """
    w_star = weight_plan.exponent
    if w_star <= -1.0:
        raise ValueError(f"weight index must exceed -1, got {w_star}")
    gamma0 = 1.0 + w_star
    seq = SequencePlan(gamma0, -1.0)
    return StepsizePlan(seq, gamma0, 1.0 / gamma0, weights=weight_plan)


def bandwidth_plan(scale: float, a: float, log_exponent: float = 0.0) -> BandwidthPlan:
    """Build a bandwidth plan ``h_n = scale * n**(-a) * log(n+1)**b``, a > 0."""
    if not a > 0:
        raise ValueError(f"bandwidth exponent a must be positive, got {a}")
    return BandwidthPlan(SequencePlan(scale, -a, log_exponent))


def floats(blocks: Iterable[np.ndarray]) -> Iterator[float]:
    """The entries of consecutive arrays, one Python float at a time."""
    for block in blocks:
        yield from block.tolist()


def suffix_products(a: np.ndarray) -> np.ndarray:
    """``out[k] = prod_{j>k} a[j]``, with 1 for the last entry (empty product)."""
    out = np.empty_like(a)
    out[:-1] = np.cumprod(a[:0:-1])[::-1]
    out[-1] = 1.0
    return out


def pi_product(step: StepsizePlan, n: int) -> float:
    """Product ``prod_{j<=n} (1 - gamma_j)``.

    Accumulates in log space while all factors are positive and switches to
    an exact 0 once some ``gamma_j = 1`` (e.g. any weight-induced plan, whose
    first gain is 1).
    """
    log_pi = 0.0
    count = 0
    for g in step._gamma_blocks(n):
        if np.any(g > 1.0):
            raise ValueError("stepsize exceeds 1; product is not sign-definite")
        if np.any(g == 1.0):
            return 0.0
        log_pi += float(np.sum(np.log1p(-g)))
        count += g.size
    assert count == n
    return math.exp(log_pi)


def lemma_limit(m: float, v_plan: SequencePlan, step: StepsizePlan, n_max: int) -> float:
    """Evaluate ``v_n * Pi_n**m * sum_{k<=n} Pi_k**(-m) * gamma_k / v_k`` at ``n = n_max``.

    The quantity converges to ``1 / (m - v* xi)`` where ``v*`` is the index
    of ``v_plan``; the hypothesis ``m - v* xi > 0`` is enforced.  Evaluation
    is a single forward pass over blocks using the equivalent recursion
    ``Q_n = (v_n / v_{n-1}) (1 - gamma_n)**m Q_{n-1} + gamma_n``, which stays
    finite even when ``gamma_1 = 1`` makes the partial products vanish.
    """
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    denom = m - v_plan.exponent * step.xi
    if denom <= 0:
        raise ValueError(
            f"limit undefined: m - v*·xi = {denom} must be positive"
        )
    q = 0.0
    prev_v = None
    lo = 1
    for g in step._gamma_blocks(n_max):
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
