"""Deterministic Monte Carlo harness for confidence-interval coverage.

Reproduces the four benchmark coverage tables and provides the empirical
oracles (moments, CLT) used to validate the leading-order formulas.

Determinism contract: every replication draws from its own counter-based
generator derived from ``(master_seed, replication_index)`` and results are
aggregated in replication-index order with a fixed block structure, so a run
is bit-reproducible for a given seed no matter how cells are scheduled
across workers.
"""

from __future__ import annotations

import io
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtr

from sakde import asymptotics
from sakde.densities import GaussianMixture, LinearImage, standard_gaussian
from sakde.estimators import recursive_batch, recursion_weights, rosenblatt_batch
from sakde.kernels import Kernel, gaussian_kernel
from sakde.sequences import BandwidthPlan, StepsizePlan, bandwidth_plan, stepsize_plan

ROSENBLATT = "rosenblatt"
RECURSIVE = "recursive"

#: two-sided 95% normal quantile used throughout the benchmark tables
Z_95 = 1.96

#: 1% critical constant of the sup-CDF (Kolmogorov) statistic
KS_1PCT = 1.63

# scalars per sampling block; keeps block memory bounded and the block
# structure (hence floating-point aggregation order) independent of jobs
_SAMPLE_BUDGET = 1 << 21

_SHEAR = np.array([[1.0, 0.0], [0.5, 1.0]])


def variance_optimal_step(a: float, d: int) -> StepsizePlan:
    """The variance-minimising stepsize ``gamma_n = (1 - a d) / n``."""
    return stepsize_plan(1.0 - a * d)


def table_model(name: str):
    """The four benchmark densities by name."""
    if name == "gaussian":
        return standard_gaussian(1)
    if name == "mixture":
        return GaussianMixture(
            [0.5, 0.5], [[-0.5], [0.5]], np.broadcast_to(np.eye(1), (2, 1, 1)),
            label="mixture",
        )
    if name == "gaussian-2d":
        return LinearImage(standard_gaussian(2), _SHEAR, label="gaussian-2d")
    if name == "mixture-2d":
        base = GaussianMixture(
            [0.5, 0.5], [[0.5, 0.5], [-0.5, -0.5]],
            np.broadcast_to(np.eye(2), (2, 2, 2)), label="mixture-base-2d",
        )
        return LinearImage(base, _SHEAR, label="mixture-2d")
    raise ValueError(f"unknown model name: {name!r}")


@dataclass(frozen=True)
class CellConfig:
    """One cell of the coverage study: density, point, plan and estimator."""

    model: object
    x: Tuple[float, ...]
    n: int
    a: float
    estimator: str
    replications: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.estimator not in (ROSENBLATT, RECURSIVE):
            raise ValueError(f"unknown estimator kind: {self.estimator!r}")
        if self.n < 1 or self.replications < 1:
            raise ValueError("n and replications must be positive")
        if not 0.0 < self.a * self.dim < 1.0:
            raise ValueError("bandwidth exponent must satisfy 0 < a*d < 1")

    @property
    def dim(self) -> int:
        return self.model.dim

    @property
    def bandwidth(self) -> BandwidthPlan:
        return bandwidth_plan(1.0, self.a)

    @property
    def step(self) -> StepsizePlan:
        return variance_optimal_step(self.a, self.dim)

    @property
    def ci_factor(self) -> float:
        return 1.0 if self.estimator == ROSENBLATT else math.sqrt(1.0 - self.a * self.dim)


@dataclass(frozen=True)
class CellResult:
    """Empirical coverage (fraction), averaged interval length and coverage stderr."""

    empirical_level: float
    avg_length: float
    stderr_level: float


def replication_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator for one replication: Philox keyed by (seed, index)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _estimate_blocks(model, x, n: int, replications: int, seed: int, estimator: str,
                     step: StepsizePlan, bandwidth: BandwidthPlan) -> Iterator[np.ndarray]:
    """Draw replications 0..replications-1 in blocks and yield each block's
    estimates at ``x`` under the product Gaussian kernel, in replication order."""
    if estimator not in (ROSENBLATT, RECURSIVE):
        raise ValueError(f"unknown estimator kind: {estimator!r}")
    kernel = gaussian_kernel(model.dim)
    block = max(1, min(replications, _SAMPLE_BUDGET // max(n, 1)))
    for lo in range(0, replications, block):
        idx = range(lo, min(lo + block, replications))
        samples = np.stack([model.sample(replication_rng(seed, r), n) for r in idx])
        if estimator == RECURSIVE:
            yield recursive_batch(kernel, step, bandwidth, samples, x)
        else:
            yield rosenblatt_batch(kernel, bandwidth, samples, x)


def build_interval(g_x, c_factor: float, kernel: Kernel, n: int, h: float, d: int,
                   z: float = Z_95):
    """Confidence interval ``g(x) -+ z C sqrt(g(x) R / (n h^d))``.

    Vectorised over ``g_x``; a zero estimate gives the degenerate interval
    [0, 0].
    """
    g = np.asarray(g_x, dtype=float)
    half = z * c_factor * np.sqrt(g * kernel.roughness / (n * h**d))
    lo, hi = g - half, g + half
    if g.ndim == 0:
        return float(lo), float(hi)
    return lo, hi


def run_cell(cfg: CellConfig) -> CellResult:
    """Run one cell: per replication draw, estimate, build the interval,
    then aggregate coverage of the true density value and interval length."""
    kernel = gaussian_kernel(cfg.dim)
    x = np.asarray(cfg.x, dtype=float)
    f_true = cfg.model.pdf(x)
    h_n = float(cfg.bandwidth.value(cfg.n))
    covered = 0
    length_sum = 0.0
    for g in _estimate_blocks(cfg.model, x, cfg.n, cfg.replications, cfg.seed,
                              cfg.estimator, cfg.step, cfg.bandwidth):
        lo, hi = build_interval(g, cfg.ci_factor, kernel, cfg.n, h_n, cfg.dim)
        covered += int(np.count_nonzero((lo <= f_true) & (f_true <= hi)))
        length_sum += float(np.sum(hi - lo))
    p = covered / cfg.replications
    return CellResult(
        empirical_level=p,
        avg_length=length_sum / cfg.replications,
        stderr_level=math.sqrt(p * (1.0 - p) / cfg.replications),
    )


@dataclass(frozen=True)
class TableLayout:
    table: int
    density: str
    xs: Tuple[Tuple[float, ...], ...]
    a_values: Tuple[float, ...]
    ns: Tuple[int, ...]


_LAYOUTS = {
    1: ("gaussian", ((0.0,), (0.5,), (1.0,)), (0.21, 0.23)),
    2: ("mixture", ((0.0,), (0.5,), (1.0,)), (0.21, 0.23)),
    3: ("gaussian-2d", ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0)), (0.17, 0.19, 0.21)),
    4: ("mixture-2d", ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0)), (0.17, 0.19, 0.21, 0.24)),
}


def table_layout(table: int) -> TableLayout:
    """Grid of one benchmark table: density, points, bandwidth exponents, sizes."""
    if table not in _LAYOUTS:
        raise ValueError("table must be one of 1, 2, 3, 4")
    density, xs, a_values = _LAYOUTS[table]
    return TableLayout(table, density, xs, a_values, (50, 100, 200))


@dataclass(frozen=True)
class TableRow:
    table: int
    density: str
    x: Tuple[float, ...]
    a: float
    n: int
    estimator: str
    result: CellResult


def table_configs(table: int, seed: int, replications: int = 5000) -> List[CellConfig]:
    layout = table_layout(table)
    model = table_model(layout.density)
    cfgs = []
    for a in layout.a_values:
        for x in layout.xs:
            for n in layout.ns:
                for estimator in (ROSENBLATT, RECURSIVE):
                    cfgs.append(CellConfig(model, x, n, a, estimator, replications, seed))
    return cfgs


def run_table(table: int, seed: int, replications: int = 5000, jobs: int = 1) -> List[TableRow]:
    """Run a full benchmark table grid; ``jobs`` parallelises across cells
    without affecting any numeric result."""
    layout = table_layout(table)
    cfgs = table_configs(table, seed, replications)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_cell, cfgs, chunksize=1))
    else:
        results = [run_cell(c) for c in cfgs]
    return [
        TableRow(table, layout.density, cfg.x, cfg.a, cfg.n, cfg.estimator, res)
        for cfg, res in zip(cfgs, results)
    ]


def format_report(rows: Sequence[TableRow], meta: dict) -> str:
    """Render rows as the CSV report (comment header + one row per cell).

    Floating columns use 6 significant digits; the header echoes enough
    configuration to reproduce the file byte for byte.
    """
    buf = io.StringIO()
    for key, value in meta.items():
        buf.write(f"# {key}={value}\n")
    buf.write("table,density,x,a,n,estimator,empirical_level,stderr,avg_length,N,seed,kernel_id\n")
    for row in rows:
        xs = ";".join(f"{v:g}" for v in row.x)
        res = row.result
        kernel_id = f"gaussian-product(d={len(row.x)})"
        buf.write(
            f"{row.table},{row.density},{xs},{row.a:g},{row.n},{row.estimator},"
            f"{res.empirical_level:.6g},{res.stderr_level:.6g},{res.avg_length:.6g},"
            f"{meta.get('replications')},{meta.get('seed')},{kernel_id}\n"
        )
    return buf.getvalue()


@dataclass(frozen=True)
class MomentReport:
    """Across-replication mean bias and variance of an estimator at a point."""

    mean: float
    mean_bias: float
    variance: float
    replications: int


def empirical_moments(model, x, n: int, a: float, replications: int, seed: int = 0,
                      step: Optional[StepsizePlan] = None,
                      estimator: str = RECURSIVE,
                      bandwidth: Optional[BandwidthPlan] = None) -> MomentReport:
    """Monte Carlo moments of the chosen estimator at ``x``.

    ``step`` defaults to the variance-optimal plan; pass e.g.
    ``stepsize_plan(1.0)`` for the plain-average recursion.  ``bandwidth``
    defaults to the unit-scale plan ``n**-a``.
    """
    if replications < 100:
        raise ValueError("need at least 100 replications for stable moments")
    d = model.dim
    bw = bandwidth_plan(1.0, a) if bandwidth is None else bandwidth
    if step is None:
        step = variance_optimal_step(a, d)
    x = np.asarray(x, dtype=float)
    f_true = model.pdf(x)
    total = 0.0
    total_sq = 0.0
    for g in _estimate_blocks(model, x, n, replications, seed, estimator, step, bw):
        total += float(np.sum(g))
        total_sq += float(np.sum(g * g))
    mean = total / replications
    variance = (total_sq - replications * mean * mean) / (replications - 1)
    return MomentReport(mean, mean - f_true, variance, replications)


def _as_gaussian_mixture(model) -> GaussianMixture:
    if isinstance(model, GaussianMixture):
        return model
    if isinstance(model, LinearImage):
        base = _as_gaussian_mixture(model.base)
        a_mat = model.matrix
        return GaussianMixture(
            base.weights,
            base.means @ a_mat.T,
            np.einsum("ij,njk,lk->nil", a_mat, base.covs, a_mat),
            label=model.label,
        )
    raise TypeError("exact moments require a Gaussian-mixture-representable model")


def exact_moments(model, x, n: int, a: float, step: Optional[StepsizePlan] = None,
                  estimator: str = RECURSIVE,
                  bandwidth: Optional[BandwidthPlan] = None) -> Tuple[float, float]:
    """Exact finite-n mean and variance of the estimator at ``x`` under the
    product Gaussian kernel.

    Valid for Gaussian mixtures and their linear images, where the smoothed
    density and the squared-kernel smoothing are again Gaussian mixtures.
    Serves as a machine-precision oracle for :func:`empirical_moments` and
    quantifies how far the finite-n moments sit from their leading-order
    limits.
    """
    mix = _as_gaussian_mixture(model)
    d = mix.dim
    kernel = gaussian_kernel(d)
    x = np.asarray(x, dtype=float).reshape(d)
    k = np.arange(1, n + 1)
    plan = bandwidth_plan(1.0, a) if bandwidth is None else bandwidth
    h = np.asarray(plan.value(k), dtype=float)
    if estimator == RECURSIVE:
        if step is None:
            step = variance_optimal_step(a, d)
        c = recursion_weights(step, n)
    elif estimator == ROSENBLATT:
        h = np.full(n, float(plan.value(n)))
        c = np.full(n, 1.0 / n)
    else:
        raise ValueError(f"unknown estimator kind: {estimator!r}")

    ez = np.zeros(n)
    ez2 = np.zeros(n)
    for w, m, cov in zip(mix.weights, mix.means, mix.covs):
        lam, q = np.linalg.eigh(cov)
        dt = q.T @ (x - m)
        for shift, out in ((h * h, ez), (h * h / 2.0, ez2)):
            lam_s = lam[None, :] + shift[:, None]
            quad = np.sum(dt[None, :] ** 2 / lam_s, axis=1)
            det = np.prod(lam_s, axis=1)
            out += w * np.exp(-0.5 * quad) / np.sqrt((2.0 * math.pi) ** d * det)
    ez2 *= kernel.roughness / h**d
    mean = float(np.sum(c * ez))
    variance = float(np.sum(c * c * (ez2 - ez * ez)))
    return mean, variance


@dataclass(frozen=True)
class CltReport:
    """Sup-CDF distance of the standardised estimator against the normal limit."""

    distance: float
    threshold: float
    passed: bool
    replications: int
    slow_regime: bool
    sample_mean: float
    sample_std: float


def clt_empirical_check(model, x, n: int, a: float, replications: int = 2000,
                        seed: int = 0, step: Optional[StepsizePlan] = None,
                        variance: Optional[float] = None) -> CltReport:
    """Standardise ``sqrt(gamma_n^{-1} h_n^d) (f_n(x) - f(x))`` by the limit
    variance and measure the sup distance between its empirical CDF and the
    standard normal CDF.

    Requires an undersmoothing bandwidth (``n h_n^{d+4} -> 0``).  Plans with
    ``xi = 0`` converge slowly and are flagged, not gated.
    """
    d = model.dim
    if a * (d + 4) <= 1.0:
        raise ValueError("undersmoothing required: a*(d+4) must exceed 1")
    kernel = gaussian_kernel(d)
    bw = bandwidth_plan(1.0, a)
    if step is None:
        step = variance_optimal_step(a, d)
    x = np.asarray(x, dtype=float)
    f_true = model.pdf(x)
    if variance is None:
        variance = asymptotics.clt_params(0.0, f_true, 0.0, kernel, a, step).asym_var
    h_n = float(bw.value(n))
    gamma_n = float(step.seq.value(n))
    scale = math.sqrt(h_n**d / gamma_n)
    blocks = _estimate_blocks(model, x, n, replications, seed, RECURSIVE, step, bw)
    values = np.concatenate(list(blocks))
    z = np.sort(scale * (values - f_true) / math.sqrt(variance))
    cdf = ndtr(z)
    i = np.arange(1, replications + 1)
    distance = float(max(np.max(i / replications - cdf),
                         np.max(cdf - (i - 1) / replications)))
    threshold = KS_1PCT / math.sqrt(replications)
    return CltReport(
        distance=distance,
        threshold=threshold,
        passed=distance < threshold,
        replications=replications,
        slow_regime=step.xi == 0.0,
        sample_mean=float(np.mean(z)),
        sample_std=float(np.std(z, ddof=1)),
    )
