"""Deterministic Monte Carlo harness for confidence-interval coverage.

Reproduces the four benchmark coverage tables and provides the empirical
oracles (moments, CLT) used to validate the leading-order formulas.  Each
readout is a statistic of one vector per cell: its estimate in every
replication, from :func:`estimates`.  :func:`run_cell` draws its vectors; the
oracles take theirs, so cells of other checks can share the draw.  Every
interval and the CLT readout read one variance, :meth:`CellConfig.leading_variance`.

Determinism contract: replication r of a cell with master seed ``seed`` reads
two counter-based Philox streams keyed by ``(seed, r)``, each from its start:
its normals from counter 0 and, for a mixture, its component uniforms from the
counter whose top word is 1, 2^192 blocks beyond any normal it draws.  So its
sample at n is the first n rows of its sample at any larger n, and a
one-component model reads only the normals, as it always has.  Cells that share
(model, replications, seed) read prefixes of one draw at their largest n, N,
made once, one tile of replications at a time; the blocks are fixed by (N, d,
replications), and each block's tiles by N, so a run is bit-reproducible for a
given seed however its cells are scheduled across workers.  Within a tile,
each replication's streams fill only its own rows, and the component pick and
the Cholesky map then run once over the tile.  The Monte Carlo holds one tile
of samples and, at a point, one tile of their squared distances, never a
block.  Each tile is evaluated at every point before the next is drawn, the
cells at one point together (:func:`sakde.estimators.replication_estimates`);
their bits depend on the block and the cells' n, never on the workers, and not
on where a block is cut at a multiple of 4 rows with at least 4 after the cut.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from sakde import asymptotics, estimators
from sakde.densities import GaussianMixture, LinearImage, standard_gaussian
from sakde.estimators import recursion_weights, rosenblatt_coefficients
from sakde.kernels import gaussian_kernel, gaussian_roughness
from sakde.sequences import (BandwidthPlan, StepsizePlan, bandwidth_plan, is_integer,
                             stepsize_plan)

ROSENBLATT = "rosenblatt"
RECURSIVE = "recursive"

#: two-sided 95% normal quantile used throughout the benchmark tables
Z_95 = 1.96

#: 1% critical constant of the sup-CDF (Kolmogorov) statistic
KS_1PCT = 1.63

#: the shear that maps the 2-d table models' base densities
SHEAR = np.array([[1.0, 0.0], [0.5, 1.0]])


#: the four benchmark densities by name, each built only when its builder is called
TABLE_MODELS = {
    "gaussian": lambda: standard_gaussian(1),
    "mixture": lambda: GaussianMixture([0.5, 0.5], [[-0.5], [0.5]],
                                       np.broadcast_to(np.eye(1), (2, 1, 1))),
    "gaussian-2d": lambda: LinearImage(standard_gaussian(2), SHEAR),
    "mixture-2d": lambda: LinearImage(
        GaussianMixture([0.5, 0.5], [[0.5, 0.5], [-0.5, -0.5]],
                        np.broadcast_to(np.eye(2), (2, 2, 2))), SHEAR),
}


def table_model(name: str):
    """A new instance of the benchmark density ``name`` of :data:`TABLE_MODELS`."""
    if name not in TABLE_MODELS:
        raise ValueError(f"unknown model name: {name!r}")
    return TABLE_MODELS[name]()


@dataclass(frozen=True)
class CellConfig:
    """One estimand: an estimator of the density of ``model`` at ``x`` after ``n``
    observations, with ``replications`` Monte Carlo draws keyed by ``seed``.

    ``bandwidth`` and ``step`` default to the table protocol ``h_n = n^-a`` and
    ``gamma_n = gamma0/n``, ``gamma0`` the minimiser of the interval constant C;
    every branch on the estimator kind lives here.  ``x`` is stored as a tuple of
    floats, the key the cells at one point share.  ``seed`` lies in [0, 2^64).
    """

    model: object
    x: Tuple[float, ...]
    n: int
    a: float
    estimator: str
    replications: int = 5000
    seed: int = 0
    step: Optional[StepsizePlan] = None
    bandwidth: Optional[BandwidthPlan] = None

    def __post_init__(self):
        if self.estimator not in (ROSENBLATT, RECURSIVE):
            raise ValueError(f"unknown estimator kind: {self.estimator!r}")
        object.__setattr__(self, "x", tuple(estimators.as_point(self.x, self.dim).tolist()))
        if not all(is_integer(v) and v >= 1 for v in (self.n, self.replications)):
            raise ValueError("n and replications must be positive integers")
        if not (is_integer(self.seed) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        gamma0, _ = asymptotics.ci_constant_minimum(self.a, self.dim)  # raises unless 0 < a d < 1
        if self.bandwidth is None:
            object.__setattr__(self, "bandwidth", bandwidth_plan(1.0, self.a))
        elif self.bandwidth.a != self.a:
            raise ValueError(f"bandwidth exponent {self.bandwidth.a} disagrees with a = {self.a}")
        if self.step is None:
            object.__setattr__(self, "step", stepsize_plan(gamma0))

    @property
    def dim(self) -> int:
        return self.model.dim

    def leading_variance(self, f):
        """Leading variance of the estimate where the density is ``f`` (a number or
        array): ``gamma_n h_n^-d f R / (2 - (1 - a d) xi)`` for the recursion, ``f R /
        (n h_n^d)`` for the baseline; a recursive plan at the variance pole raises."""
        if self.estimator == RECURSIVE:
            return asymptotics.variance_leading(f, self.dim, self.bandwidth, self.step, self.n)
        return asymptotics.rosenblatt_variance(f, self.dim, self.n, self.bandwidth.value(self.n))

    @property
    def evaluation(self):
        """``(n, bandwidth, step)``, the cell as :func:`estimators.replication_estimates`
        evaluates it: step None for the baseline."""
        return self.n, self.bandwidth, self.step if self.estimator == RECURSIVE else None

    def coefficients(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(c_k, h_k)``, k = 1..n, with estimate ``sum_k c_k h_k^-d K((x - X_k)/h_k)``:
        the coefficients that :func:`estimates` sums for the cell, from the same plans."""
        if self.estimator == RECURSIVE:
            steps = np.arange(1, self.n + 1)
            return recursion_weights(self.step, self.n), self.bandwidth.value(steps)
        return rosenblatt_coefficients(self.n, self.bandwidth.value(self.n))


@dataclass(frozen=True)
class CellResult:
    """Empirical coverage (fraction), averaged interval length and coverage stderr."""

    empirical_level: float
    avg_length: float
    stderr_level: float


#: the top word of the Philox counter at which each stream of a replication starts
_NORMALS, _UNIFORMS = 0, 1

#: the streams, as the report header names them
RNG_LAYOUT = (f"philox4x64 key=(seed, replication_index), normals from counter "
              f"(0, 0, 0, {_NORMALS}), component uniforms from counter (0, 0, 0, {_UNIFORMS})")


def _rekey(bit_generator: np.random.Philox, seed: int, index: int,
           stream: int) -> np.random.Generator:
    """``bit_generator`` rekeyed in place to ``(seed, index)`` at the counter whose
    top word is ``stream``, with an empty buffer: a new Philox's stream at a
    fraction of the cost (the state is plain ints and lists, so numpy builds no
    array), which ends the stream of any generator handed out on it before."""
    bit_generator.state = {"bit_generator": "Philox",
                           "state": {"counter": [0, 0, 0, stream], "key": [seed, index]},
                           "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0,
                           "uinteger": 0}
    return np.random.Generator(bit_generator)


def replication_rng(seed: int, index: int,
                    bit_generator: Optional[np.random.Philox] = None) -> np.random.Generator:
    """Counter-based generator of one replication's normals: Philox keyed by
    (seed, index), at counter 0.  Given a ``bit_generator``, rekeys that Philox
    in place (:func:`_rekey`) instead of building one."""
    if bit_generator is None:
        key = np.array([seed, index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, _NORMALS]))
    return _rekey(bit_generator, seed, index, _NORMALS)


def _draw(model, seed: int, lo: int, hi: int, count: int) -> np.ndarray:
    """Replications ``lo`` to ``hi - 1`` of ``model`` at ``count`` draws each, shape
    (hi - lo, count, dim): replication r reads its normals from
    ``replication_rng(seed, r)`` and a mixture its component uniforms from the
    same key's second stream, on one Philox rekeyed in turn."""
    philox, reps = np.random.Philox(0), range(lo, hi)
    return model.sample_block((replication_rng(seed, r, philox) for r in reps),
                              (_rekey(philox, seed, r, _UNIFORMS) for r in reps), hi - lo, count)


def _shared_draw(cfgs: Sequence[CellConfig]) -> CellConfig:
    """The first of ``cfgs``, once they are known to be a nonempty list of cells
    that read prefixes of one draw: their samples depend on (model,
    replications, seed) alone."""
    if not cfgs:
        raise ValueError("need at least one cell")
    if len({(cfg.model, cfg.replications, cfg.seed) for cfg in cfgs}) > 1:
        raise ValueError("cells drawn together must share (model, replications, seed)")
    return cfgs[0]


def estimates(*cfgs: CellConfig) -> List[np.ndarray]:
    """One ``(replications,)`` vector of estimates per cell, in replication order;
    the cells share (model, replications, seed), and each reads the first n rows
    of one draw at their largest n, N.  Each tile of replications is drawn once,
    just before the cells at every point are evaluated on it
    (:func:`estimators.replication_estimates`), so no block is held whole."""
    first = _shared_draw(cfgs)
    top = max(cfg.n for cfg in cfgs)
    return estimators.replication_estimates(
        [(cfg.x, cfg.evaluation) for cfg in cfgs], first.replications, top, first.dim,
        lambda lo, hi: _draw(first.model, first.seed, lo, hi, top))


def build_interval(g_x: np.ndarray, cfg: CellConfig):
    """Confidence intervals ``g(x) -+ Z_95 sqrt(V(g(x)))``, one per entry of the
    estimate vector ``g_x``, with ``V`` the cell's leading variance.  A kernel sum
    with positive coefficients is never exactly 0 (the kernel's floor keeps every
    term positive); a zero estimate would give the degenerate interval [0, 0]."""
    half = Z_95 * np.sqrt(cfg.leading_variance(g_x))
    return g_x - half, g_x + half


def run_cell(*cfgs: CellConfig) -> List[CellResult]:
    """Each cell's coverage of its true density value and average interval
    length; the cells share (model, replications, seed)."""
    for cfg in cfgs:
        cfg.leading_variance(1.0)  # a variance pole raises before any draw
    results = []
    for cfg, g in zip(cfgs, estimates(*cfgs)):
        reps = cfg.replications
        f_true = cfg.model.pdf(np.asarray(cfg.x, dtype=float))
        lo, hi = build_interval(g, cfg)
        p = np.count_nonzero((lo <= f_true) & (f_true <= hi)) / reps
        results.append(CellResult(p, float(np.sum(hi - lo)) / reps, math.sqrt(p * (1 - p) / reps)))
    return results


@dataclass(frozen=True)
class TableLayout:
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
    return TableLayout(density, xs, a_values, (50, 100, 200))


@dataclass(frozen=True)
class TableRow:
    """One cell of a benchmark table and its Monte Carlo result."""

    table: int
    density: str
    cell: CellConfig
    result: CellResult


def table_configs(table: int, seed: int, replications: int) -> List[CellConfig]:
    layout = table_layout(table)
    model = table_model(layout.density)
    grid = itertools.product(layout.a_values, layout.xs, layout.ns, (ROSENBLATT, RECURSIVE))
    return [CellConfig(model, x, n, a, estimator, replications, seed)
            for a, x, n, estimator in grid]


def run_table(table: int, seed: int, replications: int, jobs: int) -> List[TableRow]:
    """Run a full benchmark table grid.  Every cell reads a prefix of one draw of
    the table's replications at its largest n.  With ``jobs`` > 1, the cells of
    each bandwidth exponent go whole to one of at most ``jobs`` workers, each of
    which draws the table's blocks once for all its cells: that changes no
    number."""
    layout = table_layout(table)
    cfgs = table_configs(table, seed, replications)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs it: 20 ms to import
        workers = min(jobs, len(layout.a_values))
        groups = [[cfg for cfg in cfgs if cfg.a in layout.a_values[w::workers]]
                  for w in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_cell, *group) for group in groups]
            outputs = [future.result() for future in futures]
        results = dict(zip(itertools.chain(*groups), itertools.chain(*outputs)))
    else:
        results = dict(zip(cfgs, run_cell(*cfgs)))
    return [TableRow(table, layout.density, cfg, results[cfg]) for cfg in cfgs]


def format_report(rows: Sequence[TableRow], meta: dict) -> str:
    """Render rows as the CSV report (comment header + one row per cell).

    Floating columns use 6 significant digits; x, a, n, the estimator, N and
    the seed are the cell's, and the header echoes enough configuration to
    reproduce the file byte for byte.
    """
    buf = io.StringIO()
    for key, value in meta.items():
        buf.write(f"# {key}={value}\n")
    buf.write("table,density,x,a,n,estimator,empirical_level,stderr,avg_length,N,seed,kernel_id\n")
    for row in rows:
        cell, res = row.cell, row.result
        xs = ";".join(f"{v:g}" for v in cell.x)
        buf.write(
            f"{row.table},{row.density},{xs},{cell.a:g},{cell.n},{cell.estimator},"
            f"{res.empirical_level:.6g},{res.stderr_level:.6g},{res.avg_length:.6g},"
            f"{cell.replications},{cell.seed},{gaussian_kernel(cell.dim).name}\n"
        )
    return buf.getvalue()


def _check_estimates(cfg: CellConfig, g: np.ndarray) -> None:
    """The guard of every readout: enough replications for a stable statistic,
    and one estimate of the cell per replication."""
    if cfg.replications < 100:
        raise ValueError(f"need at least 100 replications, got {cfg.replications}")
    if np.shape(g) != (cfg.replications,):
        raise ValueError(f"estimates must have shape ({cfg.replications},), got {np.shape(g)}")


def empirical_moments(cfg: CellConfig, g: np.ndarray) -> Tuple[float, float]:
    """Monte Carlo mean and variance of the cell's estimator at its point, from
    its estimates ``g``: the pair that :func:`exact_moments` gives exactly."""
    _check_estimates(cfg, g)
    return float(np.mean(g)), float(np.var(g, ddof=1))


def exact_moments(cfg: CellConfig) -> Tuple[float, float]:
    """Exact finite-n mean and variance of the cell's estimator at its point
    under the product Gaussian kernel.

    With the cell's :meth:`CellConfig.coefficients` ``(c_k, h_k)``, term k has mean
    :meth:`GaussianMixture.smoothed_pdf` at ``s = h_k^2`` and second moment
    ``R h_k^-d`` times it at ``h_k^2 / 2``: a machine-precision oracle for
    :func:`empirical_moments` and for the finite-n distance from the leading order.
    """
    c, h = cfg.coefficients()
    ez = cfg.model.smoothed_pdf(cfg.x, h * h)
    ez2 = cfg.model.smoothed_pdf(cfg.x, h * h / 2.0) * (gaussian_roughness(cfg.dim) / h**cfg.dim)
    mean = float(np.sum(c * ez))
    variance = float(np.sum(c * c * (ez2 - ez * ez)))
    return mean, variance


@dataclass(frozen=True)
class CltReport:
    """Sup-CDF distance of the estimator, standardised by its leading variance, from Phi."""

    distance: float
    threshold: float
    passed: bool
    sample_mean: float
    sample_std: float


def clt_empirical_check(cfg: CellConfig, g: np.ndarray) -> CltReport:
    """Standardise ``(f_n(x) - f(x)) / sqrt(V(f(x)))`` over the cell's vector
    ``g`` of estimates, with ``V`` its :meth:`CellConfig.leading_variance`, and
    measure the sup distance between its empirical CDF and the standard normal
    CDF.  Any cell with a leading variance can be read, recursive or baseline.

    Requires an undersmoothing bandwidth (``n h_n^{d+4} -> 0``).
    """
    if cfg.a * (cfg.dim + 4) <= 1.0:
        raise ValueError("undersmoothing required: a*(d+4) must exceed 1")
    _check_estimates(cfg, g)
    f_true = cfg.model.pdf(np.asarray(cfg.x, dtype=float))
    reps = cfg.replications
    z = np.sort((g - f_true) / math.sqrt(cfg.leading_variance(f_true)))
    cdf = 0.5 * np.array([math.erfc(-v / math.sqrt(2.0)) for v in z.tolist()])
    i = np.arange(1, reps + 1)
    distance = float(max(np.max(i / reps - cdf),
                         np.max(cdf - (i - 1) / reps)))
    threshold = KS_1PCT / math.sqrt(reps)
    return CltReport(
        distance=distance,
        threshold=threshold,
        passed=distance < threshold,
        sample_mean=float(np.mean(z)),
        sample_std=float(np.std(z, ddof=1)),
    )
