import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import multivariate_normal

from sakde import asymptotics, checks, densities, estimators, mc
from sakde.densities import GaussianMixture, LinearImage, standard_gaussian
from sakde.kernels import gaussian_roughness
from sakde.reference import REFERENCE_CELLS
from sakde.sequences import bandwidth_plan, stepsize_plan

PHI0 = 1 / math.sqrt(2 * math.pi)


def _cell(n, estimator):
    """A 1-d N(0, 1) cell at the origin with a = 0.21, at the table protocol."""
    return mc.CellConfig(mc.table_model("gaussian"), (0.0,), n, 0.21, estimator)


def test_build_interval_arithmetic_example():
    n, h = 50, 50.0**-0.21
    lo, hi = mc.build_interval(np.array([0.39894]), _cell(n, mc.ROSENBLATT))
    expected_half = 1.96 * math.sqrt(0.39894 * gaussian_roughness(1) / (n * h))
    assert hi[0] - lo[0] == pytest.approx(2 * expected_half, rel=1e-12)
    assert hi[0] - lo[0] == pytest.approx(0.2804, abs=1e-4)


def test_build_interval_degenerate_at_zero():
    lo, hi = mc.build_interval(np.zeros(1), _cell(50, mc.ROSENBLATT))
    assert lo[0] == hi[0] == 0.0


def test_build_interval_length_ratio_is_ci_factor():
    # at the protocol gain (1 - a d)/n the recursive interval is C = sqrt(1 - a d)
    # times the baseline's at the same (n, a)
    g = np.array([0.39894])
    lo1, hi1 = mc.build_interval(g, _cell(50, mc.ROSENBLATT))
    lo2, hi2 = mc.build_interval(g, _cell(50, mc.RECURSIVE))
    assert (hi2 - lo2) / (hi1 - lo1) == pytest.approx(math.sqrt(0.79), rel=1e-14)


def test_build_interval_vectorised():
    g = np.array([0.0, 0.2, 0.4])
    lo, hi = mc.build_interval(g, _cell(100, mc.ROSENBLATT))
    assert lo.shape == hi.shape == (3,)
    assert lo[0] == hi[0] == 0.0


def test_replication_rng_is_deterministic_and_distinct():
    a = mc.replication_rng(42, 3).standard_normal(5)
    b = mc.replication_rng(42, 3).standard_normal(5)
    c = mc.replication_rng(42, 4).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_cell_result_stderr_is_binomial():
    cfg = mc.CellConfig(mc.table_model("gaussian"), (0.0,), 50, 0.21,
                        mc.ROSENBLATT, replications=200, seed=1)
    (res,) = mc.run_cell(cfg)
    p = res.empirical_level
    assert res.stderr_level == pytest.approx(math.sqrt(p * (1 - p) / 200), rel=1e-15)


def test_single_replication_cell():
    cfg = mc.CellConfig(mc.table_model("gaussian"), (0.0,), 50, 0.21,
                        mc.ROSENBLATT, replications=1, seed=9)
    (res,) = mc.run_cell(cfg)
    assert res.empirical_level in (0.0, 1.0)
    # reproduce the single replication by hand
    sample = mc.table_model("gaussian").sample(mc.replication_rng(9, 0), 50)
    from sakde.estimators import rosenblatt_batch
    g = rosenblatt_batch(cfg.bandwidth, sample[None, :, :], np.zeros(1))
    (lo,), (hi,) = mc.build_interval(g, cfg)
    assert res.avg_length == pytest.approx(hi - lo, rel=1e-12)
    assert res.empirical_level == float(lo <= PHI0 <= hi)


def test_run_cell_deterministic():
    cfg = mc.CellConfig(mc.table_model("mixture"), (0.5,), 100, 0.23,
                        mc.RECURSIVE, replications=300, seed=7)
    assert mc.run_cell(cfg) == mc.run_cell(cfg)


def test_run_table_rows_and_grid():
    rows = mc.run_table(1, seed=3, replications=20, jobs=1)
    assert len(rows) == 36  # 2 exponents x 3 points x 3 sizes x 2 estimators
    layout = mc.table_layout(1)
    assert layout.ns == (50, 100, 200)
    assert mc.table_layout(4).a_values == (0.17, 0.19, 0.21, 0.24)
    with pytest.raises(ValueError):
        mc.table_layout(5)


def test_run_table_parallel_is_bit_identical():
    meta = {"seed": 11, "replications": 30}
    serial = mc.format_report(mc.run_table(2, seed=11, replications=30, jobs=1), meta)
    parallel = mc.format_report(mc.run_table(2, seed=11, replications=30, jobs=2), meta)
    assert serial == parallel


def test_format_report_header_and_digits():
    rows = mc.run_table(1, seed=5, replications=10, jobs=1)
    text = mc.format_report(rows, {"seed": 5, "replications": 10})
    lines = text.strip().split("\n")
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == ("table,density,x,a,n,estimator,empirical_level,stderr,"
                      "avg_length,N,seed,kernel_id")
    first = [ln for ln in lines if not ln.startswith("#")][1].split(",")
    assert first[0] == "1" and first[1] == "gaussian"
    assert len(first) == 12
    # six significant digits on the floating columns
    assert all(len(tok.replace(".", "").replace("-", "").lstrip("0")) <= 6
               for tok in first[6:9])
    # N and seed are each row's cell's, whatever the header echoes
    assert first[9:11] == ["10", "5"]
    assert mc.format_report(rows, {}) == text[text.index("table,"):]


def test_empirical_moments_match_exact_oracle():
    # exact finite-n moments are closed form under the Gaussian kernel
    model = mc.table_model("gaussian")
    n, a, reps = 300, 0.21, 3000
    labels, cells = zip(*(
        (label, mc.CellConfig(model, (0.0,), n, a, estimator, reps, seed=2, step=step))
        for label, step, estimator in (
            ("recursive", stepsize_plan(1.0 - a), mc.RECURSIVE),
            ("plain-average", stepsize_plan(1.0), mc.RECURSIVE),
            ("rosenblatt", None, mc.ROSENBLATT),
        )))
    for label, cell, g in zip(labels, cells, mc.estimates(*cells)):
        (mean, var), (ex_mean, ex_var) = mc.empirical_moments(cell, g), mc.exact_moments(cell)
        assert mean == pytest.approx(ex_mean, abs=5 * math.sqrt(ex_var / reps)), label
        assert var == pytest.approx(ex_var, rel=5 * math.sqrt(2 / reps)), label


def _moments(*cells):
    """Each cell's moments, read from one draw of the cells' estimates."""
    return [mc.empirical_moments(cell, g) for cell, g in zip(cells, mc.estimates(*cells))]


@pytest.mark.parametrize("readout", [_moments, mc.run_cell],
                         ids=["empirical_moments", "run_cell"])
def test_empirical_moments_of_cells_drawn_together_equal_separate_runs(monkeypatch, readout):
    # one draw of each block serves every cell, without changing any cell's
    # readout; the budget splits the replications into blocks of 40
    monkeypatch.setattr(estimators, "SCALAR_BUDGET", 80 * 40)
    model = mc.table_model("mixture")
    cells = [mc.CellConfig(model, x, 80, 0.21, est, 150, seed=4)
             for x in ((0.0,), (0.5,)) for est in (mc.RECURSIVE, mc.ROSENBLATT)]
    assert readout(*cells) == [readout(c)[0] for c in cells]


def test_exact_moments_rosenblatt_matches_direct_formula():
    # single-bandwidth case: E g = (f * K_h)(x), Var g = Var Z / n
    model = mc.table_model("gaussian")
    n, a = 123, 0.21
    h = float(n) ** -a
    mean, var = mc.exact_moments(mc.CellConfig(model, (0.0,), n, a, mc.ROSENBLATT))
    ez = math.exp(0.0) / math.sqrt(2 * math.pi * (1 + h * h))
    ez2 = gaussian_roughness(1) / h / math.sqrt(2 * math.pi * (1 + h * h / 2))
    assert mean == pytest.approx(ez, rel=1e-12)
    assert var == pytest.approx((ez2 - ez * ez) / n, rel=1e-12)


def test_exact_moments_linear_image_matches_monte_carlo():
    model = mc.table_model("gaussian-2d")
    n, a, reps = 100, 0.19, 4000
    cell = mc.CellConfig(model, (0.5, 0.5), n, a, mc.RECURSIVE, reps, seed=6)
    mean, var = mc.empirical_moments(cell, *mc.estimates(cell))
    ex_mean, ex_var = mc.exact_moments(cell)
    assert mean == pytest.approx(ex_mean, abs=5 * math.sqrt(ex_var / reps))
    assert var == pytest.approx(ex_var, rel=5 * math.sqrt(2 / reps))


def _exact_moment_cells():
    """Each table model at its second point and first a, both estimators, n = 50
    and 200, and one recursive 3-d cell."""
    for table in (1, 2, 3, 4):
        layout = mc.table_layout(table)
        model = mc.table_model(layout.density)
        yield from (mc.CellConfig(model, layout.xs[1], n, layout.a_values[0], estimator)
                    for estimator in (mc.ROSENBLATT, mc.RECURSIVE) for n in (50, 200))
    yield mc.CellConfig(MODELS["image-3d"], (0.5, -0.5, 0.0), 200, 0.15, mc.RECURSIVE)


def test_exact_moments_match_sums_of_scipy_normal_densities():
    # E Z_k = sum_i w_i N(x; m_i, S_i + h_k^2 I) and E Z_k^2 = (4 pi)^(-d/2) h_k^-d
    # sum_i w_i N(x; m_i, S_i + h_k^2/2 I), with scipy called once per distinct h
    oracle = {}

    def z_moments(model, x, h):
        key = (id(model), x, h)
        if key not in oracle:
            d = model.dim
            smoothed = [sum(w * multivariate_normal(m, cov + v * np.eye(d)).pdf(x)
                            for w, m, cov in zip(model.weights, model.means, model.covs))
                        for v in (h * h, h * h / 2.0)]
            oracle[key] = (smoothed[0], (4 * math.pi) ** (-d / 2) * h**-d * smoothed[1])
        return oracle[key]

    for cell in _exact_moment_cells():
        c, h = cell.coefficients()
        ez, ez2 = np.array([z_moments(cell.model, cell.x, v) for v in h.tolist()]).T
        expected = (np.sum(c * ez), np.sum(c * c * (ez2 - ez * ez)))
        assert mc.exact_moments(cell) == pytest.approx(expected, rel=1e-12, abs=0), cell


def test_mise_monte_carlo_matches_exact_finite_n():
    # MC integrated squared error against the exact finite-n MISE; the
    # leading-order constant overshoots the exact value at moderate n
    # because of the same second-order variance term seen pointwise.
    from sakde import asymptotics as asy
    from sakde.estimators import recursive_batch

    model = mc.table_model("gaussian")
    integral = 3.0 / (8.0 * math.sqrt(math.pi))
    plan, step = asy.mise_optimal_plan(integral, 1), stepsize_plan(1.0)
    n, reps = 1500, 300
    a = plan.bandwidth.a

    grid = np.linspace(-8.0, 8.0, 161)
    f_true = model.pdf(grid[:, None])
    samples = np.stack([model.sample(mc.replication_rng(31, r), n) for r in range(reps)])
    sq_err = np.zeros((reps, grid.size))
    for j, x in enumerate(grid):
        g = recursive_batch(step, plan.bandwidth, samples, np.array([x]))
        sq_err[:, j] = (g - f_true[j]) ** 2
    ise = np.trapezoid(sq_err, grid, axis=1)
    mc_mise = float(ise.mean())
    stderr = float(ise.std(ddof=1)) / math.sqrt(reps)

    pointwise = np.array([
        mc.exact_moments(mc.CellConfig(model, (x,), n, a, mc.RECURSIVE, step=step,
                                       bandwidth=plan.bandwidth))
        for x in grid
    ])
    exact_mise = float(np.trapezoid((pointwise[:, 0] - f_true) ** 2 + pointwise[:, 1], grid))

    assert mc_mise == pytest.approx(exact_mise, abs=5 * stderr)
    # regression pin for the finite-n-to-leading-order gap at this n
    assert exact_mise / plan.mse(n) == pytest.approx(0.798, abs=0.02)


def test_length_ratio_approaches_ci_factor():
    # recursive/baseline averaged-length ratio near sqrt(1 - ad) at n = 200
    model = mc.table_model("gaussian")
    common = dict(x=(1.0,), n=200, a=0.21, replications=5000, seed=13)
    (ros,) = mc.run_cell(mc.CellConfig(model, estimator=mc.ROSENBLATT, **common))
    (rec,) = mc.run_cell(mc.CellConfig(model, estimator=mc.RECURSIVE, **common))
    ratio = rec.avg_length / ros.avg_length
    assert ratio == pytest.approx(math.sqrt(1 - 0.21), rel=0.02)


def test_clt_check_passes_on_low_distortion_config():
    model = LinearImage(standard_gaussian(1), [[2.0]])
    cfg = mc.CellConfig(model, (2.0,), 2000, 0.21, mc.RECURSIVE, replications=1000, seed=3)
    (values,) = mc.estimates(cfg)
    report = mc.clt_empirical_check(cfg, values)
    assert report.passed
    assert report.threshold == pytest.approx(1.63 / math.sqrt(1000), rel=1e-12)
    # oracle: the same sup distance with scipy's normal CDF, which the package does not import
    cdf = ndtr(np.sort(_standardised(cfg, values)))
    i = np.arange(1, 1001)
    distance = max(np.max(i / 1000 - cdf), np.max(cdf - (i - 1) / 1000))
    assert abs(distance - report.distance) <= 1e-15


def test_clt_check_fails_when_variance_is_mis_scaled(monkeypatch):
    # the leading variance the readout standardises by, made 4 times too large
    leading = asymptotics.variance_leading
    monkeypatch.setattr(asymptotics, "variance_leading", lambda *args: 4.0 * leading(*args))
    model = LinearImage(standard_gaussian(1), [[2.0]])
    cfg = mc.CellConfig(model, (2.0,), 2000, 0.21, mc.RECURSIVE, replications=1000, seed=3)
    report = mc.clt_empirical_check(cfg, *mc.estimates(cfg))
    assert not report.passed
    assert report.sample_std == pytest.approx(0.5, abs=0.1)


def test_clt_check_reads_a_slow_regime_plan():
    # alpha < 1 (xi = 0): the readout standardises by the gain itself
    cfg = mc.CellConfig(mc.table_model("gaussian"), (1.0,), 500, 0.21, mc.RECURSIVE,
                        replications=400, seed=5, step=stepsize_plan(1.0, alpha=0.7))
    report = mc.clt_empirical_check(cfg, *mc.estimates(cfg))
    assert report.distance > 0


def test_clt_check_standardises_a_baseline_cell_by_its_variance():
    # the baseline's leading variance is f R / (n h^d): its readout needs no gain
    model = LinearImage(standard_gaussian(1), [[2.0]])
    cfg = mc.CellConfig(model, (2.0,), 2000, 0.21, mc.ROSENBLATT, replications=1000, seed=3)
    (values,) = mc.estimates(cfg)
    report = mc.clt_empirical_check(cfg, values)
    assert report.passed
    cdf = ndtr(np.sort(_standardised(cfg, values)))
    i = np.arange(1, 1001)
    distance = max(np.max(i / 1000 - cdf), np.max(cdf - (i - 1) / 1000))
    assert abs(distance - report.distance) <= 1e-15


def test_clt_check_requires_undersmoothing():
    with pytest.raises(ValueError):
        mc.clt_empirical_check(mc.CellConfig(mc.table_model("gaussian"), (0.0,), 500, 0.15,
                                             mc.RECURSIVE, replications=200), np.zeros(200))


@pytest.mark.parametrize("readout", [mc.empirical_moments, mc.clt_empirical_check],
                         ids=["empirical_moments", "clt_empirical_check"])
@pytest.mark.parametrize("shape", [(199,), (201,), (200, 1), (1, 200), ()],
                         ids=["short", "long", "column", "row", "scalar"])
def test_readouts_reject_a_vector_of_another_cell(readout, shape):
    # a vector of another replication count, or not a vector, never reaches the
    # arithmetic, which would raise TypeError on these None entries
    cfg = mc.CellConfig(mc.table_model("gaussian"), (1.0,), 500, 0.21, mc.RECURSIVE, 200)
    with pytest.raises(ValueError, match=r"^estimates must have shape \(200,\), got "):
        readout(cfg, np.full(shape, None))


def test_readouts_check_their_cell_before_its_vector():
    gaussian = mc.table_model("gaussian")
    for readout, cfg, message in (
            (mc.empirical_moments, mc.CellConfig(gaussian, (1.0,), 500, 0.21, mc.RECURSIVE, 99),
             "at least 100 replications"),
            (mc.clt_empirical_check, mc.CellConfig(gaussian, (1.0,), 500, 0.21, mc.RECURSIVE, 99),
             "at least 100 replications"),
            (mc.clt_empirical_check, mc.CellConfig(gaussian, (1.0,), 500, 0.21, mc.RECURSIVE, 1),
             "at least 100 replications"),
            (mc.clt_empirical_check, mc.CellConfig(gaussian, (1.0,), 500, 0.15, mc.RECURSIVE,
                                                   200), "undersmoothing")):
        with pytest.raises(ValueError, match=message):
            readout(cfg, np.zeros(3))


def _standardised(cfg, g):
    """``(g - f(x)) / sqrt(V)``, with V the leading variance of the cell's estimator
    taken from its formula here, not from the cell."""
    f_true = cfg.model.pdf(np.asarray(cfg.x))
    if cfg.estimator == mc.ROSENBLATT:
        h = float(cfg.bandwidth.value(cfg.n))
        variance = asymptotics.rosenblatt_variance(f_true, cfg.dim, cfg.n, h)
    else:
        variance = asymptotics.variance_leading(f_true, cfg.dim, cfg.bandwidth, cfg.step, cfg.n)
    return (g - f_true) / math.sqrt(variance)


@pytest.mark.parametrize("seed", range(4))
def test_clt_cell_on_a_dilated_gaussian_is_a_rescaled_standard_cell(seed):
    # X = 3 Z: at x = 3 with h_n, the N(0, 9) estimate and true value are one
    # third of the N(0, 1) ones at x = 1 with h_n / 3, so the standardised
    # statistic is the same; `check full` reads its CLT gate this way
    scaled = mc.CellConfig(LinearImage(standard_gaussian(1), [[3.0]]), (3.0,), 2000, 0.21,
                           mc.RECURSIVE, 200, seed)
    standard = mc.CellConfig(standard_gaussian(1), (1.0,), 2000, 0.21, mc.RECURSIVE, 200,
                             seed, bandwidth=bandwidth_plan(1 / 3, 0.21))
    cells = (scaled, standard)
    vectors = [mc.estimates(cfg)[0] for cfg in cells]
    np.testing.assert_allclose(*(_standardised(cfg, g) for cfg, g in zip(cells, vectors)),
                               rtol=0, atol=1e-12)
    ours, theirs = (mc.clt_empirical_check(cfg, g) for cfg, g in zip(cells, vectors))
    for field in ("distance", "sample_mean", "sample_std"):
        assert getattr(ours, field) == pytest.approx(getattr(theirs, field), rel=0, abs=1e-12)


def test_table_model_names():
    assert mc.table_model("gaussian").dim == 1
    assert mc.table_model("mixture").dim == 1
    assert mc.table_model("gaussian-2d").dim == 2
    assert mc.table_model("mixture-2d").dim == 2
    with pytest.raises(ValueError):
        mc.table_model("cauchy")
    assert tuple(mc.TABLE_MODELS) == ("gaussian", "mixture", "gaussian-2d", "mixture-2d")
    assert mc.table_model("mixture") is not mc.table_model("mixture")  # built per call


def test_reference_cells_are_the_table_cells():
    # one golden entry per table cell, under the key checks.reference_deviations looks up
    cells = [(table, tuple(cfg.x), cfg.a, cfg.n, cfg.estimator)
             for table in (1, 2, 3, 4) for cfg in mc.table_configs(table, 0, 1)]
    assert len(set(cells)) == len(cells) == len(REFERENCE_CELLS)
    assert set(cells) == set(REFERENCE_CELLS)


def test_cell_config_validation():
    model = mc.table_model("gaussian")
    with pytest.raises(ValueError):
        mc.CellConfig(model, (0.0,), 50, 0.21, "median", 10, 0)
    with pytest.raises(ValueError):
        mc.CellConfig(model, (0.0,), 0, 0.21, mc.ROSENBLATT, 10, 0)
    with pytest.raises(ValueError, match=r"^a\*d must lie in \(0, 1\), got 1.2$"):
        mc.CellConfig(mc.table_model("gaussian-2d"), (0.0, 0.0), 50, 0.6,
                      mc.ROSENBLATT, 10, 0)
    with pytest.raises(ValueError, match="disagrees"):
        mc.CellConfig(model, (0.0,), 50, 0.21, mc.RECURSIVE, bandwidth=bandwidth_plan(1.0, 0.2))
    for n, reps in ((50.5, 10), (50.0, 10), (50, 10.5), (50, True), (True, 10), (50, 0)):
        with pytest.raises(ValueError, match="n and replications must be positive integers"):
            mc.CellConfig(model, (0.0,), n, 0.21, mc.ROSENBLATT, reps, 0)
    assert mc.CellConfig(model, (0.0,), np.int64(50), 0.21, mc.ROSENBLATT, np.int32(10)).n == 50
    # a seed is one word of the Philox key: -1 would run on the key 2^64 - 1
    # and 2^64 on the key 0, each under its own name
    for seed in (-1, 2**64, 2**64 + 42, 1.5, 42.0, True, "42", None):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
            mc.CellConfig(model, (0.0,), 50, 0.21, mc.ROSENBLATT, 10, seed)
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1), np.int32(7)):
        assert mc.CellConfig(model, (0.0,), 50, 0.21, mc.ROSENBLATT, 10, seed).seed == seed


@pytest.mark.parametrize("x", [[0.0], np.zeros(1), (np.float64(0.0),), (0,)],
                         ids=["list", "ndarray", "numpy-float", "int"])
def test_cell_config_stores_x_as_a_tuple_of_floats(x):
    # a point given as any sequence of numbers is the tuple's cell: the cells at
    # one point share it as a key, and a list or an array is no key
    model = mc.table_model("gaussian")
    cfg = mc.CellConfig(model, x, 50, 0.21, mc.RECURSIVE, 100, 1)
    assert type(cfg.x) is tuple and [type(v) for v in cfg.x] == [float]
    assert cfg == mc.CellConfig(model, (0.0,), 50, 0.21, mc.RECURSIVE, 100, 1)
    assert mc.run_cell(cfg) == mc.run_cell(dataclasses.replace(cfg, x=(0.0,)))


@pytest.mark.parametrize("model, x", [
    ("gaussian", (math.nan,)), ("gaussian", (math.inf,)),
    ("gaussian-2d", (0.0,)), ("gaussian", (0.0, 0.0)),
    ("gaussian", ("a",)), ("gaussian", (None,)), ("gaussian", ("0.5",)), ("gaussian", (1 + 2j,)),
], ids=["nan", "inf", "1d-point-on-2d", "2d-point-on-1d", "str", "none", "numeric-str", "complex"])
def test_cell_config_rejects_a_point_it_cannot_score(model, x):
    # a point of the wrong length or kind, or with a non-finite coordinate, never reaches a draw
    with pytest.raises(ValueError, match="^x must be"):
        mc.CellConfig(mc.table_model(model), x, 50, 0.17, mc.RECURSIVE, 100, 0)


def test_cell_config_defaults_to_table_protocol():
    for table in (1, 2, 3, 4):
        for cfg in mc.table_configs(table, seed=0, replications=5000):
            assert cfg.bandwidth == bandwidth_plan(1.0, cfg.a)
            assert cfg.step == stepsize_plan(1.0 - cfg.a * cfg.dim)
            # the interval's variance is the C form C^2 f R / (n h^d), with C = 1 for
            # the baseline and C = sqrt(1 - a d) for the recursion at its protocol gain
            c2 = 1.0 if cfg.estimator == mc.ROSENBLATT else 1 - cfg.a * cfg.dim
            f = cfg.model.pdf(np.asarray(cfg.x))
            h = float(cfg.bandwidth.value(cfg.n))
            expected = c2 * f * gaussian_roughness(cfg.dim) / (cfg.n * h**cfg.dim)
            assert cfg.leading_variance(f) == pytest.approx(expected, rel=1e-15)


def test_sample_blocks_follow_scalar_budget(monkeypatch):
    calls, draw = [], mc._draw

    def counting(*args):
        calls.append(1)
        return draw(*args)

    monkeypatch.setattr(mc, "_draw", counting)
    cfg = mc.CellConfig(mc.table_model("gaussian-2d"), (0.5, 0.5), 50, 0.19,
                        mc.RECURSIVE, replications=300, seed=4)
    (one_block,) = mc.run_cell(cfg)
    assert len(calls) == 1
    monkeypatch.setattr(estimators, "SCALAR_BUDGET", 64 * 50 * 2)  # 64 replications
    calls.clear()
    (blocks,) = mc.run_cell(cfg)
    assert len(calls) == 5
    assert blocks.empirical_level == one_block.empirical_level
    assert blocks.avg_length == pytest.approx(one_block.avg_length, rel=1e-12)


def test_run_cell_reads_a_slow_gain_by_its_leading_variance():
    # gamma_n = n^-0.7 has no finite n gamma_n, and xi = 0: the interval's
    # half-width is 1.96 sqrt(gamma_n h^-d g R / 2)
    cfg = mc.CellConfig(mc.table_model("gaussian"), (1.0,), 200, 0.21, mc.RECURSIVE,
                        replications=300, seed=2, step=stepsize_plan(1.0, alpha=0.7))
    (g,) = mc.estimates(cfg)
    lo, hi = mc.build_interval(g, cfg)
    h = 200.0**-0.21
    half = 1.96 * np.sqrt(200.0**-0.7 / h * g * gaussian_roughness(1) / 2)
    np.testing.assert_allclose((hi - lo) / 2, half, rtol=1e-14, atol=0)
    (res,) = mc.run_cell(cfg)
    assert res.avg_length == pytest.approx(float(np.mean(hi - lo)), rel=1e-12)
    assert 0.0 < res.empirical_level < 1.0


def test_run_cell_rejects_a_variance_pole_before_drawing(monkeypatch):
    # gamma0 = 0.3 at a = 0.21: 2 - (1 - a d)/gamma0 < 0, so no leading variance
    draws = []

    def counting(*args):  # estimates passes its shared Philox as a third argument
        draws.append(args)
        return np.random.default_rng(0)

    monkeypatch.setattr(mc, "replication_rng", counting)
    cfg = mc.CellConfig(mc.table_model("gaussian"), (0.0,), 50, 0.21, mc.RECURSIVE,
                        replications=20, step=stepsize_plan(0.3))
    with pytest.raises(ValueError, match="variance pole"):
        mc.run_cell(cfg)
    assert draws == []


@pytest.mark.parametrize("change", [
    {"model": mc.table_model("mixture")}, {"replications": 21}, {"seed": 1},
], ids=["model", "replications", "seed"])
def test_estimates_rejects_cells_that_do_not_share_their_draws(monkeypatch, change):
    draws = []

    def counting(seed, index, bit_generator=None):
        draws.append(index)
        return np.random.default_rng(0)

    monkeypatch.setattr(mc, "replication_rng", counting)
    cfg = mc.CellConfig(mc.table_model("gaussian"), (0.0,), 50, 0.21, mc.ROSENBLATT,
                        replications=20)
    other = dataclasses.replace(cfg, estimator=mc.RECURSIVE, **change)
    for readout in (mc.estimates, mc.run_cell):
        with pytest.raises(ValueError, match="must share"):
            readout(cfg, other)
    assert draws == []


@pytest.mark.parametrize("model", ["gaussian", "mixture-2d"])
def test_estimates_reads_cells_at_different_n_off_one_draw(monkeypatch, model):
    # the cell at n = 50 reads the first 50 rows of each replication's draw at
    # n = 80, taken once, and so estimates as it does alone
    draws, make_rng = [], mc.replication_rng

    def counting(seed, index, bit_generator=None):
        draws.append(index)
        return make_rng(seed, index, bit_generator)

    cfg = mc.CellConfig(mc.table_model(model), (0.5,) * mc.table_model(model).dim, 50, 0.17,
                        mc.ROSENBLATT, replications=20)
    longer = dataclasses.replace(cfg, n=80, estimator=mc.RECURSIVE)
    alone = mc.estimates(cfg)
    monkeypatch.setattr(mc, "replication_rng", counting)
    together = mc.estimates(cfg, longer)
    assert draws == list(range(20))
    np.testing.assert_array_equal(together[0], alone[0])
    np.testing.assert_array_equal(together[1], mc.estimates(longer)[0])


@pytest.mark.parametrize("budget", [None, 1000], ids=["default-budget", "small-budget"])
@pytest.mark.parametrize("table", [1, 2, 3, 4])
def test_run_table_cells_equal_run_cell(table, budget, monkeypatch):
    # drawing a whole table at once changes no number of a trajectory: the cells
    # of one (x, a, estimator) at every n, which read one draw at n = 200; a
    # budget of 1000 scalars splits the draw into blocks (3 to 5 replications)
    if budget is not None:
        monkeypatch.setattr(estimators, "SCALAR_BUDGET", budget)
    rows = mc.run_table(table, seed=8, replications=30, jobs=1)
    cfgs = mc.table_configs(table, seed=8, replications=30)
    for row, cfg in zip(rows, cfgs):
        assert dataclasses.replace(row.cell, model=cfg.model) == cfg
    trajectories = {}
    for row, cfg in zip(rows, cfgs):
        trajectories.setdefault((cfg.x, cfg.a, cfg.estimator), []).append((row.result, cfg))
    for cells in trajectories.values():
        results, trajectory = zip(*cells)
        assert list(results) == mc.run_cell(*trajectory)


def test_run_table_at_one_job_starts_no_pool(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert len(mc.run_table(4, seed=1, replications=5, jobs=1)) == 72


def test_the_cli_imports_no_process_pool():
    # the pool's module is imported by run_table's jobs > 1 branch alone
    code = "import sys, sakde.cli; print(sorted(m for m in sys.modules if 'concurrent' in m))"
    env = dict(os.environ, PYTHONPATH=str(Path(mc.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_importing_the_cli_builds_no_model():
    # a table model is built when a command asks for it, never on import
    code = ("import sakde.densities as d; built = []; "
            "d.GaussianMixture.__init__ = lambda self, *args: built.append(args); "
            "import sakde.cli; print(len(built))")
    env = dict(os.environ, PYTHONPATH=str(Path(mc.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "0"


def test_check_full_draws_its_standard_gaussian_sample_once(monkeypatch):
    # the moment cells and the CLT cell share one draw of 2000 x 10^4 normals
    drawn, draw_block = [], GaussianMixture.sample_block

    def counting(self, normals, uniforms, reps, count):
        block = draw_block(self, normals, uniforms, reps, count)
        drawn.append(block.size)
        return block

    monkeypatch.setattr(GaussianMixture, "sample_block", counting)
    names = [outcome.name for outcome in checks.moments_and_clt(1, 1)]
    assert names == ["moments-vs-exact(plain-average)", "moments-vs-exact(variance-optimal)",
                     "clt-gate"]
    assert sum(drawn) == 2000 * 10**4


def test_run_table_draws_each_sample_once(monkeypatch):
    # one draw of each replication at n = 200 serves the whole table: table 1
    # rekeys each replication's Philox once (its normals), table 4 twice (its
    # component uniforms, then its normals)
    keys, drawn = [], []
    rekey, draw_block = mc._rekey, GaussianMixture.sample_block

    def keyed(bit_generator, seed, index, stream):
        keys.append((index, stream))
        return rekey(bit_generator, seed, index, stream)

    def counting(self, normals, uniforms, reps, count):
        drawn.append((reps, count))
        return draw_block(self, normals, uniforms, reps, count)

    monkeypatch.setattr(mc, "_rekey", keyed)
    monkeypatch.setattr(GaussianMixture, "sample_block", counting)
    reps = 7
    for table, streams in ((1, [0]), (4, [1, 0])):
        keys.clear(), drawn.clear()
        mc.run_table(table, seed=2, replications=reps, jobs=1)
        assert drawn == [(reps, 200)]
        assert keys == [(r, s) for s in streams for r in range(reps)]


def _uniform_rng(seed, index):
    """Replication ``index``'s second stream: Philox keyed by (seed, index), its
    counter's top word set to 1 (a key array, since numpy keys a tuple holding
    2^64 - 1 through a float)."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, 1]))


def _choice_sample(model, rng, count, uniforms=None):
    """The sampler as written with ``choice`` for the component pick, which one
    component skips, on the generator ``uniforms`` (by default ``rng``), and
    the normals from ``rng``."""
    k = model.weights.shape[0]
    uniforms = rng if uniforms is None else uniforms
    comp = uniforms.choice(k, size=count, p=model.weights) if k > 1 else np.zeros(count, int)
    z = rng.standard_normal((count, model.dim))
    chols = np.linalg.cholesky(model.covs)
    return model.means[comp] + np.einsum("nij,nj->ni", chols[comp], z)


#: models beyond the table ones: one-component models whose Cholesky factor is
#: neither the identity nor a scalar, the N(0, 9) model of the CLT gate (a
#: one-component linear image, which `check full` reads through its N(0, 1)
#: rescaling), and a 3-d linear image of a two-component mixture (a BLAS
#: product with the matrix would sum its one-row blocks differently)
MODELS = {
    "full-2d": GaussianMixture([1.0], [[0.3, -1.2]], [[[2.0, 0.6], [0.6, 0.5]]]),
    "full-3d": GaussianMixture([1.0], [[1.0, -0.5, 2.0]],
                               [[[1.5, 0.4, -0.3], [0.4, 1.0, 0.2], [-0.3, 0.2, 0.8]]]),
    "clt-gate": LinearImage(standard_gaussian(1), [[3.0]]),
    "image-3d": LinearImage(
        GaussianMixture([0.4, 0.6], [[0.5, 0.0, -1.0], [-0.5, 1.0, 0.5]],
                        [np.eye(3), [[1.0, 0.3, 0.0], [0.3, 2.0, -0.4], [0.0, -0.4, 0.5]]]),
        [[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [-0.3, 0.7, 1.2]]),
}


@pytest.mark.parametrize("name", ["gaussian", "mixture", "gaussian-2d", "mixture-2d",
                                  *MODELS])
def test_component_pick_matches_rng_choice(name):
    # the Monte Carlo's draw of replication r picks its components from the
    # uniforms of its second stream as `choice` does, and maps the normals of
    # its first; `sample` on one generator picks as `choice` on that generator
    model = MODELS.get(name) or mc.table_model(name)
    for count, reps in ((50, 200), (1023, 3), (10**4, 5)):
        block = mc._draw(model, 5, 0, reps, count)
        for r in range(reps):
            fast, slow = mc.replication_rng(5, r), mc.replication_rng(5, r)
            fast_u, slow_u = _uniform_rng(5, r), _uniform_rng(5, r)
            expected = _choice_sample(model, slow, count, slow_u)
            np.testing.assert_array_equal(model.sample_block([fast], [fast_u], 1, count)[0],
                                          expected)
            np.testing.assert_array_equal(block[r], expected)
            # each generator consumed the same stream as its twin
            assert (fast.random(), fast_u.random()) == (slow.random(), slow_u.random())
            # `sample` reads the uniforms, then the normals, of its one generator
            np.testing.assert_array_equal(model.sample(mc.replication_rng(5, r), count),
                                          _choice_sample(model, mc.replication_rng(5, r), count))


@pytest.mark.parametrize("name", ["gaussian", "mixture", "gaussian-2d", "mixture-2d",
                                  *MODELS])
def test_block_draw_equals_the_stack_of_its_replications(name, monkeypatch):
    model = MODELS.get(name) or mc.table_model(name)
    for count, reps in ((1, 40), (50, 40), (1023, 3), (10**4, 2)):
        stacked = np.stack([model.sample_block([mc.replication_rng(5, r)], [_uniform_rng(5, r)],
                                               1, count)[0] for r in range(reps)])
        after = [(mc.replication_rng(5, r), _uniform_rng(5, r)) for r in range(reps)]
        for rng, uniforms in after:
            _choice_sample(model, rng, count, uniforms)
        with monkeypatch.context() as patch:
            # chunks of 61, 15 and 6 rows at d = 1, 2, 3 end inside a replication
            patch.setattr(densities, "_MAP_SCALARS", 61)
            rngs = [(mc.replication_rng(5, r), _uniform_rng(5, r)) for r in range(reps)]
            normals, uniforms = zip(*rngs)
            np.testing.assert_array_equal(
                model.sample_block(iter(normals), iter(uniforms), reps, count), stacked)
            np.testing.assert_array_equal(mc._draw(model, 5, 0, reps, count), stacked)
        for pair, ref in zip(rngs, after):  # each generator moved as a draw of its own does
            for rng, twin in zip(pair, ref):
                np.testing.assert_equal(rng.bit_generator.state, twin.bit_generator.state)
    with pytest.raises(ValueError):
        model.sample_block(iter(normals[:1]), iter(uniforms[:1]), 2, 5)


@pytest.mark.parametrize("name", ["gaussian", "mixture", "gaussian-2d", "mixture-2d",
                                  *MODELS])
def test_draw_at_n_is_the_prefix_of_the_draw_at_a_larger_n(name):
    model = MODELS.get(name) or mc.table_model(name)
    longest = mc._draw(model, 42, 3, 7, 1025)
    for n in (1, 50, 200, 1024):
        np.testing.assert_array_equal(mc._draw(model, 42, 3, 7, n), longest[:, :n])


@pytest.mark.parametrize("seed", [42, 2**64 - 1])
@pytest.mark.parametrize("name", ["gaussian", "gaussian-2d", "full-2d", "full-3d", "clt-gate"])
def test_one_component_draw_reads_only_the_normals_of_its_key(name, seed):
    # the mean plus the factor times the normals of a new Philox keyed (seed, r)
    model = MODELS.get(name) or mc.table_model(name)
    block = mc._draw(model, seed, 0, 3, 200)
    factor = np.linalg.cholesky(model.covs[0])
    for r in range(3):
        key = np.array([seed, r], dtype=np.uint64)
        z = np.random.Generator(np.random.Philox(key=key)).standard_normal((200, model.dim))
        np.testing.assert_array_equal(block[r], model.means[0] + np.einsum("ij,nj->ni", factor, z))


def test_recursive_cells_across_n_are_one_trajectory():
    # at n = 50 a trajectory is the recursion from 0; at n = 100 and 200 it
    # extends the run before it, which rounds apart from a fresh run
    model = mc.table_model("mixture-2d")
    cells = [mc.CellConfig(model, (0.5, 0.5), n, 0.19, mc.RECURSIVE, 40, seed=3)
             for n in (50, 100, 200)]
    block = mc._draw(model, 3, 0, 40, 200)
    for cell, g in zip(cells, mc.estimates(*cells)):
        fresh = estimators.recursive_batch(cell.step, cell.bandwidth, block[:, :cell.n], cell.x)
        if cell.n == 50:
            np.testing.assert_array_equal(g, fresh)
        else:
            np.testing.assert_allclose(g, fresh, rtol=1e-14, atol=0)


@pytest.mark.parametrize("table", [1, 4])
def test_batch_forms_are_the_monte_carlo_cells_bit_for_bit(table):
    # one block of the table's draw: every baseline cell, and every recursive
    # cell at n = 50 (the first n of its trajectory), is its batch form on the
    # block's first n rows
    cells = mc.table_configs(table, seed=42, replications=1000)
    block = mc._draw(cells[0].model, 42, 0, 1000, 200)
    checked = 0
    for cell, g in zip(cells, mc.estimates(*cells)):
        if cell.estimator == mc.ROSENBLATT:
            batch = estimators.rosenblatt_batch(cell.bandwidth, block[:, :cell.n], cell.x)
        elif cell.n == 50:
            batch = estimators.recursive_batch(cell.step, cell.bandwidth, block[:, :50], cell.x)
        else:
            continue
        np.testing.assert_array_equal(g, batch)
        checked += 1
    assert checked == len(cells) * 2 // 3


def _peak_bytes(draw):
    tracemalloc.start()
    try:
        draw()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_draw_keeps_one_block_alive():
    # a table-4 block: the block, its uniforms, and one chunk of gathered
    # factors (d^2 a row), einsum output, gathered means (d each) and
    # component indices (1), with 64 kB for the generators and Python objects
    model, reps, n, d = mc.table_model("mixture-2d"), 500, 200, 2
    rows = densities._MAP_SCALARS // d**2
    bound = 8 * (reps * n * d + reps * n + rows * (d * d + 2 * d + 1)) + (64 << 10)
    model.sample(mc.replication_rng(0, 0), 1)  # factors and cdf built outside the count
    assert _peak_bytes(lambda: mc._draw(model, 3, 0, reps, n)) <= bound
    # a one-component block of 2^21 scalars: no uniforms, one chunk's einsum output
    one, reps, n = standard_gaussian(1), 16, 1 << 17
    one.sample(mc.replication_rng(0, 0), 1)
    peak = _peak_bytes(lambda: mc._draw(one, 3, 0, reps, n))
    assert peak < 8 * reps * n + (512 << 10)


@pytest.mark.parametrize("readout", [mc.estimates, mc.run_cell, _moments],
                         ids=["estimates", "run_cell", "empirical_moments"])
def test_readouts_reject_an_empty_cell_list(monkeypatch, readout):
    draws = []
    monkeypatch.setattr(mc, "replication_rng", lambda *args: draws.append(args))
    with pytest.raises(ValueError, match="^need at least one cell$"):
        readout()
    assert draws == []


@pytest.mark.parametrize("seed", [42, 2**64 - 1])
def test_rekeyed_philox_draws_like_a_new_generator(seed):
    philox = np.random.Philox(0)
    for r in range(20):
        key = np.array([seed, r], dtype=np.uint64)  # a tuple would key 2^64 - 1 as 0
        # the normals, then the uniforms, on the one Philox
        for rekeyed, new in ((lambda: mc.replication_rng(seed, r, philox),
                              np.random.Generator(np.random.Philox(key=key))),
                             (lambda: mc._rekey(philox, seed, r, 1), _uniform_rng(seed, r))):
            rng = rekeyed()
            # each key leaves the buffer and the cached half word partly used for the next
            np.testing.assert_array_equal(rng.standard_normal(9), new.standard_normal(9))
            assert (rng.integers(0, 2**32, dtype=np.uint32)
                    == new.integers(0, 2**32, dtype=np.uint32))
            np.testing.assert_array_equal(rng.random(r), new.random(r))


def test_replication_rng_without_bit_generator_never_aliases():
    a, b = mc.replication_rng(1, 0), mc.replication_rng(1, 0)
    assert a.bit_generator is not b.bit_generator
    np.testing.assert_array_equal(a.random(4), b.random(4))


@pytest.mark.parametrize("tile", [None, 1 << 8])
@pytest.mark.parametrize("budget, sizes", [(None, (20,)), (7 * 200 * 2, (7, 7, 6))])
def test_estimates_compute_squared_distances_once_per_row_and_point(budget, sizes, tile,
                                                                    monkeypatch):
    # table 4 puts 24 cells at each of 3 points; a budget of 7 replications at
    # n = 200 splits 20 replications into blocks of 7, 7 and 6, and a tile of
    # 2^8 scalars cuts each block into tiles of 4 rows (a last 1-3 joining the
    # tile before).  The draws partition the replications, in order, none
    # across two blocks, and at each point the rows given to _squared_distances
    # are the draws' rows: each draw's once, in one call
    if budget is not None:
        monkeypatch.setattr(estimators, "SCALAR_BUDGET", budget)
    if tile is not None:
        monkeypatch.setattr(estimators, "_TILE", tile)
    calls, squared_distances = [], estimators._squared_distances
    draws, draw = [], mc._draw

    def counting(rows, point, q):  # the rows of a tile, at one point
        calls.append((tuple(point[0]), rows))
        return squared_distances(rows, point, q)

    def drawing(model, seed, lo, hi, count):
        draws.append((lo, hi, draw(model, seed, lo, hi, count)))
        return draws[-1][2]

    monkeypatch.setattr(estimators, "_squared_distances", counting)
    monkeypatch.setattr(mc, "_draw", drawing)
    cells = mc.table_configs(4, seed=5, replications=20)
    mc.estimates(*cells)
    blocks = estimators.replication_blocks(20, 200, 2)
    assert tuple(hi - lo for lo, hi in blocks) == sizes
    spans = [(lo, hi) for lo, hi, _ in draws]
    assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]] and spans[-1][1] == 20
    assert {hi for _, hi in blocks} <= {hi for _, hi in spans}
    # a tile is a whole block, or 4 rows where a block holds 5 tiles of 4
    assert tuple(hi - lo for lo, hi in spans) == ((4,) * 5 if tile and not budget else sizes)
    np.testing.assert_array_equal(np.concatenate([rows for *_, rows in draws]),
                                  draw(cells[0].model, 5, 0, 20, 200))
    for x in mc.table_layout(4).xs:
        rows = [r for p, r in calls if p == x]
        assert len(rows) == len(draws)
        for r, (*_, drawn) in zip(rows, draws):
            np.testing.assert_array_equal(r, drawn.reshape(-1, 2))


def _check_cells(check):
    """The cells ``check`` reads from its first :func:`mc.estimates` call, not their
    estimates."""
    recorded = []

    def record(*cfgs):
        recorded.extend(cfgs)
        raise LookupError

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mc, "estimates", record)
        with pytest.raises(LookupError):
            check(0, 1)
    return recorded


def test_estimates_hold_one_sample_tile_one_distance_tile_and_one_exponent_tile():
    # check full's moment and CLT cells (2000 replications at n = 10^4, at two
    # points) and bias_oracle's cell (200 at n = 10^5, at one).  The peak is one
    # tile of samples and one of their squared distances, each of whole groups
    # of 4 rows (at least 4, about 4 _TILE scalars) plus the 3 rows the last
    # tile can join, and one tile of exponents (2^16 scalars, or 4 rows of 2^14
    # columns, plus 3 rows of at most 2^14), with 4 n scalars for the runs'
    # exponent terms and 1 MiB for the estimate vectors and the draw's chunks.
    # A block of samples, or the distances of one, would add up to 16 MiB
    tile = estimators._TILE
    for check, points in ((checks.moments_and_clt, 2), (checks.bias_oracle, 1)):
        recorded = _check_cells(check)
        assert len({cfg.x for cfg in recorded}) == points
        n = recorded[0].n
        rows = max(4, 4 * tile // n) + 3
        bound = 8 * (2 * rows * n + (tile + 3 * min(n, tile // 4)) + 4 * n) + (1 << 20)
        assert _peak_bytes(lambda: mc.estimates(*recorded)) <= bound, check.__name__


def _assert_cut_invariant(cells, block, cuts):
    """Each cell's estimates over ``block`` at its point, evaluated whole and as
    the rows before and after each cut, equal bit for bit."""
    at = {}
    for cfg in cells:
        at.setdefault(cfg.x, []).append(cfg.evaluation)
    for x, evaluations in at.items():
        whole = estimators.estimates_at_point(x, block, evaluations)
        for cut in cuts:
            head = estimators.estimates_at_point(x, block[:cut], evaluations)
            tail = estimators.estimates_at_point(x, block[cut:], evaluations)
            for w, a, b in zip(whole, head, tail, strict=True):
                np.testing.assert_array_equal(np.concatenate([a, b]), w)


@pytest.mark.parametrize("tile", [None, 1 << 9])
@pytest.mark.parametrize("table", [1, 4])
def test_table_estimates_do_not_depend_on_where_a_block_is_cut(table, tile, monkeypatch):
    # 29 replications at n = 200, cut at every multiple of 4 that leaves at
    # least 4 rows after it: BLAS sums rows in groups of 4 from the first, and
    # a lone row's product rounds apart from the last row of a longer one.  A
    # tile of 2^9 scalars cuts the distances into tiles of 8 rows, so a part
    # that starts 4 rows off the whole block's tile edges ends in 1 row, which
    # joins the tile before it
    if tile is not None:
        monkeypatch.setattr(estimators, "_TILE", tile)
    cells = mc.table_configs(table, seed=8, replications=29)
    block = mc._draw(cells[0].model, 8, 0, 29, 200)
    _assert_cut_invariant(cells, block, range(4, 26, 4))


def test_check_estimates_do_not_depend_on_where_a_block_is_cut():
    # check full's first moment block: 209 replications at n = 10^4, whose
    # last gemv group is a single row, cut at, across and next to a tile edge
    # and before its last group of 4; and bias_oracle's n = 10^5 cell, summed
    # in column blocks of 2^14, with a baseline cell at the same n
    cells = _check_cells(checks.moments_and_clt)
    (lo, hi), *_ = estimators.replication_blocks(2000, 10**4, 1)
    assert hi - lo == 209
    _assert_cut_invariant(cells, mc._draw(cells[0].model, 0, lo, hi, 10**4), [4, 24, 28, 100, 204])
    cell, = _check_cells(checks.bias_oracle)
    (lo, hi), *_ = estimators.replication_blocks(cell.replications, cell.n, 1)
    assert cell.n > 1 << 14 and hi - lo == 20
    cells = [cell, dataclasses.replace(cell, estimator=mc.ROSENBLATT)]
    _assert_cut_invariant(cells, mc._draw(cell.model, 0, lo, hi, cell.n), [4, 8, 16])
