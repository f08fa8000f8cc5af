import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from sakde import asymptotics as asy
from sakde.densities import curvature_squared_integral, standard_gaussian
from sakde.kernels import gaussian_roughness
from sakde.sequences import BandwidthPlan, SequencePlan, bandwidth_plan, stepsize_plan

PHI0 = 1 / math.sqrt(2 * math.pi)


def test_classify_regime_balanced_float_and_rational():
    assert asy.classify_regime(0.2, 1.0, 1, math.inf).regime == asy.BALANCED
    assert asy.classify_regime(Fraction(1, 5), 1, 1, math.inf).regime == asy.BALANCED


def test_classify_regime_variance_dominated():
    r = asy.classify_regime(0.21, 1.0, 1, math.inf)
    assert r.regime == asy.VARIANCE_DOMINATED
    assert r.bias_negligible and r.variance_leading_applies
    assert not r.h2_bias_applies and not r.variance_negligible


def test_classify_regime_d2():
    assert asy.classify_regime(0.17, 1.0, 2, math.inf).regime == asy.VARIANCE_DOMINATED
    assert asy.classify_regime(0.15, 1.0, 2, math.inf).regime == asy.BIAS_DOMINATED


def test_classify_regime_gain_limit_flags():
    # thresholds: min{2a, (1-ad)/2} = 0.395, max = 0.42 for a = 0.21, d = 1
    low = asy.classify_regime(0.21, 1.0, 1, gamma0=0.4)
    assert low.gain_limit_admissible and not low.both_expansions_valid
    high = asy.classify_regime(0.21, 1.0, 1, gamma0=0.79)
    assert high.gain_limit_admissible and high.both_expansions_valid
    unbounded = asy.classify_regime(0.21, 1.0, 1, math.inf)
    assert unbounded.both_expansions_valid  # the CLI's reading of no --gamma0


def test_classify_regime_rejects_inadmissible_plans():
    with pytest.raises(ValueError):
        asy.classify_regime(0.21, 0.4, 1, math.inf)
    with pytest.raises(ValueError):
        asy.classify_regime(0.6, 1.0, 2, math.inf)  # a >= alpha/d
    for gamma0 in (math.nan, -3.0, 0.0):
        with pytest.raises(ValueError, match="gamma0 must be positive"):
            asy.classify_regime(0.2, 1.0, 1, gamma0)
    for alpha in (math.nan, math.inf, -math.inf):  # named as alpha, not as a plan exponent
        with pytest.raises(ValueError, match=rf"^alpha must lie in \(1/2, 1\], got {alpha}$"):
            asy.classify_regime(0.2, alpha, 1, math.inf)


def test_bias_leading_plain_average():
    # xi = 1, a = 0.21: coefficient S/(2 * 0.58) per squared bandwidth
    step = stepsize_plan(1.0)
    bw = bandwidth_plan(1.0, 0.21)
    n = 400
    h2 = float(bw.value(n)) ** 2
    value = asy.bias_leading(-PHI0, bw, step, n)
    assert value / h2 == pytest.approx(-PHI0 / (2 * 0.58), rel=1e-13)
    assert value / h2 == pytest.approx(-0.3439158, abs=1e-6)


def test_bias_leading_reduces_to_baseline_when_xi_zero():
    step = stepsize_plan(1.0, alpha=0.7)  # xi = 0
    bw = bandwidth_plan(1.0, 0.1)
    n = 1000
    h = 1000.0**-0.1
    baseline = h * h * -0.4 / 2  # h^2 S / 2, written out
    assert asy.bias_leading(-0.4, bw, step, n) == pytest.approx(baseline, rel=1e-14)
    assert asy.bias_leading(-0.4, bw, None, n) == pytest.approx(baseline, rel=1e-14)


def test_bias_leading_rejects_pole():
    step = stepsize_plan(0.3)  # xi = 1/0.3, 2*a*xi > 1 for a = 0.21
    with pytest.raises(ValueError):
        asy.bias_leading(-0.4, bandwidth_plan(1.0, 0.21), step, 100)


def test_variance_leading_plain_average():
    # gamma_n = 1/n: variance f R / ((1 + a d) n h^d)
    step = stepsize_plan(1.0)
    bw = bandwidth_plan(1.0, 0.21)
    n = 500
    h = float(bw.value(n))
    expected = PHI0 * gaussian_roughness(1) / ((1 + 0.21) * n * h)
    assert asy.variance_leading(PHI0, 1, bw, step, n) == pytest.approx(expected, rel=1e-13)


def test_variance_leading_optimal_gain_matches_scaled_baseline():
    # gamma0 = 1 - ad makes the recursive variance (1-ad) times the baseline
    a = 0.21
    step = stepsize_plan(1.0 - a)
    bw = bandwidth_plan(1.0, a)
    n = 700
    h = 700.0**-a
    ros = PHI0 * gaussian_roughness(1) / (n * h)  # f R / (n h^d), written out
    assert asy.variance_leading(PHI0, 1, bw, None, n) == pytest.approx(ros, rel=1e-14)
    assert asy.variance_leading(PHI0, 1, bw, step, n) == pytest.approx((1 - a) * ros, rel=1e-13)


def test_variance_leading_rejects_pole():
    step = stepsize_plan(0.3)  # xi = 10/3: 2 - 0.79 * xi < 0
    with pytest.raises(ValueError):
        asy.variance_leading(PHI0, 1, bandwidth_plan(1.0, 0.21), step, 100)
    with pytest.raises(ValueError, match="a finite exponent"):  # no NaN plan exists
        asy.variance_leading(PHI0, 1, BandwidthPlan(SequencePlan(1.0, math.nan)),
                             stepsize_plan(1.0), 100)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_balanced_plan_bias_and_variance_ratios(d):
    # gamma0 = 4/(d+4), a = 1/(d+4): baseline/recursive bias 1/2, variance (d+4)/4
    a = 1.0 / (d + 4)
    step = stepsize_plan(4.0 / (d + 4))
    bw = bandwidth_plan(1.0, a)
    n = 900
    h = 900.0**-a
    # the baseline's h^2 S / 2 and f R / (n h^d) at S = f = 1, written out
    ratio_bias = h * h / 2 / asy.bias_leading(1.0, bw, step, n)
    ratio_var = gaussian_roughness(d) / (n * h**d) / asy.variance_leading(1.0, d, bw, step, n)
    assert ratio_bias == pytest.approx(0.5, rel=1e-12)
    assert ratio_var == pytest.approx((d + 4) / 4.0, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2])
def test_mse_optimal_plan_constants_and_oracle(d):
    f_x, s_x = PHI0, -PHI0
    plan = asy.mse_optimal_plan(f_x, s_x, d)
    if d == 1:
        assert plan.bandwidth_constant == pytest.approx(0.733367, abs=5e-6)

    # oracle: numeric minimisation of the leading MSE over the bandwidth constant
    n, step = 10**4, stepsize_plan(1.0)

    def leading(h_const):
        bw = bandwidth_plan(h_const, 1.0 / (d + 4))
        return (asy.bias_leading(s_x, bw, step, n) ** 2
                + asy.variance_leading(f_x, d, bw, step, n))

    res = minimize_scalar(leading, bounds=(0.2, 2.5), method="bounded",
                          options={"xatol": 1e-10})
    assert plan.bandwidth_constant == pytest.approx(res.x, rel=1e-5)
    assert plan.mse(n) == pytest.approx(res.fun, rel=1e-10)


def test_mse_decay_exponent():
    plan = asy.mse_optimal_plan(PHI0, -PHI0, 1)
    assert plan.mse(2000) / plan.mse(1000) == pytest.approx(2.0 ** (-4 / 5), rel=1e-12)


def test_mse_optimal_plan_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        asy.mse_optimal_plan(PHI0, 0.0, 1)
    with pytest.raises(ValueError):
        asy.mse_optimal_plan(0.0, -1.0, 1)
    with pytest.raises(ValueError):
        asy.mse_optimal_plan(math.nan, -1.0, 1)


def test_mise_leading_branch_dispatch():
    integral = 0.2115711
    n = 1000
    step = stepsize_plan(1.0)

    bias_only = asy.mise_leading(integral, 1, step, bandwidth_plan(1.0, 0.1), n)
    h = 1000.0**-0.1
    assert bias_only == pytest.approx(h**4 / (4 * (1 - 0.2) ** 2) * integral, rel=1e-13)

    var_only = asy.mise_leading(integral, 1, step, bandwidth_plan(1.0, 0.21), n)
    h = 1000.0**-0.21
    assert var_only == pytest.approx((1 / n) / h * gaussian_roughness(1) / (2 - 0.79), rel=1e-13)

    both = asy.mise_leading(integral, 1, step, bandwidth_plan(1.0, 0.2), n)
    h = 1000.0**-0.2
    expected = (h**4 / (4 * (1 - 0.4) ** 2) * integral
                + (1 / n) / h * gaussian_roughness(1) / (2 - 0.8))
    assert both == pytest.approx(expected, rel=1e-13)


def test_mise_optimal_plan_is_a_fixed_point_of_mise_leading():
    # evaluating the leading MISE at the optimal plan reproduces its constant
    integral = 3.0 / (8.0 * math.sqrt(math.pi))
    plan = asy.mise_optimal_plan(integral, 1)
    n = 10**5
    direct = asy.mise_leading(integral, 1, stepsize_plan(1.0), plan.bandwidth, n)
    assert direct == pytest.approx(plan.mse(n), rel=1e-12)


@pytest.mark.parametrize("d", [1, 2])
def test_mise_optimal_plan_against_numeric_minimisation(d):
    integral = curvature_squared_integral(standard_gaussian(d))
    plan = asy.mise_optimal_plan(integral, d)
    n, step = 10**4, stepsize_plan(1.0)

    def mise(h_const):
        return asy.mise_leading(integral, d, step, bandwidth_plan(h_const, 1.0 / (d + 4)), n)

    res = minimize_scalar(mise, bounds=(0.2, 2.5), method="bounded",
                          options={"xatol": 1e-10})
    assert plan.bandwidth_constant == pytest.approx(res.x, rel=1e-5)
    assert plan.mse(n) == pytest.approx(res.fun, rel=1e-10)


def test_mise_optimal_plan_rejects_zero_curvature():
    with pytest.raises(ValueError):
        asy.mise_optimal_plan(0.0, 1)
    with pytest.raises(ValueError):
        asy.mise_optimal_plan(math.nan, 1)


def test_efficiency_ratio_values_and_shape():
    assert asy.efficiency_ratio(1) == pytest.approx(0.94320, abs=5e-6)
    rhos = np.array([asy.efficiency_ratio(d) for d in range(1, 51)])
    assert np.all(rhos < 1.0)
    amin = int(np.argmin(rhos))
    assert 0 < amin < 49  # interior minimum: decreases, then increases toward 1
    assert rhos[-1] > rhos[amin]
    assert rhos[-1] > 0.99 * rhos[-2]
    # (d + 2)^(2d + 4) alone overflows a float from d = 79 on; the ratio's power does not
    far = [asy.efficiency_ratio(d) for d in (79, 10**3, 10**6)]
    np.testing.assert_allclose(far, [0.98590, 0.99878, 0.9999988], rtol=0, atol=5e-6)
    assert rhos[-1] < far[0] < far[1] < far[2] < 1.0


def test_efficiency_ratio_matches_composed_optima():
    # oracle: compose the two optimal-MSE constants independently
    for d in (1, 2, 3):
        f_x, s_x = 0.35, -0.4
        rec = asy.mse_optimal_plan(f_x, s_x, d)
        ros = asy.rosenblatt_mse_optimal(f_x, s_x, d)
        assert ros.mse_constant / rec.mse_constant == pytest.approx(
            asy.efficiency_ratio(d), abs=1e-10)


@pytest.mark.parametrize("d", [1, 2])
def test_rosenblatt_optimum_against_numeric_minimisation(d):
    f_x, s_x = PHI0, -PHI0
    ros = asy.rosenblatt_mse_optimal(f_x, s_x, d)
    n = 10**4

    def mse(h):  # (h^2 S / 2)^2 + f R / (n h^d), written out
        return (h * h * s_x / 2) ** 2 + f_x * gaussian_roughness(d) / (n * h**d)

    res = minimize_scalar(mse, bounds=(0.01, 2.0), method="bounded",
                          options={"xatol": 1e-10})
    assert ros.bandwidth_constant * n ** (-1 / (d + 4)) == pytest.approx(res.x, rel=1e-5)
    assert ros.mse(n) == pytest.approx(res.fun, rel=1e-10)


def test_clt_params_pure_noise_limit():
    step = stepsize_plan(0.79)
    params = asy.clt_params(0.0, PHI0, -PHI0, 1, 0.21, step)
    assert params.asym_mean == 0.0
    assert params.asym_var == pytest.approx(PHI0 * gaussian_roughness(1), rel=1e-13)
    assert params.asym_var == pytest.approx(0.112540, abs=1e-6)
    assert not params.degenerate


def test_clt_params_zero_xi_substitution():
    step = stepsize_plan(1.0, alpha=0.7)  # xi = 0
    params = asy.clt_params(2.0, PHI0, -0.4, 1, 0.1, step)
    assert params.asym_mean == pytest.approx(math.sqrt(2.0) * -0.4 / 2.0, rel=1e-13)
    assert params.asym_var == pytest.approx(PHI0 * gaussian_roughness(1) / 2.0, rel=1e-13)


def test_clt_params_degenerate_branch():
    step = stepsize_plan(1.0)
    params = asy.clt_params(math.inf, PHI0, -PHI0, 1, 0.1, step)
    assert params.degenerate
    assert params.asym_mean == pytest.approx(-PHI0 / (2 * 0.8), rel=1e-13)
    assert params.asym_var == 0.0


def test_clt_params_factorisation_invariant():
    # variance times (2 - (1-ad) xi) does not depend on the stepsize
    a = 0.21
    products = []
    for gamma0 in (0.5, 0.79, 1.0):
        step = stepsize_plan(gamma0)
        v = asy.clt_params(0.0, PHI0, -PHI0, 1, a, step).asym_var
        products.append(v * (2 - (1 - a) / gamma0))
    assert max(products) - min(products) < 1e-15


def test_clt_params_rejects_bad_inputs():
    with pytest.raises(ValueError):
        asy.clt_params(0.0, 0.0, -1.0, 1, 0.21, stepsize_plan(1.0))
    with pytest.raises(ValueError):
        asy.clt_params(-1.0, PHI0, -1.0, 1, 0.21, stepsize_plan(1.0))
    with pytest.raises(ValueError):
        asy.clt_params(math.nan, PHI0, -1.0, 1, 0.21, stepsize_plan(1.0))
    with pytest.raises(ValueError):
        asy.clt_params(1.0, PHI0, -1.0, 1, 0.21, stepsize_plan(0.3))


def test_each_factor_raises_only_on_its_own_pole():
    # a = 0.21, gamma0 = 0.4 (xi = 2.5): 1 - 2 a xi = -0.05 is on the bias pole,
    # while 2 - (1 - a) xi = 0.025 is off the variance pole, so nu = 0.4 / 0.025 = 16
    a, gamma0, n = 0.21, 0.4, 100
    bw, step = bandwidth_plan(1.0, a), stepsize_plan(gamma0)
    h = 100.0**-a
    variance = asy.variance_leading(0.4, 1, bw, step, n)
    assert variance == pytest.approx(16 * 0.4 * gaussian_roughness(1) / (n * h), rel=1e-13)
    assert variance == pytest.approx(0.0474870, abs=1e-7)
    assert asy.ci_constant(gamma0, a, 1) == pytest.approx(4.0, rel=1e-13)
    assert asy.clt_params(0.0, PHI0, -PHI0, 1, a, step).asym_var == pytest.approx(
        PHI0 * gaussian_roughness(1) / 0.025, rel=1e-13)  # c = 0 reads no bias
    for bias_read in (lambda: asy.bias_leading(-PHI0, bw, step, n),
                      lambda: asy.clt_params(1.0, PHI0, -PHI0, 1, a, step),
                      lambda: asy.clt_params(math.inf, PHI0, -PHI0, 1, a, step)):
        with pytest.raises(ValueError, match="^bias pole"):
            bias_read()


def test_ci_constant_named_values():
    a, d = 0.21, 1
    assert asy.ci_constant(1.0 - a, a, d) == pytest.approx(math.sqrt(1 - a), rel=1e-14)
    assert asy.ci_constant(1.0, a, d) == pytest.approx(1 / math.sqrt(1 + a), rel=1e-14)
    assert asy.ci_constant(1.0 - a / 2, a, d) == pytest.approx(1 - a / 2, rel=1e-14)


def test_ci_constant_minimum_is_strict_on_grid():
    a, d = 0.21, 1
    g_star, c_star = asy.ci_constant_minimum(a, d)
    assert g_star == pytest.approx(1 - a, rel=1e-15)
    assert c_star == pytest.approx(math.sqrt(1 - a), abs=1e-12)
    assert asy.ci_constant(g_star, a, d) == pytest.approx(c_star, abs=1e-12)
    grid = np.linspace(0.45, 4.0, 1001)
    vals = np.array([asy.ci_constant(g, a, d) for g in grid])
    assert np.all(vals >= c_star - 1e-12)
    off = np.abs(grid - g_star) > 1e-3
    assert np.all(vals[off] > c_star + 1e-9)


def test_ci_constant_rejects_pole():
    with pytest.raises(ValueError):
        asy.ci_constant(0.3, 0.21, 1)  # 2*gamma0 <= 1 - ad
    with pytest.raises(ValueError):
        asy.ci_constant(1.0, 0.6, 2)  # a*d >= 1
    for a in (math.nan, -0.5, 0.0):  # the interval needs 0 < a*d < 1
        with pytest.raises(ValueError, match=r"a\*d must lie in \(0, 1\)"):
            asy.ci_constant(0.79, a, 1)
        with pytest.raises(ValueError, match=r"a\*d must lie in \(0, 1\)"):
            asy.ci_constant_minimum(a, 1)
    for gamma0 in (math.inf, math.nan, 0.0):  # the interval needs a finite gain limit
        with pytest.raises(ValueError, match="positive and finite"):
            asy.ci_constant(gamma0, 0.21, 1)


_BW, _STEP = bandwidth_plan(1.0, 0.2), stepsize_plan(0.8)

# every formula that takes a dimension, on a plan whose other parameters lie in
# its domain, and a dimension that is no positive integer
_DIM_FORMULAS = {
    "rosenblatt-variance": lambda d: asy.variance_leading(0.3, d, _BW, None, 100),
    "variance": lambda d: asy.variance_leading(0.3, d, _BW, _STEP, 100),
    "mise-bias-dominated": lambda d: asy.mise_leading(1.0, d, stepsize_plan(1.0),
                                                      bandwidth_plan(1.0, 0.1), 100),
    "clt": lambda d: asy.clt_params(0.5, 0.3, -0.4, d, 0.2, _STEP),
    "clt-degenerate": lambda d: asy.clt_params(math.inf, 0.3, -0.4, d, 0.2, _STEP),
    "ci-constant": lambda d: asy.ci_constant(0.8, 0.2, d),
    "ci-constant-minimum": lambda d: asy.ci_constant_minimum(0.2, d),
    "regime": lambda d: asy.classify_regime(0.2, 1.0, d, math.inf),
    "mse-optimal": lambda d: asy.mse_optimal_plan(0.35, -0.4, d),
    "rosenblatt-mse-optimal": lambda d: asy.rosenblatt_mse_optimal(0.35, -0.4, d),
    "mise-optimal": lambda d: asy.mise_optimal_plan(1.0, d),
}
_BAD_DIMS = {"d0": 0, "d-negative": -1, "d-fractional": 1.5, "d-float": 2.0, "d-bool": True}
_DIM_CASES = {f"{name}-{label}": (lambda f=f, d=d: f(d), "dim must be a positive integer")
              for name, f in _DIM_FORMULAS.items() for label, d in _BAD_DIMS.items()}


@pytest.mark.parametrize("formula, message", [
    (lambda: asy.bias_leading(1.0, _BW, _STEP, 0), "n must be at least 1"),
    (lambda: asy.bias_leading(1.0, _BW, _STEP, math.nan), "n must be at least 1"),
    (lambda: asy.variance_leading(0.3, 1, _BW, _STEP, 0), "n must be at least 1"),
    (lambda: asy.variance_leading(0.3, 1, _BW, _STEP, -5), "n must be at least 1"),
    (lambda: asy.mise_leading(1.0, 1, _STEP, _BW, 0), "n must be at least 1"),
    (lambda: asy.mise_leading(1.0, 1, stepsize_plan(1.0, 0.9), _BW, 0), "n must be at least 1"),
    (lambda: asy.variance_leading(0.3, 1, _BW, None, 0), "n must be at least 1"),
    (lambda: asy.bias_leading(1.0, _BW, None, 0), "n must be at least 1"),
    # the baseline's bandwidth comes only from a plan, which refuses a scale that
    # would make h_n zero, negative or NaN before any law reads it
    *[(lambda h=h, law=law: law(bandwidth_plan(h, 0.2)), "need a finite scale > 0")
      for law in (lambda bw: asy.variance_leading(0.3, 1, bw, None, 10),
                  lambda bw: asy.bias_leading(1.0, bw, None, 10))
      for h in (0.0, -1.0, math.nan)],
    (lambda: asy.efficiency_ratio(0), "dim must be a positive integer"),
    (lambda: asy.efficiency_ratio(math.nan), "dim must be a positive integer"),
    (lambda: asy.efficiency_ratio(1.5), "dim must be a positive integer"),
    (lambda: asy.efficiency_ratio(2.0), "dim must be a positive integer"),
    *_DIM_CASES.values(),
], ids=["bias-n0", "bias-nan", "variance-n0", "variance-negative", "mise-balanced-n0",
        "mise-variance-dominated-n0", "rosenblatt-variance-n0", "rosenblatt-bias-n0",
        "rosenblatt-variance-h0", "rosenblatt-variance-negative-h", "rosenblatt-variance-nan-h",
        "rosenblatt-bias-h0", "rosenblatt-bias-negative-h", "rosenblatt-bias-nan-h", "efficiency-d0",
        "efficiency-nan", "efficiency-fractional", "efficiency-float", *_DIM_CASES])
def test_formulas_reject_parameters_outside_their_domain(formula, message):
    with pytest.raises(ValueError, match=message):
        formula()
