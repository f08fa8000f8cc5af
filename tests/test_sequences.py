import math

import mpmath
import numpy as np
import pytest

from sakde import sequences
from sakde.sequences import (
    SequencePlan,
    bandwidth_plan,
    gs_index_diagnostic,
    lemma_limit,
    pi_product,
    stepsize_from_weights,
    stepsize_plan,
    suffix_products,
)


def test_value_at_n_equals_one():
    assert SequencePlan(1.0, -0.21).value(1) == 1.0


def test_value_direct_arithmetic():
    assert SequencePlan(0.79, -1.0).value(100) == pytest.approx(0.0079, abs=1e-18)


def test_value_high_precision_oracle():
    # oracle: 50 digit exp/log evaluation of 50**-0.21
    mpmath.mp.dps = 50
    expected = float(mpmath.power(50, mpmath.mpf("-0.21")))
    assert SequencePlan(1.0, -0.21).value(50) == pytest.approx(expected, rel=1e-14)


def test_value_with_log_factor():
    plan = SequencePlan(2.0, -0.5, log_exponent=1.5)
    assert plan.value(37) == pytest.approx(2.0 * 37**-0.5 * math.log(38) ** 1.5, rel=1e-14)


def test_value_vectorised():
    plan = SequencePlan(1.0, -0.21)
    np.testing.assert_allclose(plan.value(np.array([1, 10, 100])),
                               [1.0, 10**-0.21, 100**-0.21])


def test_scale_must_be_positive():
    with pytest.raises(ValueError):
        SequencePlan(0.0, -1.0)


def test_gs_diagnostic_pure_powers():
    # oracle: exact algebra for pure powers, n*(1 - ((n-1)/n)**e)
    n = 10**6
    for e in (-1.0, 0.79, -0.21):
        oracle = n * (1.0 - ((n - 1) / n) ** e)
        diag = gs_index_diagnostic(SequencePlan(1.3, e), n)
        assert diag == pytest.approx(oracle, rel=1e-9)
        assert abs(diag - e) < 1e-4


def test_gs_diagnostic_constant_sequence():
    assert gs_index_diagnostic(SequencePlan(5.0, 0.0), 1000) == 0.0


def test_gs_diagnostic_error_decreases():
    # pure powers converge fast; a log factor still converges, just slowly
    for plan, bound in ((SequencePlan(1.0, -0.21), 1e-3),
                        (SequencePlan(1.0, -0.21, log_exponent=0.5), 0.05)):
        errs = [abs(gs_index_diagnostic(plan, n) + 0.21)
                for n in (10**3, 10**4, 10**5, 10**6)]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < bound


def test_stepsize_plan_validation():
    with pytest.raises(ValueError):
        stepsize_plan(1.0, alpha=0.5)
    with pytest.raises(ValueError):
        stepsize_plan(1.0, alpha=1.2)
    with pytest.raises(ValueError):
        stepsize_plan(1.5)
    with pytest.raises(ValueError):
        stepsize_plan(1.0, alpha=1.0, log_exponent=-1.0)


def test_stepsize_plan_slow_decay_has_zero_xi():
    step = stepsize_plan(1.0, alpha=0.7)
    assert math.isinf(step.gamma0)
    assert step.xi == 0.0


def test_stepsize_from_weights_constant_weights():
    step = stepsize_from_weights(SequencePlan(1.0, 0.0))
    assert step.gamma0 == 1.0
    assert step.xi == 1.0
    assert step.alpha == 1.0


def test_stepsize_from_weights_half_bandwidth_power():
    # weights h_n^{d/2} with a=0.21, d=1
    step = stepsize_from_weights(SequencePlan(1.0, -0.105))
    assert step.xi == pytest.approx(1.0 / (1.0 - 0.105), rel=1e-15)
    assert step.xi == pytest.approx(1.1173184, abs=1e-7)


def test_stepsize_from_weights_full_bandwidth_power():
    step = stepsize_from_weights(SequencePlan(1.0, -0.21))
    assert step.gamma0 == pytest.approx(0.79, rel=1e-15)
    assert step.xi == pytest.approx(1.0 / 0.79, rel=1e-15)


def test_stepsize_from_weights_rejects_small_index():
    for w_star in (-1.0, -1.5):
        with pytest.raises(ValueError):
            stepsize_from_weights(SequencePlan(1.0, w_star))


@pytest.mark.parametrize("w_star", [0.0, -0.105, -0.21, 0.5])
def test_weight_induced_gain_limit(w_star):
    # n * gamma_n -> 1 + w* within 1% at n = 1e5
    step = stepsize_from_weights(SequencePlan(2.0, w_star))
    n = 10**5
    assert n * step.gamma(n) == pytest.approx(1.0 + w_star, rel=0.01)


def test_gamma_stream_matches_gamma_values():
    # the stream takes short blocks and gamma_values long ones, so past 2**15
    # their block ends differ; one running weight sum makes them agree bitwise
    for n in (100, 2**15 + 10):
        for step in (stepsize_plan(0.6), stepsize_from_weights(SequencePlan(1.0, -0.21))):
            stream = step.gamma_stream()
            first = np.array([next(stream) for _ in range(n)])
            np.testing.assert_array_equal(first, step.gamma_values(n))


def test_gamma_values_fill_every_step_whatever_the_block_length(monkeypatch):
    # the array is the gain blocks themselves, so no step can be left unfilled
    step = stepsize_from_weights(SequencePlan(1.0, -0.21))
    n = 2**15 + 10
    expected = step.gamma_values(n)
    monkeypatch.setattr(sequences, "_BLOCK", 1000)
    np.testing.assert_array_equal(step.gamma_values(n), expected)
    assert step.gamma_values(0).shape == (0,)


def test_pi_product_exact_zero_for_weight_induced():
    # first weight-induced gain is 1, so the product vanishes for every n
    step = stepsize_from_weights(SequencePlan(1.0, 0.0))
    for n in (1, 5, 50):
        assert pi_product(step, n) == 0.0


def test_pi_product_matches_direct_product():
    step = stepsize_plan(0.5)
    direct = float(np.prod(1.0 - 0.5 / np.arange(1, 1001)))
    assert pi_product(step, 1000) == pytest.approx(direct, rel=1e-12)


def test_lemma_identity_machine_precision():
    # algebraic identity: m=1, v = 1 gives exactly 1 - Pi_n
    for scale in (1.0, 0.5):
        step = stepsize_plan(scale)
        q = lemma_limit(1.0, SequencePlan(1.0, 0.0), step, 10**6)
        assert abs(q - (1.0 - pi_product(step, 10**6))) < 1e-12


def _direct_lemma_sum(m, v_exp, gamma0, n):
    # independent oracle: materialise the partial sum with suffix products
    k = np.arange(1, n + 1)
    gam = gamma0 / k
    logs = np.log1p(-gam[1:])  # gamma_1 may be 1; the k=1 suffix never needs it
    csum = np.concatenate([[0.0], np.cumsum(logs)])
    suffix = np.exp(m * (csum[-1] - csum))
    v = k**v_exp
    return float(v[-1] * np.sum(suffix * gam / v))


def test_lemma_limit_unit_case():
    n = 10**6
    q = lemma_limit(1.0, SequencePlan(1.0, 0.0), stepsize_plan(1.0), n)
    assert q == pytest.approx(_direct_lemma_sum(1.0, 0.0, 1.0, n), abs=1e-10)
    assert q == pytest.approx(1.0, abs=1e-12)


def test_lemma_limit_regularly_varying_case():
    # m=2, v in GS(0.79), xi=1: limit 1/(2 - 0.79)
    n = 10**6
    q = lemma_limit(2.0, SequencePlan(1.0, 0.79), stepsize_plan(1.0), n)
    assert q == pytest.approx(_direct_lemma_sum(2.0, 0.79, 1.0, n), rel=1e-9)
    assert q == pytest.approx(1.0 / 1.21, rel=0.01)


def test_lemma_limit_constant_v_case():
    q = lemma_limit(2.0, SequencePlan(1.0, 0.0), stepsize_plan(1.0), 10**6)
    assert q == pytest.approx(0.5, rel=0.01)


def test_lemma_limit_weight_induced_stepsize():
    step = stepsize_from_weights(SequencePlan(1.0, -0.21))
    q = lemma_limit(2.0, SequencePlan(1.0, 0.79), step, 10**5)
    # xi = 1/0.79: limit is 1/(2 - 0.79/0.79) = 1
    assert q == pytest.approx(1.0 / (2.0 - 0.79 / 0.79), rel=0.02)


def test_lemma_limit_rejects_pole():
    with pytest.raises(ValueError):
        lemma_limit(1.0, SequencePlan(1.0, 1.5), stepsize_plan(1.0), 100)
    with pytest.raises(ValueError):
        lemma_limit(2.0, SequencePlan(1.0, 2.0), stepsize_plan(1.0), 100)


def test_bandwidth_plan_requires_positive_exponent():
    with pytest.raises(ValueError):
        bandwidth_plan(1.0, 0.0)
    assert bandwidth_plan(1.0, 0.21).a == pytest.approx(0.21)


def test_suffix_products_matches_explicit_products():
    a = np.random.default_rng(4).uniform(0.5, 1.5, 7)
    expected = [math.prod(a[k + 1:]) for k in range(a.size)]
    np.testing.assert_allclose(suffix_products(a), expected, rtol=1e-15)
    assert suffix_products(np.array([0.3])).tolist() == [1.0]
