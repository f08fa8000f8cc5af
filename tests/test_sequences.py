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
    errs = [abs(gs_index_diagnostic(SequencePlan(1.0, -0.21), n) + 0.21)
            for n in (10**3, 10**4, 10**5, 10**6)]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-3


def test_stepsize_plan_validation():
    with pytest.raises(ValueError):
        stepsize_plan(1.0, alpha=0.5)
    with pytest.raises(ValueError):
        stepsize_plan(1.0, alpha=1.2)
    with pytest.raises(ValueError):
        stepsize_plan(1.5)


def test_stepsize_plan_rejects_a_gain_above_one_at_construction():
    # gains 2.5, 1.25, ... would make the first steps non-convex updates; the
    # type rejects the plan before any estimator or cell holds it
    with pytest.raises(ValueError, match=r"scale must lie in \(0, 1\], got 2.5"):
        sequences.StepsizePlan(SequencePlan(2.5, -1.0))
    with pytest.raises(ValueError, match="scale must lie in"):
        sequences.StepsizePlan(SequencePlan(1.5, -0.7))
    with pytest.raises(ValueError, match=r"scale must lie in \(0, 1\], got nan"):
        stepsize_plan(math.nan)
    # weight-induced gains w_n / sum_{k<=n} w_k lie in (0, 1] whatever the gain limit
    step = stepsize_from_weights(SequencePlan(1.0, 0.5))
    assert step.gamma0 == 1.5
    g = step.gamma_values(1000)
    assert g[0] == 1.0 and np.all((g > 0.0) & (g <= 1.0))


@pytest.mark.parametrize("plan_type, exponent, message", [
    (sequences.StepsizePlan, -2.0, "alpha must lie in"),
    (sequences.StepsizePlan, -0.5, "alpha must lie in"),
    (sequences.BandwidthPlan, 0.5, "a must be positive"),
    (sequences.BandwidthPlan, 0.0, "a must be positive"),
])
def test_plan_types_reject_invalid_exponents(plan_type, exponent, message):
    with pytest.raises(ValueError, match=message):
        plan_type(SequencePlan(1.0, exponent))


@pytest.mark.parametrize("build", [
    lambda: SequencePlan(1.0, math.nan),
    lambda: SequencePlan(1.0, math.inf),
    lambda: SequencePlan(math.inf, 0.0),
    lambda: SequencePlan(math.nan, 0.0),
    lambda: bandwidth_plan(1.0, math.inf),
    lambda: sequences.BandwidthPlan(SequencePlan(1.0, math.nan)),
    lambda: bandwidth_plan(math.inf, 0.2),
    lambda: sequences.StepsizePlan(SequencePlan(1.0, math.nan)),
    lambda: stepsize_from_weights(SequencePlan(1.0, math.inf)),
    lambda: stepsize_from_weights(SequencePlan(math.inf, 0.0)),
], ids=["nan-exponent", "inf-exponent", "inf-scale", "nan-scale", "bandwidth-inf-a",
        "bandwidth-nan-a", "bandwidth-inf-scale", "stepsize-nan-alpha", "weights-inf-index",
        "weights-inf-scale"])
def test_plans_reject_non_finite_scale_or_exponent(build):
    # a non-finite plan would give an estimate of nan at every point
    with pytest.raises(ValueError, match="need a finite scale > 0 and a finite exponent"):
        build()


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
    assert n * step.gamma_values(n)[-1] == pytest.approx(1.0 + w_star, rel=0.01)


def test_gamma_stream_matches_gamma_values():
    # gains taken one step at a time from the step index, carrying the weight
    # sum as the streaming estimator does, equal gamma_values bitwise
    for step in (stepsize_plan(0.6), stepsize_plan(0.9, alpha=0.7),
                 stepsize_from_weights(SequencePlan(1.0, -0.21))):
        expected, wsum = step.gamma_values(3000), 0.0
        for k in range(1, 3001):
            g, wsum = step.gains(k, wsum)
            assert g == expected[k - 1]
        assert wsum == step.gains(np.arange(1, 3001), 0.0)[1]


def test_gamma_values_fill_every_step_whatever_the_block_length():
    # gains over consecutive runs of steps, cut at any lengths (those of the
    # streaming tests and the 2**15 steps of gamma_blocks), agree bitwise with
    # gamma_values, and every step is filled exactly once
    for step in (stepsize_plan(0.6), stepsize_from_weights(SequencePlan(1.0, -0.21))):
        for n in (100, 2**15 + 10):
            expected = step.gamma_values(n)
            assert expected.shape == (n,)
            blocks = list(step.gamma_blocks(n))
            assert [len(b) for b in blocks[:-1]] == [2**15] * (len(blocks) - 1)
            np.testing.assert_array_equal(np.concatenate(blocks), expected)
            for size in (1000, 1024):
                runs, wsum = [], 0.0
                for lo in range(1, n + 1, size):
                    g, wsum = step.gains(np.arange(lo, min(lo + size, n + 1)), wsum)
                    runs.append(g)
                np.testing.assert_array_equal(np.concatenate(runs), expected)
        assert step.gamma_values(0).shape == (0,)
        assert list(step.gamma_blocks(0)) == []


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
    for m, v_index in ((math.nan, 0.0), (1.0, math.nan)):  # NaN fails the guards too
        with pytest.raises(ValueError):
            lemma_limit(m, SequencePlan(1.0, v_index), stepsize_plan(1.0), 100)


STEP_COUNTS = pytest.mark.parametrize("count", [
    lambda n: lemma_limit(1.0, SequencePlan(1.0, 0.0), stepsize_plan(1.0), n),
    lambda n: pi_product(stepsize_plan(1.0), n),
    lambda n: stepsize_plan(1.0).gamma_values(n),
    lambda n: stepsize_from_weights(SequencePlan(1.0, 0.0)).gamma_values(n),
], ids=["lemma_limit", "pi_product", "gamma_values", "gamma_values-weights"])


@STEP_COUNTS
def test_step_counts_reject_negative_values(count):
    for n in (-1, -3, math.nan):
        with pytest.raises(ValueError, match="step count must be nonnegative"):
            count(n)
    count(0)  # the empty sum or product


@STEP_COUNTS
@pytest.mark.parametrize("n", [2.5, 3.0, np.float64(3.0), True, "3"], ids=repr)
def test_step_counts_reject_non_integers(count, n):
    # a count of steps is a whole number, never rounded to one; a bool is no count
    with pytest.raises(ValueError, match="must be nonnegative and an integer"):
        count(n)
    count(np.int64(3))


def test_bandwidth_plan_requires_positive_exponent():
    with pytest.raises(ValueError):
        bandwidth_plan(1.0, 0.0)
    assert bandwidth_plan(1.0, 0.21).a == pytest.approx(0.21)


def test_suffix_products_matches_explicit_products():
    for size in (0, 1, 7):
        a = np.random.default_rng(4).uniform(0.5, 1.5, size)
        expected = [math.prod(a[k + 1:]) for k in range(a.size)]
        assert suffix_products(a).shape == (size,)
        np.testing.assert_allclose(suffix_products(a), expected, rtol=1e-15)
    assert suffix_products(np.array([0.3])).tolist() == [1.0]
