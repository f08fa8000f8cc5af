import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from sakde import checks, estimators, mc
from sakde.densities import standard_gaussian
from sakde.estimators import (
    RecursiveEstimator,
    RosenblattEstimator,
    recursion_weights,
    recursive_at_points,
    recursive_batch,
    rosenblatt_batch,
    weighted_closed_form,
)
from sakde.kernels import EXP_FLOOR, Kernel, gaussian_kernel, gaussian_norm, product_gaussian
from sakde.sequences import (SequencePlan, bandwidth_plan, pi_product, stepsize_from_weights,
                             stepsize_plan)


def test_first_update_annihilates_f0_when_gain_is_one():
    # weight-induced stepsizes start with gamma_1 = 1
    kern = gaussian_kernel(1)
    step = stepsize_from_weights(SequencePlan(1.0, 0.0))
    bw = bandwidth_plan(1.0, 0.21)
    pts = np.linspace(-1, 1, 9)[:, None]
    est = RecursiveEstimator(kern, step, bw, pts, f0=123.0)
    x1 = np.array([0.3])
    est.update(x1)
    h1 = bw.value(1)
    expected = kern.fn((pts - x1) / h1) / h1
    np.testing.assert_allclose(est.values, expected, rtol=1e-15)


def test_far_observation_shrinks_previous_value():
    kern = gaussian_kernel(1)
    step = stepsize_plan(0.79)
    bw = bandwidth_plan(1.0, 0.21)
    est = RecursiveEstimator(kern, step, bw, np.array([[0.0]]), f0=0.5)
    est.update(np.array([1e6]))  # kernel tail underflows to exactly 0
    assert est.values[0] == pytest.approx((1 - 0.79) * 0.5, rel=1e-15)


def test_three_observations_match_plain_average():
    # oracle: direct evaluation of the weighted form with unit weights
    kern = gaussian_kernel(1)
    step = stepsize_from_weights(SequencePlan(1.0, 0.0))  # gamma_n = 1/n
    bw = bandwidth_plan(1.0, 0.21)
    pts = np.array([[-0.4], [0.0], [0.7]])
    sample = np.array([[0.1], [-0.2], [0.5]])
    est = RecursiveEstimator(kern, step, bw, pts)
    est.update_many(sample)
    h = bw.value(np.arange(1, 4))
    brute = np.zeros(3)
    for k in range(3):
        brute += kern.fn((pts - sample[k]) / h[k]) / h[k]
    brute /= 3.0
    np.testing.assert_allclose(est.values, brute, rtol=1e-13)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("w_exp_factor", [0.0, 0.5, 1.0])
def test_recursion_equals_weighted_closed_form(d, w_exp_factor):
    # weights 1, h^{d/2}, h^d must reproduce the streaming recursion to 1e-12
    rng = np.random.default_rng(42)
    kern = gaussian_kernel(d)
    a = 0.21 / d
    bw = bandwidth_plan(0.9, a)
    weights = SequencePlan(1.0, -w_exp_factor * a * d)
    step = stepsize_from_weights(weights)
    sample = rng.standard_normal((1000, d))
    pts = rng.standard_normal((50, d)) * 1.5
    est = RecursiveEstimator(kern, step, bw, pts)
    for row in sample:  # the one-step recursion; update_many is a closed form itself
        est.update(row)
    direct = weighted_closed_form(kern, weights, bw, sample, pts)
    assert float(np.max(np.abs(est.values - direct))) < 1e-12


def test_nonnegativity_preserved():
    rng = np.random.default_rng(11)
    kern = gaussian_kernel(1)
    est = RecursiveEstimator(kern, stepsize_plan(0.79), bandwidth_plan(1.0, 0.21),
                             np.linspace(-3, 3, 31)[:, None], f0=0.1)
    for x in rng.standard_normal(200):
        est.update(np.array([x]))
        assert np.all(est.values >= 0.0)


def test_update_is_affine_in_previous_state():
    # superposition: the map values -> new values is affine with slope (1-gamma)
    kern = gaussian_kernel(1)
    bw = bandwidth_plan(1.0, 0.21)
    pts = np.linspace(-2, 2, 11)[:, None]
    sample = np.random.default_rng(3).standard_normal((20, 1))
    outs = []
    for f0 in (0.0, 1.0, 0.25):
        est = RecursiveEstimator(kern, stepsize_plan(0.79), bw, pts, f0=f0)
        est.update_many(sample)
        outs.append(est.values)
    lam = 0.25
    blend = lam * outs[1] + (1 - lam) * outs[0]
    np.testing.assert_allclose(outs[2], blend, rtol=1e-12)


def test_closed_form_expansion_with_initial_value():
    # f_n = sum_k c_k Z_k + Pi_n f_0 for gamma_1 < 1
    rng = np.random.default_rng(8)
    kern = gaussian_kernel(1)
    step = stepsize_plan(0.79)
    bw = bandwidth_plan(1.0, 0.21)
    pts = np.linspace(-2, 2, 21)[:, None]
    sample = rng.standard_normal((500, 1))
    est = RecursiveEstimator(kern, step, bw, pts, f0=0.3)
    for row in sample:
        est.update(row)
    closed = recursive_at_points(kern, step, bw, sample, pts, f0=0.3)
    assert float(np.max(np.abs(est.values - closed))) < 1e-12
    assert pi_product(step, 500) > 0


@pytest.mark.parametrize("step", [stepsize_plan(0.79),
                                  stepsize_from_weights(SequencePlan(1.0, -0.21))],
                         ids=["closed-form", "weight-induced"])
def test_recursion_weights_are_one_runs_coefficients_bit_for_bit(step):
    # the exact oracle's coefficients are those the run expansion sums
    bw, runs = bandwidth_plan(1.0, 0.21), []

    def kernel_sum(rows, c, h):
        runs.append(c.copy())
        return np.zeros(1)

    estimators._recursion(step, bw, 500, kernel_sum, np.zeros(1), 0, 0.0)
    assert len(runs) == 1
    np.testing.assert_array_equal(recursion_weights(step, 500), runs[0])


def test_recursion_weights_plain_average():
    # gamma_n = 1/n collapses the coefficients to 1/n each
    step = stepsize_from_weights(SequencePlan(1.0, 0.0))
    c = recursion_weights(step, 100)
    np.testing.assert_allclose(c, np.full(100, 0.01), rtol=1e-12)
    assert recursion_weights(step, 0).shape == (0,)  # no steps, no coefficients


def test_weighted_closed_form_single_observation():
    kern = gaussian_kernel(1)
    bw = bandwidth_plan(1.0, 0.21)
    pts = np.array([[0.2]])
    sample = np.array([[1.0]])
    for scale in (1.0, 7.0):
        vals = weighted_closed_form(kern, SequencePlan(scale, -0.1), bw, sample, pts)
        assert vals[0] == pytest.approx(kern.fn((pts[0] - 1.0) / 1.0)[()] / 1.0, rel=1e-15)


def test_rosenblatt_single_point():
    kern = gaussian_kernel(1)
    bw = bandwidth_plan(0.5, 0.21)
    est = RosenblattEstimator(1, bw, np.array([[0.7]]))
    val = est.eval(kern, np.array([[0.7]]))[0]
    assert val == pytest.approx((2 * math.pi) ** -0.5 / 0.5, rel=1e-14)


def test_rosenblatt_consistency_large_sample():
    rng = np.random.default_rng(21)
    sample = standard_gaussian(1).sample(rng, 10**5)
    est = RosenblattEstimator(1, bandwidth_plan(1.0, 0.2), sample)  # h = 0.1 at n = 10^5
    val = est.eval(gaussian_kernel(1), np.zeros((1, 1)))[0]
    assert val == pytest.approx(0.39894, abs=0.01)


def test_rosenblatt_duplicate_invariance():
    rng = np.random.default_rng(4)
    sample = rng.standard_normal((40, 1))
    doubled = np.concatenate([sample, sample])
    kern = gaussian_kernel(1)
    pts = np.linspace(-1, 1, 7)[:, None]
    # h = 0.3 at both sample sizes, up to rounding
    a = RosenblattEstimator(1, bandwidth_plan(0.3 * 40**0.21, 0.21), sample).eval(kern, pts)
    b = RosenblattEstimator(1, bandwidth_plan(0.3 * 80**0.21, 0.21), doubled).eval(kern, pts)
    np.testing.assert_allclose(a, b, rtol=1e-14)


def test_rosenblatt_rejects_empty_sample():
    with pytest.raises(ValueError):
        RosenblattEstimator(1, bandwidth_plan(1.0, 0.21), np.empty((0, 1)))


@pytest.mark.parametrize("dim", [0, -1, 1.0, 1.5, True, "1"])
def test_rosenblatt_rejects_a_dim_no_kernel_evaluates(dim):
    with pytest.raises(ValueError, match="^dim must be a positive integer$"):
        RosenblattEstimator(dim, bandwidth_plan(1.0, 0.2), np.zeros((3, 0)))
    with pytest.raises(ValueError, match="^dim must be a positive integer$"):
        gaussian_kernel(dim)


#: the entry points that estimate after a whole sample, as ``(kernel, bandwidth, sample, points)``
WHOLE_SAMPLE = {
    "recursive_at_points": lambda kern, bw, sample, pts: recursive_at_points(
        kern, stepsize_plan(0.79), bw, sample, pts),
    "weighted_closed_form": lambda kern, bw, sample, pts: weighted_closed_form(
        kern, SequencePlan(1.0, 0.0), bw, sample, pts),
    "RosenblattEstimator": lambda kern, bw, sample, pts: RosenblattEstimator(
        kern.dim, bw, sample).eval(kern, pts),
}


@pytest.mark.parametrize("estimate", WHOLE_SAMPLE.values(), ids=WHOLE_SAMPLE.keys())
def test_estimators_reject_empty_sample_alike(estimate):
    with pytest.raises(ValueError, match="sample must be nonempty"):
        estimate(gaussian_kernel(1), bandwidth_plan(1.0, 0.21), np.zeros((0, 1)), np.zeros((2, 1)))


def _update_many(kern, bw, sample, pts):
    est = RecursiveEstimator(kern, stepsize_plan(0.79), bw, pts)
    est.update_many(sample)
    assert est.n == len(sample)
    return est.values


@pytest.mark.parametrize("estimate", [*WHOLE_SAMPLE.values(), _update_many],
                         ids=[*WHOLE_SAMPLE, "update_many"])
def test_estimators_take_an_empty_grid(estimate):
    # a (0, d) grid gives a (0,) estimate, as RecursiveEstimator.update does,
    # in 2-d too, where there is no point to read a grid's axes from
    sample = np.array([[0.1, 0.3], [-0.2, 0.0], [0.5, -0.4]])
    for d in (1, 2):
        out = estimate(gaussian_kernel(d), bandwidth_plan(1.0, 0.21), sample[:, :d],
                       np.zeros((0, d)))
        assert out.shape == (0,)


def test_batch_paths_match_streaming(monkeypatch):
    for budget in (estimators.SCALAR_BUDGET, 7):  # one run of 60 rows, and runs of 7
        monkeypatch.setattr(estimators, "SCALAR_BUDGET", budget)
        rng = np.random.default_rng(17)
        for d in (1, 2):
            kern = gaussian_kernel(d)
            step = stepsize_plan(1.0 - 0.21)
            bw = bandwidth_plan(1.0, 0.21 / d)
            x = np.full(d, 0.25)
            samples = rng.standard_normal((4, 60, d))
            batch_rec = recursive_batch(step, bw, samples, x)
            batch_ros = rosenblatt_batch(bw, samples, x)
            for r in range(4):
                est = RecursiveEstimator(kern, step, bw, x[None, :])
                for row in samples[r]:
                    est.update(row)
                assert batch_rec[r] == pytest.approx(est.values[0], rel=1e-12)
                ros = RosenblattEstimator(d, bw, samples[r])
                assert batch_ros[r] == pytest.approx(ros.eval(kern, x[None, :])[0], rel=1e-12)
                # one replication runs the streaming expansion: where each run's
                # rows fit one chunk of update_many's kernel sum, it is a fresh
                # update_many bit for bit (runs of 7 rows in 2-d take chunks of
                # 3); in a batch, BLAS blocks the last sum by replication rows,
                # which moves an estimate's last bits (a 60-term positive sum
                # reordered moves by under 60 eps)
                fresh = RecursiveEstimator(kern, step, bw, x[None, :])
                fresh.update_many(samples[r])
                one = recursive_batch(step, bw, samples[r:r + 1], x)[0]
                if min(budget, 60) <= budget // d:
                    assert one == fresh.values[0]
                assert one == pytest.approx(fresh.values[0], rel=1e-14)
                assert batch_rec[r] == pytest.approx(fresh.values[0], rel=1e-14)
            # the batch forms are the Monte Carlo's cells at every budget
            model = standard_gaussian(d)
            cells = [mc.CellConfig(model, tuple(x), 60, 0.21 / d, kind, 30, seed=5,
                                   step=step, bandwidth=bw)
                     for kind in (mc.RECURSIVE, mc.ROSENBLATT)]
            block = mc._draw(model, 5, 0, 30, 60)
            rec, ros = mc.estimates(*cells)
            np.testing.assert_array_equal(rec, recursive_batch(step, bw, block, x))
            np.testing.assert_array_equal(ros, rosenblatt_batch(bw, block, x))


def test_batch_forms_reject_bad_input_before_any_arithmetic():
    step, bw = stepsize_plan(0.79), bandwidth_plan(1.0, 0.21)
    samples = np.random.default_rng(3).standard_normal((4, 20, 2))
    for bad in (math.nan, math.inf):
        poisoned = samples.copy()
        poisoned[2, 7, 1] = bad
        for form in (lambda s, x: recursive_batch(step, bw, s, x),
                     lambda s, x: rosenblatt_batch(bw, s, x)):
            with pytest.raises(ValueError, match="^samples must be finite$"):
                form(poisoned, np.zeros(2))
            # a bad x has one message, as_point's, whichever entry point reads it
            with pytest.raises(ValueError, match=r"^x must be 2 finite number\(s\), got "):
                form(samples, np.array([0.0, bad]))
    for form in (lambda s, x: recursive_batch(step, bw, s, x),
                 lambda s, x: rosenblatt_batch(bw, s, x)):
        for shape in ((4, 0, 2), (4, 20, 0), (20, 2), (1, 4, 20, 2)):
            with pytest.raises(ValueError, match="^need samples of shape"):
                form(np.zeros(shape), np.zeros(shape[-1]))
        for x in (np.zeros(1), np.zeros(3), np.zeros((1, 2)), np.zeros((2, 2)), 0.0):
            with pytest.raises(ValueError, match=r"^x must be 2 finite number\(s\), got "):
                form(samples, x)
        assert form(np.zeros((0, 20, 2)), np.zeros(2)).shape == (0,)


@pytest.mark.parametrize("n", [0, -1, 51, 60, 50.0, True, "50"])
def test_estimates_at_point_rejects_an_n_beyond_the_samples(n, monkeypatch):
    # a cell reads the first n of N = 50 observations per replication: n = 60
    # would sum 50 terms weighted 1/60 and stop the recursion after 50 steps,
    # and n = 0 would divide by 0; each raises before any arithmetic
    samples = np.random.default_rng(4).standard_normal((8, 50, 1))
    bw, calls = bandwidth_plan(1.0, 0.21), []
    monkeypatch.setattr(estimators, "_squared_distances", lambda *args: calls.append(args))
    for step in (None, stepsize_plan(0.79)):
        with pytest.raises(ValueError, match=r"^a cell's n must be an integer in \[1, 50\]"):
            estimators.estimates_at_point(np.zeros(1), samples, [(50, bw, step), (n, bw, step)])
    assert calls == []
    monkeypatch.undo()
    # n = N, a numpy integer too, reads every observation
    for step in (None, stepsize_plan(0.79)):
        whole, top = estimators.estimates_at_point(np.zeros(1), samples,
                                                   [(50, bw, step), (np.int64(50), bw, step)])
        np.testing.assert_array_equal(whole, top)


@pytest.mark.parametrize("x", [[np.nan], [np.inf], [0.0, 0.0], [[0.0]], 0.0, ["0"], [1j]])
def test_estimates_at_point_rejects_an_x_that_is_not_d_finite_numbers(x, monkeypatch):
    # on zero samples, x = [nan] gave NaN estimates and a 2-coordinate x
    # numpy's reshape error; each x that is not d finite numbers raises, by
    # the rule of a CellConfig's x, before any draw or arithmetic
    samples = np.zeros((8, 50, 1))
    bw, calls, draws = bandwidth_plan(1.0, 0.21), [], []
    monkeypatch.setattr(estimators, "_squared_distances", lambda *args: calls.append(args))
    message = r"^x must be 1 finite number\(s\), got "
    for step in (None, stepsize_plan(0.79)):
        with pytest.raises(ValueError, match=message):
            estimators.estimates_at_point(x, samples, [(50, bw, step)])
        with pytest.raises(ValueError, match=message):
            estimators.replication_estimates([(np.zeros(1), (50, bw, step)), (x, (50, bw, step))],
                                             8, 50, 1, lambda *args: draws.append(args))
    assert calls == [] and draws == []


# Reference loops for the chunked kernel sum: one observation at a time, in
# plain Python, written from the defining formulas.  Every caller must match
# them to this relative tolerance, fixed beforehand from float64 round-off
# over a few dozen positive terms.
REF_RTOL = 1e-12


def _loop_recursion(kern, step, bw, sample, pts, f0=0.0):
    f = np.full(len(pts), f0)
    for k, (g, x_k) in enumerate(zip(step.gamma_values(len(sample)), sample), start=1):
        h = bw.value(k)
        f = (1.0 - g) * f + g * kern.fn((pts - x_k) / h) / h**kern.dim
    return f


def _loop_weighted(kern, weights, bw, sample, pts):
    num, den = np.zeros(len(pts)), 0.0
    for k, x_k in enumerate(sample, start=1):
        w, h = weights.value(k), bw.value(k)
        num += w * kern.fn((pts - x_k) / h) / h**kern.dim
        den += w
    return num / den


def _loop_rosenblatt(kern, h, sample, pts):
    total = np.zeros(len(pts))
    for x_k in sample:
        total += kern.fn((pts - x_k) / h)
    return total / (len(sample) * h**kern.dim)


@pytest.mark.parametrize("budget", [None, 1, 50])
@pytest.mark.parametrize("d", [1, 2])
def test_kernel_sum_callers_match_observation_loops(d, budget, monkeypatch):
    # budget 1 puts every observation in its own chunk; 50 gives uneven chunks
    if budget is not None:
        monkeypatch.setattr(estimators, "SCALAR_BUDGET", budget)
    rng = np.random.default_rng(23 + d)
    kern = gaussian_kernel(d)
    a = 0.21 / d
    bw = bandwidth_plan(0.9, a)
    step = stepsize_plan(1.0 - a * d)
    weights = SequencePlan(1.0, -a * d / 2.0)
    sample = rng.standard_normal((40, d))
    pts = rng.standard_normal((7, d))
    np.testing.assert_allclose(recursive_at_points(kern, step, bw, sample, pts, f0=0.2),
                               _loop_recursion(kern, step, bw, sample, pts, f0=0.2),
                               rtol=REF_RTOL, atol=0)
    np.testing.assert_allclose(weighted_closed_form(kern, weights, bw, sample, pts),
                               _loop_weighted(kern, weights, bw, sample, pts),
                               rtol=REF_RTOL, atol=0)
    h_n = float(bw.value(40))
    np.testing.assert_allclose(RosenblattEstimator(d, bw, sample).eval(kern, pts),
                               _loop_rosenblatt(kern, h_n, sample, pts), rtol=REF_RTOL, atol=0)

    samples = rng.standard_normal((3, 40, d))
    x = pts[0]
    rec = recursive_batch(step, bw, samples, x)
    ros = rosenblatt_batch(bw, samples, x)
    assert rec.shape == ros.shape == (3,)
    for r in range(3):
        assert rec[r] == pytest.approx(
            _loop_recursion(kern, step, bw, samples[r], x[None, :])[0], rel=REF_RTOL, abs=0)
        assert ros[r] == pytest.approx(
            _loop_rosenblatt(kern, h_n, samples[r], x[None, :])[0], rel=REF_RTOL, abs=0)


def _unfused_kernel_sum(kernel, c, h, sample, points):
    """The kernel sum as one kernel call per chunk: ``kernel.fn((p - X) / h) @ (c / h^d)``,
    chunked by the same rule."""
    *batch, n, d = sample.shape
    coef = c / h**d
    chunk = max(1, estimators.SCALAR_BUDGET // (math.prod(batch) * len(points) * d))
    out = np.zeros((*batch, len(points)))
    for lo in range(0, n, chunk):
        sl = slice(lo, lo + chunk)
        k = kernel.fn((points[:, None, :] - sample[..., None, sl, :]) / h[sl, None])
        out += (k.reshape(-1, k.shape[-1]) @ coef[sl]).reshape(out.shape)
    return out


def _direct_terms(diff, h, floor):
    """``exp(max(q_k s_k, floor))`` for the differences ``diff`` (..., n, d) of a
    point and the rows, ``q_k`` added in coordinate order and ``s_k = -1/(2 h_k^2)``."""
    q = diff[..., 0] ** 2
    for j in range(1, diff.shape[-1]):
        q = q + diff[..., j] ** 2
    return np.exp(np.maximum(q * (-0.5 / (h * h)), floor))


def _direct_kernel_sum(c, h, sample, points, floor=EXP_FLOOR):
    """The fused kernel sum's formula evaluated directly, chunked by the same
    rule, untiled and always floored at ``floor``:
    ``sum_k c_k (2 pi)^(-d/2) h_k^-d exp(max(q_k s_k, floor))`` with
    ``q_k = sum_j (p_j - X_kj)^2`` added in coordinate order and ``s_k = -1/(2 h_k^2)``."""
    n, d = sample.shape
    coef = c * gaussian_norm(d) / h**d
    chunk = max(1, estimators.SCALAR_BUDGET // (len(points) * d))
    out = np.zeros(len(points))
    for lo in range(0, n, chunk):
        sl = slice(lo, lo + chunk)
        out += _direct_terms(points[:, None, :] - sample[None, sl], h[sl], floor) @ coef[sl]
    return out


def _direct_point_sum(c, h, samples, x, floor=EXP_FLOOR):
    """The same formula at one point ``x`` over replication ``samples`` (reps, n, d),
    one product per block of replications (:func:`estimators.replication_blocks`),
    untiled and always floored at ``floor``."""
    reps, n, d = samples.shape
    coef, out = c * gaussian_norm(d) / h**d, np.empty(reps)
    for lo, hi in estimators.replication_blocks(reps, n, d):
        out[lo:hi] = _direct_terms(x - samples[lo:hi], h, floor) @ coef
    return out


def _kernel_sum_cases(rng, d):
    """``(c, h, sample, points)``: bulk bandwidths, then narrow ones read at 2
    sigma, with exponents from the bulk through the floor's (-745, -700] band
    to below -745, where exp is 0; the last point, at 10 sigma, sees only
    floored terms."""
    n = 45
    c = rng.uniform(0.1, 1.0, n)
    u = rng.standard_normal((6, d))
    tail_pts = np.vstack([2.0 * u / np.linalg.norm(u, axis=1, keepdims=True),
                          np.full((1, d), 10.0)])
    for h, pts in ((rng.uniform(0.3, 1.5, n), rng.standard_normal((6, d))),
                   (rng.uniform(0.01, 0.05, n), tail_pts)):
        yield c, h, rng.standard_normal((n, d)), pts


def _batch_cases(rng, d):
    """``(form, c, h, samples, x)`` for the same two regimes at each point, over a
    batch of 3 replications: each batch form with the ``(c_k, h_k)`` it sums,
    the recursion only where its 45 rows are one run (a run's sum starts from 0)."""
    n, step = 45, stepsize_plan(0.7)
    u = rng.standard_normal((6, d))
    tail_pts = np.vstack([2.0 * u / np.linalg.norm(u, axis=1, keepdims=True),
                          np.full((1, d), 10.0)])
    for bw, pts in ((bandwidth_plan(1.2, 0.2), rng.standard_normal((6, d))),
                    (bandwidth_plan(0.05, 0.2), tail_pts)):
        samples = rng.standard_normal((3, n, d))
        for x in pts:
            yield (lambda s, x, bw=bw: rosenblatt_batch(bw, s, x),
                   *estimators.rosenblatt_coefficients(n, bw.value(n)), samples, x)
            if estimators.SCALAR_BUDGET >= n:
                yield (lambda s, x, bw=bw: recursive_batch(step, bw, s, x),
                       recursion_weights(step, n), bw.value(np.arange(1, n + 1)), samples, x)


@pytest.mark.parametrize("tile", [None, 256])
@pytest.mark.parametrize("budget", [None, 1, 50])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_fused_kernel_sum_is_bit_identical_to_kernel_calls(d, budget, tile, monkeypatch):
    # the tiled sum, with the floor's pass skipped where it cannot act, is the
    # formula evaluated directly and always floored, bit for bit; a tile of 256
    # scalars puts 4 rows of 45 terms in each tile
    if budget is not None:
        monkeypatch.setattr(estimators, "SCALAR_BUDGET", budget)
    if tile is not None:
        monkeypatch.setattr(estimators, "_TILE", tile)
    for c, h, sample, pts in _kernel_sum_cases(np.random.default_rng(31 + d), d):
        np.testing.assert_array_equal(estimators._kernel_sum(c, h, sample, pts),
                                      _direct_kernel_sum(c, h, sample, pts))
    # a batch of replications at one point: the batch forms' one evaluation
    for form, c, h, samples, x in _batch_cases(np.random.default_rng(31 + d), d):
        np.testing.assert_array_equal(form(samples, x), _direct_point_sum(c, h, samples, x))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fused_kernel_sum_is_the_divided_kernel_sum_within_the_floor_bound(d):
    # the squared distance times -1/(2 h^2) rounds apart from ((p - X)/h)^2 / -2,
    # so the fused sum agrees with kernel.fn((p - X)/h) @ (c/h^d) within the grid
    # path's bound, floored tail points included
    kern = gaussian_kernel(d)
    for c, h, sample, pts in _kernel_sum_cases(np.random.default_rng(37 + d), d):
        fused = estimators._kernel_sum(c, h, sample, pts)
        divided = _unfused_kernel_sum(kern, c, h, sample, pts)
        assert np.all(np.abs(fused - divided) <= 1e-12 * np.abs(divided) + _floor_bound(c, h, d))
    for form, c, h, samples, x in _batch_cases(np.random.default_rng(37 + d), d):
        fused = form(samples, x)
        divided = _unfused_kernel_sum(kern, c, h, samples, x[None, :])[:, 0]
        assert np.all(np.abs(fused - divided) <= 1e-12 * np.abs(divided) + _floor_bound(c, h, d))


def test_product_gaussian_is_the_kernel_sum_at_unit_bandwidth():
    # one observation, c = h = 1: the kernel sum is norm * exp(max(-|z|^2/2, EXP_FLOOR)),
    # z = p - X, the kernel itself, bit for bit, tail points included
    rng = np.random.default_rng(43)
    for d in (1, 2, 3):
        x, pts = rng.standard_normal(d), 20.0 * rng.standard_normal((50, d))
        np.testing.assert_array_equal(
            estimators._kernel_sum(np.ones(1), np.ones(1), x[None, :], pts),
            product_gaussian(pts - x))


def _counting_maximum(monkeypatch):
    """The calls to ``np.maximum`` from here on, counted in a list."""
    calls, maximum = [], np.maximum
    monkeypatch.setattr(np, "maximum", lambda *args, **kwargs: calls.append(1)
                        or maximum(*args, **kwargs))
    return calls


@pytest.mark.parametrize("scale, fires", [(1.0, False), (2.0, True), (10.0, True)])
def test_floor_pass_runs_only_where_its_bound_fires(scale, fires, monkeypatch):
    # squared distances up to 1400 scale**2 at h = 1: qmax / 2 = 700 scale**2 is
    # exactly -EXP_FLOOR at scale 1, where no exponent can pass the floor and
    # the pass is skipped; at scale 2 the bound fires and exponents reach -2800,
    # and at 10 the bound fires with every exponent below the floor.  Each sum is
    # the always-floored sum bit for bit
    rng = np.random.default_rng(47)
    c, h = rng.uniform(0.1, 1.0, 30), np.ones(30)
    q = scale**2 * np.append(rng.uniform(0.0, 1400.0, (8, 29)), np.full((8, 1), 1400.0), axis=1)
    if scale == 10.0:
        q = np.maximum(q, 2000.0)
    coef = c * gaussian_norm(2)
    floored = np.exp(np.maximum(q * -0.5, EXP_FLOOR)) @ coef
    calls = _counting_maximum(monkeypatch)
    out = estimators._gaussian_sum(q, *estimators._exponent_terms(c, h, 2), float(q.max()))
    assert bool(calls) == fires
    np.testing.assert_array_equal(out, floored)
    assert np.any(q * -0.5 < EXP_FLOOR) == (scale > 1.0)


def _ij_grid(*axes):
    """The tensor grid of ``axes``, flattened in ``meshgrid(indexing="ij")`` order."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _floor_bound(c, h, d):
    """``L = sum_k c_k h_k^-d (2 pi)^(-d/2) e^-700``, the least term of the fused sum."""
    return float(np.sum(c / h**d)) * gaussian_norm(d) * math.exp(EXP_FLOOR)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_all_tail_kernel_sum_is_positive_within_the_floor_bound(d):
    # every exponent is below -18000: without the floor each term, and the
    # sum, would be exactly 0; with it the sum is at most L, on the fused sum,
    # on the batch forms at one point and, over a 3^d grid in d >= 2, on the
    # grid path, where the factors' products underflow to 0 and the sum is
    # floored at L
    rng = np.random.default_rng(41 + d)
    n = 50
    c, h = rng.uniform(0.1, 1.0, n), rng.uniform(0.01, 0.05, n)
    sample = 0.1 * rng.standard_normal((n, d))
    grid = _ij_grid(*[np.linspace(10.0, 11.0, 3)] * d)
    assert (estimators._grid_axes(grid) is not None) == (d > 1)
    for pts in (np.full((4, d), 10.0), grid):
        out = estimators._kernel_sum(c, h, sample, pts)
        assert out.shape == (len(pts),)
        assert np.all(_direct_kernel_sum(c, h, sample, pts, floor=-np.inf) == 0.0)
        assert np.all(np.isfinite(out)) and np.all(out > 0.0)
        assert np.all(out <= _floor_bound(c, h, d) * (1.0 + 1e-12))
    samples, x = 0.1 * rng.standard_normal((3, n, d)), np.full(d, 10.0)
    bw = bandwidth_plan(0.05, 0.2)
    for c, h, out in ((*estimators.rosenblatt_coefficients(n, bw.value(n)),
                       rosenblatt_batch(bw, samples, x)),
                      (recursion_weights(stepsize_plan(0.7), n), bw.value(np.arange(1, n + 1)),
                       recursive_batch(stepsize_plan(0.7), bw, samples, x))):
        assert np.all(_direct_point_sum(c, h, samples, x, floor=-np.inf) == 0.0)
        assert np.all(np.isfinite(out)) and np.all(out > 0.0)
        assert np.all(out <= _floor_bound(c, h, d) * (1.0 + 1e-12))


@pytest.mark.parametrize("budget", [None, 1, 50])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_grid_kernel_sum_is_the_fused_sum_within_the_floor_bound(d, budget, monkeypatch):
    # the same points permuted are no grid and take the fused sum; the grid
    # path stays within L of it, up to rounding of about |exponent| ulp
    if budget is not None:
        monkeypatch.setattr(estimators, "SCALAR_BUDGET", budget)
    rng = np.random.default_rng(71 + d)
    n = 40
    c = rng.uniform(0.1, 1.0, n)
    sample = rng.standard_normal((n, d))
    sizes = {2: (9, 7), 3: (5, 4, 6), 4: (3, 4, 2, 3)}[d]
    # the last value of each axis, at 10, sees only floored terms under the
    # narrow bandwidths
    axes = [np.append(np.sort(rng.uniform(-3.0, 3.0, s - 1)), 10.0) for s in sizes]
    pts = _ij_grid(*axes)
    perm = rng.permutation(len(pts))
    assert estimators._grid_axes(pts) is not None and estimators._grid_axes(pts[perm]) is None
    for h in (rng.uniform(0.3, 1.5, n), rng.uniform(0.01, 0.05, n)):
        grid = estimators._kernel_sum(c, h, sample, pts)
        fused = np.empty_like(grid)
        fused[perm] = estimators._kernel_sum(c, h, sample, pts[perm])
        assert np.all(grid > 0.0)
        assert np.all(np.abs(grid - fused) <= 1e-12 * np.abs(fused) + _floor_bound(c, h, d))


def _not_grids(rng):
    """``(label, sample, points)`` that must take the fused sum."""
    x, y = np.linspace(-2.0, 2.0, 6), np.linspace(-1.0, 3.0, 5)
    grid = _ij_grid(x, y)
    moved = grid.copy()
    moved[13, 1] = np.nextafter(moved[13, 1], np.inf)
    sample = rng.standard_normal((30, 2))
    yield "permuted", sample, grid[rng.permutation(len(grid))]
    yield "one ulp off", sample, moved
    yield "xy order", sample, np.stack(np.meshgrid(x, y, indexing="xy"), -1).reshape(-1, 2)
    yield "1-d", rng.standard_normal((30, 1)), x[:, None]


def test_kernel_sum_off_a_grid_is_the_fused_sum_bit_for_bit():
    rng = np.random.default_rng(83)
    c, h = rng.uniform(0.1, 1.0, 30), rng.uniform(0.1, 1.0, 30)
    for label, sample, pts in _not_grids(rng):
        if sample.shape[1] > 1:
            assert estimators._grid_axes(pts) is None, label
        np.testing.assert_array_equal(estimators._kernel_sum(c, h, sample, pts),
                                      _direct_kernel_sum(c, h, sample, pts), err_msg=label)


def test_floor_moves_no_bit_of_the_clt_cell(monkeypatch):
    # check full's CLT cell, undersmoothed and read at x = 1, puts a share of
    # its exponents below the floor; at 200 replications its estimates equal
    # those of the same sums without the floor, bit for bit
    cell_config, estimates, drawn = mc.CellConfig, mc.estimates, []
    monkeypatch.setattr(mc, "CellConfig", lambda *args, **kwargs: dataclasses.replace(
        cell_config(*args, **kwargs), replications=200))
    monkeypatch.setattr(mc, "estimates", lambda *cfgs: drawn.append(cfgs) or estimates(*cfgs))
    checks.moments_and_clt(0, 1)
    (*_, clt), = drawn
    assert clt.x == (1.0,) and clt.replications == 200
    floored, = estimates(clt)

    gaussian_sum, tail = estimators._gaussian_sum, []

    def unfloored_sum(q, coef, scale, qmax):
        tail.append(np.count_nonzero(q * scale < EXP_FLOOR))
        return gaussian_sum(q, coef, scale, qmax)

    monkeypatch.setattr(estimators, "EXP_FLOOR", -np.inf)  # the floor's pass never runs
    monkeypatch.setattr(estimators, "_gaussian_sum", unfloored_sum)
    unfloored, = estimates(clt)
    assert sum(tail) > 0
    np.testing.assert_array_equal(floored, unfloored)


def test_kernel_sums_reject_other_kernels():
    # the fused sum evaluates the product Gaussian kernel, never another kernel's fn
    base = gaussian_kernel(1)
    doubled = Kernel(1, lambda z: 2.0 * base.fn(z), "x2")
    bw, sample, pts = bandwidth_plan(1.0, 0.21), np.zeros((3, 1)), np.zeros((2, 1))
    with pytest.raises(ValueError):
        recursive_at_points(doubled, stepsize_plan(0.79), bw, sample, pts)
    with pytest.raises(ValueError):
        weighted_closed_form(doubled, SequencePlan(1.0, 0.0), bw, sample, pts)
    with pytest.raises(ValueError, match="product Gaussian"):
        RosenblattEstimator(1, bw, sample).eval(doubled, pts)
    # the streaming estimator takes the kernels the sums take: update and
    # update_many alike never see another kernel
    with pytest.raises(ValueError):
        RecursiveEstimator(doubled, stepsize_plan(0.79), bandwidth_plan(1.0, 0.21),
                           np.zeros((2, 1)))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("weighted", [True, False])
def test_block_updates_match_one_step_recursion(d, weighted):
    # blocks of rows, cut anywhere and interleaved with single updates, stay
    # on the one-observation recursion
    rng = np.random.default_rng(50 + d)
    kern, bw = gaussian_kernel(d), bandwidth_plan(0.9, 0.21 / d)
    step = stepsize_from_weights(SequencePlan(1.0, -0.1)) if weighted else stepsize_plan(0.79)
    f0 = 0.0 if weighted else 0.4  # a weight-induced plan has gamma_1 = 1
    n = 2053
    sample = rng.standard_normal((n, d))
    pts = rng.standard_normal((30, d)) * 1.5
    stepwise = RecursiveEstimator(kern, step, bw, pts, f0=f0)
    for row in sample:
        stepwise.update(row)
    whole = RecursiveEstimator(kern, step, bw, pts, f0=f0)
    whole.update_many(sample)
    mixed, lo = RecursiveEstimator(kern, step, bw, pts, f0=f0), 0
    # update_many on 1, 1023, 1025 and 2 rows, update on single rows
    for size in (1, 1023, None, 1025, None, 2):
        if size is None:
            mixed.update(sample[lo])
        else:
            mixed.update_many(sample[lo:lo + size])
        lo += size or 1
    assert stepwise.n == whole.n == mixed.n == lo == n
    for est in (whole, mixed):
        assert float(np.max(np.abs(est.values - stepwise.values))) < 1e-12


@pytest.mark.parametrize("step, f0, n, budget", [
    (stepsize_plan(0.79), 0.0, 2053, None),
    (stepsize_from_weights(SequencePlan(1.0, -0.1)), 0.0, 2053, None),
    (stepsize_plan(0.5), 0.3, 10**4, None),
    (stepsize_plan(0.79), 0.3, 2053, 7),
], ids=["closed-form", "weight-induced", "f0-slow-gains", "f0-runs-of-7"])
def test_fresh_block_update_is_the_closed_form_bit_for_bit(step, f0, n, budget, monkeypatch):
    # both run the one expansion: the same runs, gains, bandwidths and start
    # factors, summed in the same order, whatever f0 and the run length
    if budget is not None:
        monkeypatch.setattr(estimators, "SCALAR_BUDGET", budget)
    rng = np.random.default_rng(61)
    kern, bw = gaussian_kernel(1), bandwidth_plan(0.9, 0.21)
    sample, pts = rng.standard_normal((n, 1)), np.linspace(-3.0, 3.0, 40)
    est = RecursiveEstimator(kern, step, bw, pts, f0=f0)
    est.update_many(sample)
    assert est.n == n
    np.testing.assert_array_equal(est.values,
                                  recursive_at_points(kern, step, bw, sample, pts, f0=f0))


@pytest.mark.parametrize("step", [stepsize_plan(0.79),
                                  stepsize_from_weights(SequencePlan(1.0, -0.1))],
                         ids=["closed-form", "weight-induced"])
def test_block_update_runs_follow_scalar_budget(step, monkeypatch):
    # a budget of a few rows cuts update_many into many runs; each run starts
    # from the gains and weight sum the previous one ended with
    rng = np.random.default_rng(62)
    kern, bw = gaussian_kernel(2), bandwidth_plan(0.9, 0.1)
    sample, pts = rng.standard_normal((203, 2)), rng.standard_normal((6, 2))
    f0 = 0.0 if step.weights is not None else 0.3
    stepwise = RecursiveEstimator(kern, step, bw, pts, f0=f0)
    for row in sample:
        stepwise.update(row)
    monkeypatch.setattr(estimators, "SCALAR_BUDGET", 7)
    est = RecursiveEstimator(kern, step, bw, pts, f0=f0)
    est.update_many(sample[:1])
    est.update_many(sample[1:])
    assert est.n == len(sample)
    assert float(np.max(np.abs(est.values - stepwise.values))) < 1e-12


def test_recursive_at_points_memory_is_bounded():
    # one chunk of the whole sample would hold 2048 * 10^4 * 2 scalars (328 MB)
    # per temporary; the scalar budget keeps the traced peak far below that,
    # on the grid's separable sum and, with its points permuted, the fused sum
    rng = np.random.default_rng(5)
    sample = rng.standard_normal((2048, 2))
    axis = np.linspace(-3.0, 3.0, 100)
    grid = _ij_grid(axis, axis)
    permuted = grid[rng.permutation(len(grid))]
    assert estimators._grid_axes(grid) is not None and estimators._grid_axes(permuted) is None
    for pts in (grid, permuted):
        tracemalloc.start()
        try:
            recursive_at_points(gaussian_kernel(2), stepsize_plan(0.66),
                                bandwidth_plan(1.0, 0.17), sample, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96 * 2**20


def test_kernel_sum_holds_one_distance_tile():
    # the stream's 1-d grid of 100 points at n = 10^4: one chunk of 10^4
    # observations, whose squared distances (8 MB) are made and summed one tile
    # of 4 points (4 x 10^4 scalars) at a time.  The peak is two such tiles
    # (the next is made while the last is held) and one of exponents, each
    # under _TILE scalars, and 4 n scalars for the exponent terms
    rng = np.random.default_rng(6)
    n, tile = 10**4, estimators._TILE
    sample, pts = rng.standard_normal((n, 1)), np.linspace(-3.0, 3.0, 100)[:, None]
    c, h = np.full(n, 1.0 / n), bandwidth_plan(1.0, 0.21).value(np.arange(1, n + 1))
    tracemalloc.start()
    try:
        estimators._kernel_sum(c, h, sample, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (3 * tile + 4 * n) + (64 << 10)


@pytest.mark.parametrize("step", [stepsize_plan(0.79),
                                  stepsize_from_weights(SequencePlan(1.0, -0.21))])
def test_streaming_estimator_holds_short_buffers(step):
    # between updates the estimator holds its estimate and a weight sum, no
    # gains or bandwidths
    tracemalloc.start()
    try:
        est = RecursiveEstimator(gaussian_kernel(1), step, bandwidth_plan(1.0, 0.21),
                                 np.linspace(-3.0, 3.0, 100))
        est.update(np.zeros(1))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert est.n == 1 and held < 256 * 2**10


def test_failed_block_update_after_a_refill_keeps_its_steps(monkeypatch):
    # update_many writes its state only once its kernel sums return: an update
    # that fails leaves its steps, and the weight sum, to the next one
    rng = np.random.default_rng(7)
    sample, pts = rng.standard_normal((1024 + 40, 1)), np.linspace(-2, 2, 9)
    args = (gaussian_kernel(1), stepsize_from_weights(SequencePlan(1.0, -0.1)),
            bandwidth_plan(1.0, 0.21), pts)
    est, fresh = RecursiveEstimator(*args), RecursiveEstimator(*args)
    est.update_many(sample[:1024])
    kernel_sum = estimators._kernel_sum

    def fails_once(*a):
        monkeypatch.setattr(estimators, "_kernel_sum", kernel_sum)
        raise RuntimeError("injected")

    monkeypatch.setattr(estimators, "_kernel_sum", fails_once)
    before = est.values.copy()
    with pytest.raises(RuntimeError):
        est.update_many(sample[1024:1024 + 10])
    assert est.n == 1024
    np.testing.assert_array_equal(est.values, before)
    fresh.update_many(sample[:1024])
    for e in (est, fresh):
        e.update_many(sample[1024:1024 + 10])
        e.update(sample[1024 + 10])
        e.update_many(sample[1024 + 11:])
    assert est.n == fresh.n == len(sample)
    np.testing.assert_array_equal(est.values, fresh.values)


def test_wrong_length_row_leaves_state_unchanged():
    args = (gaussian_kernel(2), stepsize_plan(0.66), bandwidth_plan(1.0, 0.17),
            np.zeros((3, 2)))
    est, ref = RecursiveEstimator(*args, f0=0.2), RecursiveEstimator(*args, f0=0.2)
    for e in (est, ref):
        e.update([0.1, -0.3])
    before = est.values.copy()
    for bad in ([0.1], [0.1, 0.2, 0.3], [[0.1, 0.2], [0.3, 0.4]]):
        with pytest.raises(ValueError):
            est.update(bad)
    assert est.n == 1
    np.testing.assert_array_equal(est.values, before)
    # the gain position did not move either: the next update is step 2
    est.update([0.4, 0.2])
    ref.update([0.4, 0.2])
    np.testing.assert_array_equal(est.values, ref.values)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_observation_leaves_state_unchanged(bad):
    kern = gaussian_kernel(1)
    est = RecursiveEstimator(kern, stepsize_plan(0.79), bandwidth_plan(1.0, 0.21),
                             np.linspace(-1, 1, 5)[:, None], f0=0.1)
    est.update_many([[0.2]])
    before = est.values.copy()
    with pytest.raises(ValueError):
        est.update_many([[0.1], [bad], [0.3]])
    with pytest.raises(ValueError):
        est.update([bad])
    assert est.n == 1
    np.testing.assert_array_equal(est.values, before)
    # the gain sequence did not advance either: the next update is step 2
    est.update([0.1])
    ref = RecursiveEstimator(kern, stepsize_plan(0.79), bandwidth_plan(1.0, 0.21),
                             np.linspace(-1, 1, 5)[:, None], f0=0.1)
    ref.update_many([[0.2]])
    ref.update([0.1])
    np.testing.assert_array_equal(est.values, ref.values)


def test_rosenblatt_rejects_non_finite_sample():
    with pytest.raises(ValueError):
        RosenblattEstimator(1, bandwidth_plan(1.0, 0.21), np.array([[0.1], [math.nan]]))


def test_f0_must_broadcast_to_grid():
    kern = gaussian_kernel(1)
    pts = np.linspace(-1, 1, 4)[:, None]
    args = (kern, stepsize_plan(0.79), bandwidth_plan(1.0, 0.21), pts)
    for f0 in (np.zeros((4, 1)), np.zeros(3), np.zeros((1, 1))):
        with pytest.raises(ValueError):
            RecursiveEstimator(*args, f0=f0)
        with pytest.raises(ValueError):
            recursive_at_points(*args[:3], np.zeros((5, 1)), pts, f0=f0)
    est = RecursiveEstimator(*args, f0=np.arange(4.0))
    np.testing.assert_array_equal(est.values, np.arange(4.0))
    assert RecursiveEstimator(*args, f0=0.5).values.shape == (4,)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("entry", [
    lambda args, f0: RecursiveEstimator(*args, f0=f0),
    lambda args, f0: recursive_at_points(*args[:3], np.zeros((5, 1)), args[3], f0=f0),
], ids=["RecursiveEstimator", "recursive_at_points"])
def test_non_finite_f0_is_rejected(entry, bad):
    pts = np.linspace(-1, 1, 4)[:, None]
    args = (gaussian_kernel(1), stepsize_plan(0.79), bandwidth_plan(1.0, 0.21), pts)
    with pytest.raises(ValueError, match="f0 must be finite"):
        entry(args, bad)
    with pytest.raises(ValueError, match="f0 must be finite"):
        entry(args, np.array([0.0, 0.1, bad, 0.3]))
