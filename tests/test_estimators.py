import math
import tracemalloc

import numpy as np
import pytest

from sakde import estimators
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
from sakde.kernels import Kernel, gaussian_kernel
from sakde.sequences import (STREAM_BLOCK, SequencePlan, bandwidth_plan, pi_product,
                             stepsize_from_weights, stepsize_plan)


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


def test_recursion_weights_plain_average():
    # gamma_n = 1/n collapses the coefficients to 1/n each
    step = stepsize_from_weights(SequencePlan(1.0, 0.0))
    c = recursion_weights(step, 100)
    np.testing.assert_allclose(c, np.full(100, 0.01), rtol=1e-12)


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
    est = RosenblattEstimator(1, bandwidth_plan(1.0, 0.2), sample)
    val = est.eval(gaussian_kernel(1), np.zeros((1, 1)), h=0.1)[0]
    assert val == pytest.approx(0.39894, abs=0.01)


def test_rosenblatt_duplicate_invariance():
    rng = np.random.default_rng(4)
    sample = rng.standard_normal((40, 1))
    doubled = np.concatenate([sample, sample])
    kern = gaussian_kernel(1)
    bw = bandwidth_plan(1.0, 0.21)
    pts = np.linspace(-1, 1, 7)[:, None]
    a = RosenblattEstimator(1, bw, sample).eval(kern, pts, h=0.3)
    b = RosenblattEstimator(1, bw, doubled).eval(kern, pts, h=0.3)
    np.testing.assert_allclose(a, b, rtol=1e-14)


def test_rosenblatt_rejects_empty_sample():
    with pytest.raises(ValueError):
        RosenblattEstimator(1, bandwidth_plan(1.0, 0.21), np.empty((0, 1)))


def test_batch_paths_match_streaming():
    rng = np.random.default_rng(17)
    for d in (1, 2):
        kern = gaussian_kernel(d)
        step = stepsize_plan(1.0 - 0.21)
        bw = bandwidth_plan(1.0, 0.21 / d)
        x = np.full(d, 0.25)
        samples = rng.standard_normal((4, 60, d))
        batch_rec = recursive_batch(kern, step, bw, samples, x)
        batch_ros = rosenblatt_batch(kern, bw, samples, x)
        for r in range(4):
            est = RecursiveEstimator(kern, step, bw, x[None, :])
            for row in samples[r]:
                est.update(row)
            assert batch_rec[r] == pytest.approx(est.values[0], rel=1e-12)
            ros = RosenblattEstimator(d, bw, samples[r])
            assert batch_ros[r] == pytest.approx(ros.eval(kern, x[None, :])[0], rel=1e-12)


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
    rec = recursive_batch(kern, step, bw, samples, x)
    ros = rosenblatt_batch(kern, bw, samples, x)
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


@pytest.mark.parametrize("budget", [None, 1, 50])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_fused_kernel_sum_is_bit_identical_to_kernel_calls(d, budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(estimators, "SCALAR_BUDGET", budget)
    rng = np.random.default_rng(31 + d)
    kern = gaussian_kernel(d)
    n = 45
    c, h = rng.uniform(0.1, 1.0, n), rng.uniform(0.3, 1.5, n)
    pts = rng.standard_normal((6, d))
    for sample in (rng.standard_normal((n, d)), rng.standard_normal((3, n, d))):
        np.testing.assert_array_equal(estimators._kernel_sum(kern, c, h, sample, pts),
                                      _unfused_kernel_sum(kern, c, h, sample, pts))


def test_kernel_sums_reject_other_kernels():
    # the fused sum evaluates the product Gaussian kernel, never another kernel's fn
    base = gaussian_kernel(1)
    doubled = Kernel(1, lambda z: 2.0 * base.fn(z), base.mu2, 2 * base.roughness, "x2")
    with pytest.raises(ValueError):
        recursive_at_points(doubled, stepsize_plan(0.79), bandwidth_plan(1.0, 0.21),
                            np.zeros((3, 1)), np.zeros((2, 1)))
    # the streaming estimator takes the kernels the sums take: update and
    # update_many alike never see another kernel
    with pytest.raises(ValueError):
        RecursiveEstimator(doubled, stepsize_plan(0.79), bandwidth_plan(1.0, 0.21),
                           np.zeros((2, 1)))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("weighted", [True, False])
def test_block_updates_match_one_step_recursion(d, weighted):
    # blocks of STREAM_BLOCK rows, cut anywhere and interleaved with single
    # updates, stay on the one-observation recursion across block boundaries
    rng = np.random.default_rng(50 + d)
    kern, bw = gaussian_kernel(d), bandwidth_plan(0.9, 0.21 / d)
    step = stepsize_from_weights(SequencePlan(1.0, -0.1)) if weighted else stepsize_plan(0.79)
    f0 = 0.0 if weighted else 0.4  # a weight-induced plan has gamma_1 = 1
    n = 2 * STREAM_BLOCK + 5
    sample = rng.standard_normal((n, d))
    pts = rng.standard_normal((30, d)) * 1.5
    stepwise = RecursiveEstimator(kern, step, bw, pts, f0=f0)
    for row in sample:
        stepwise.update(row)
    whole = RecursiveEstimator(kern, step, bw, pts, f0=f0)
    whole.update_many(sample)
    mixed, lo = RecursiveEstimator(kern, step, bw, pts, f0=f0), 0
    # update_many on 1, 1023, 1025 (two blocks) and 2 rows, update on single rows
    for size in (1, STREAM_BLOCK - 1, None, STREAM_BLOCK + 1, None, 2):
        if size is None:
            mixed.update(sample[lo])
        else:
            mixed.update_many(sample[lo:lo + size])
        lo += size or 1
    assert stepwise.n == whole.n == mixed.n == lo == n
    for est in (whole, mixed):
        assert float(np.max(np.abs(est.values - stepwise.values))) < 1e-12


def test_recursive_at_points_memory_is_bounded():
    # one chunk of the whole sample would hold 2048 * 10^4 * 2 scalars (328 MB)
    # per temporary; the scalar budget keeps the traced peak far below that
    rng = np.random.default_rng(5)
    sample = rng.standard_normal((2048, 2))
    axis = np.linspace(-3.0, 3.0, 100)
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    tracemalloc.start()
    try:
        recursive_at_points(gaussian_kernel(2), stepsize_plan(0.66), bandwidth_plan(1.0, 0.17),
                            sample, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2**20


@pytest.mark.parametrize("step", [stepsize_plan(0.79),
                                  stepsize_from_weights(SequencePlan(1.0, -0.21))])
def test_streaming_estimator_holds_short_buffers(step):
    # gains and bandwidths are buffered one short block at a time, not 2**15
    tracemalloc.start()
    try:
        est = RecursiveEstimator(gaussian_kernel(1), step, bandwidth_plan(1.0, 0.21),
                                 np.linspace(-3.0, 3.0, 100))
        est.update(np.zeros(1))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert est.n == 1 and held < 256 * 2**10


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
