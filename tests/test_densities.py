import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import multivariate_normal

from sakde import mc
from sakde.densities import (
    GaussianMixture,
    LinearImage,
    curvature,
    curvature_squared_integral,
    standard_gaussian,
)

SHEAR = np.array([[1.0, 0.0], [0.5, 1.0]])


def two_point_mixture_1d():
    return GaussianMixture([0.5, 0.5], [[-0.5], [0.5]],
                           np.array([np.eye(1), np.eye(1)]))


def phi(x):
    return math.exp(-x * x / 2) / math.sqrt(2 * math.pi)


def test_standard_gaussian_pdf_at_zero():
    assert standard_gaussian(1).pdf(np.zeros(1)) == pytest.approx(1 / math.sqrt(2 * math.pi),
                                                                  rel=1e-14)


def test_mixture_pdf_at_zero():
    # average of two unit normals at distance 1/2 equals phi(0.5) at the midpoint
    assert two_point_mixture_1d().pdf(np.zeros(1)) == pytest.approx(phi(0.5), rel=1e-14)


def test_identity_image_matches_base():
    base = standard_gaussian(2)
    image = LinearImage(base, np.eye(2))
    pts = np.random.default_rng(0).standard_normal((40, 2))
    np.testing.assert_allclose(image.pdf(pts), base.pdf(pts), rtol=1e-14)


def test_pdf_integrates_to_one():
    for model in (standard_gaussian(1), two_point_mixture_1d()):
        grid = np.linspace(-12, 12, 4001)
        total = np.trapezoid(model.pdf(grid[:, None]), grid)
        assert total == pytest.approx(1.0, abs=1e-6)
    model2 = LinearImage(standard_gaussian(2), SHEAR)
    g = np.linspace(-10, 10, 401)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    vals = model2.pdf(pts).reshape(401, 401)
    total = np.trapezoid(np.trapezoid(vals, g, axis=0), g)
    assert total == pytest.approx(1.0, abs=1e-6)


#: a 3-d two-component mixture, its second covariance full
MIXTURE_3D = GaussianMixture([0.4, 0.6], [[0.5, 0.0, -1.0], [-0.5, 1.0, 0.5]],
                             [np.eye(3), [[1.0, 0.3, 0.0], [0.3, 2.0, -0.4], [0.0, -0.4, 0.5]]])
SMOOTHED_MODELS = ("gaussian", "mixture", "gaussian-2d", "mixture-2d", "mixture-3d")


def _smoothed_model(name):
    return MIXTURE_3D if name == "mixture-3d" else mc.table_model(name)


@pytest.mark.parametrize("name", SMOOTHED_MODELS)
def test_smoothed_pdf_is_the_mixture_of_widened_normals(name):
    # scipy oracle: sum_i w_i N(m_i, S_i + s I) evaluated at x
    model, s = _smoothed_model(name), np.array([0.0, 1e-4, 0.04, 1.0, 25.0])
    for x in (np.zeros(model.dim), np.full(model.dim, 0.5), np.linspace(-1.0, 1.5, model.dim)):
        expected = [sum(w * multivariate_normal(m, cov + v * np.eye(model.dim)).pdf(x)
                        for w, m, cov in zip(model.weights, model.means, model.covs))
                    for v in s]
        np.testing.assert_allclose(model.smoothed_pdf(x, s), expected, rtol=1e-13, atol=0)


@pytest.mark.parametrize("name", SMOOTHED_MODELS)
def test_smoothed_pdf_without_smoothing_is_the_pdf(name):
    # the eigenbasis path against the inverse-matrix path of pdf
    model = _smoothed_model(name)
    for x in np.random.default_rng(8).normal(0.0, 1.5, (20, model.dim)):
        (value,) = model.smoothed_pdf(x, [0.0])
        assert value == pytest.approx(model.pdf(x), rel=1e-14, abs=0)


@pytest.mark.parametrize("x", [[0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]], 0.0, [math.nan, 0.0],
                               [0.0, math.inf]])
def test_smoothed_pdf_rejects_a_point_that_is_not_d_finite_numbers(x):
    with pytest.raises(ValueError, match="^x must be 2 finite number"):
        mc.table_model("mixture-2d").smoothed_pdf(x, np.ones(3))


@pytest.mark.parametrize("s", [1.0, [[1.0]], [-1e-300], [0.5, -1.0], [math.nan], [math.inf]])
def test_smoothed_pdf_rejects_variances_that_are_not_a_finite_nonnegative_vector(s):
    with pytest.raises(ValueError, match="^s must be a 1-d array of finite variances >= 0$"):
        mc.table_model("mixture-2d").smoothed_pdf(np.zeros(2), s)


def test_hessian_standard_gaussian_closed_form():
    model = standard_gaussian(1)
    # f''(x) = (x^2 - 1) phi(x)
    assert model.hessian_diag(np.zeros(1))[0] == pytest.approx(-phi(0.0), rel=1e-14)
    assert model.hessian_diag(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-15)


def test_hessian_mixture_closed_form_and_finite_differences():
    model = two_point_mixture_1d()
    value = model.hessian_diag(np.zeros(1))[0]
    assert value == pytest.approx((0.25 - 1.0) * phi(0.5), rel=1e-13)
    assert value == pytest.approx(-0.264049, abs=1e-6)
    eps = 1e-4
    fd = (model.pdf(np.array([eps])) - 2 * model.pdf(np.zeros(1))
          + model.pdf(np.array([-eps]))) / eps**2
    assert value == pytest.approx(fd, abs=1e-6)


@pytest.mark.parametrize("name", ["g1", "mix1", "g2", "mix2"])
def test_hessian_diag_matches_finite_differences(name):
    models = {
        "g1": standard_gaussian(1),
        "mix1": two_point_mixture_1d(),
        "g2": LinearImage(standard_gaussian(2), SHEAR),
        "mix2": LinearImage(
            GaussianMixture([0.5, 0.5], [[0.5, 0.5], [-0.5, -0.5]],
                            np.array([np.eye(2), np.eye(2)])),
            SHEAR,
        ),
    }
    model = models[name]
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((100, model.dim)) * 1.5
    eps = 1e-4
    worst = 0.0
    for x in pts:
        for j in range(model.dim):
            e = np.zeros(model.dim)
            e[j] = eps
            fd = (model.pdf(x + e) - 2 * model.pdf(x) + model.pdf(x - e)) / eps**2
            worst = max(worst, abs(fd - model.hessian_diag(x)[j]))
    assert worst < 1e-5


def test_linear_image_requires_invertible_matrix():
    with pytest.raises(ValueError):
        LinearImage(standard_gaussian(2), [[1.0, 0.0], [2.0, 0.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_linear_image_rejects_a_non_finite_matrix_before_any_linear_algebra(bad):
    # np.linalg.det of such a matrix would warn before the mixture rejects it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for base, matrix in ((standard_gaussian(1), [[bad]]),
                             (standard_gaussian(2), [[1.0, 0.0], [bad, 1.0]])):
            with pytest.raises(ValueError, match="^matrix must be finite$"):
                LinearImage(base, matrix)


def test_sampling_moments_standard_gaussian():
    rng = np.random.default_rng(12)
    xs = standard_gaussian(1).sample(rng, 10**5)
    assert abs(xs.mean()) < 0.01
    assert abs(xs.var() - 1.0) < 0.02


def test_sampling_covariance_of_linear_image():
    rng = np.random.default_rng(5)
    model = LinearImage(standard_gaussian(2), SHEAR)
    xs = model.sample(rng, 10**5)
    target = SHEAR @ SHEAR.T
    np.testing.assert_allclose(np.cov(xs.T), target, atol=0.02)


@pytest.mark.parametrize("name", ["gaussian", "mixture", "gaussian-2d", "mixture-2d"])
def test_sampler_state_is_built_on_the_first_draw(name):
    model = mc.table_model(name)
    assert "_chols" not in vars(model) and "_cdf" not in vars(model)
    model.sample(np.random.default_rng(3), 20)
    # a linear image factors its own covariances, and only a mixture picks components
    assert "_chols" in vars(model)
    assert ("_cdf" in vars(model)) == (model.weights.shape[0] > 1)


def _plain(value):
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return np.asarray(value).tolist()


def _state(rng):
    """The whole bit-generator state, with arrays as lists so states compare."""
    return _plain(rng.bit_generator.state)


#: one-component models: the two table ones and a full 3-d covariance
ONE_COMPONENT = {
    "gaussian": mc.table_model("gaussian"),
    "gaussian-2d": mc.table_model("gaussian-2d"),
    "full-3d": GaussianMixture([1.0], [[1.0, -0.5, 2.0]],
                               [[[1.5, 0.4, -0.3], [0.4, 1.0, 0.2], [-0.3, 0.2, 0.8]]]),
}


@pytest.mark.parametrize("count", [1, 1023, 10**5 + 1])
@pytest.mark.parametrize("name", ONE_COMPONENT)
def test_one_component_draw_is_the_mean_plus_the_factor_times_normals(name, count):
    # no component uniforms: the draw reads only the normals of the twin generator
    model = ONE_COMPONENT[name]
    rng, twin = mc.replication_rng(11, 4), mc.replication_rng(11, 4)
    z = twin.standard_normal((count, model.dim))
    # einsum's sum order for L z; a BLAS product differs in the last bit from d = 3 on
    lz = np.einsum("ij,nj->ni", np.linalg.cholesky(model.covs[0]), z)
    np.testing.assert_array_equal(model.sample(rng, count), model.means[0] + lz)
    assert _state(rng) == _state(twin)


@pytest.mark.parametrize("name", ["gaussian", "mixture", "gaussian-2d", "mixture-2d"])
def test_sample_rejects_a_bad_count_before_any_draw(name):
    model, rng = mc.table_model(name), mc.replication_rng(2, 0)
    before = _state(rng)
    for count, error in ((3.0, TypeError), (np.float64(3.0), TypeError), (True, TypeError),
                         (np.bool_(True), TypeError), ("3", TypeError), (0, ValueError),
                         (-1, ValueError), (np.int64(0), ValueError)):
        with pytest.raises(error, match="^count must be"):
            model.sample(rng, count)
        assert _state(rng) == before, count
    for count in (5, 1025):  # a numpy integer count draws as its int does
        np.testing.assert_array_equal(model.sample(mc.replication_rng(2, 0), np.int64(count)),
                                      model.sample(mc.replication_rng(2, 0), count))


def test_degenerate_mixture_reduces_to_component():
    lone = GaussianMixture([1.0], [[2.0]], np.array([np.eye(1)]))
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    a = lone.sample(rng1, 50)
    shifted = standard_gaussian(1)
    b = shifted.sample(rng2, 50) + 2.0
    np.testing.assert_allclose(a, b, rtol=1e-14)


def test_curvature_value():
    model = standard_gaussian(1)
    assert curvature(model, np.zeros(1)) == pytest.approx(-phi(0.0), rel=1e-13)
    assert curvature(model, np.array([1.0])) == pytest.approx(0.0, abs=1e-15)


def test_linear_image_is_a_mixture_with_the_same_density():
    # the image of a mixture under A has means A m_i and covariances A S_i A^T
    base = GaussianMixture([0.5, 0.5], [[0.5, 0.5], [-0.5, -0.5]],
                           np.array([np.eye(2), np.eye(2)]))
    model = mc.table_model("mixture-2d")
    assert isinstance(model, GaussianMixture)
    np.testing.assert_array_equal(model.means, base.means @ SHEAR.T)
    pts = np.random.default_rng(2).standard_normal((50, 2)) * 2.0
    # the change of variables f_Y(A^-1 x) / |det A|
    moved = base.pdf(pts @ np.linalg.inv(SHEAR).T) / abs(np.linalg.det(SHEAR))
    np.testing.assert_allclose(model.pdf(pts), moved, rtol=1e-13)


def test_curvature_squared_integral_gaussian_closed_form():
    # closed form for the standard normal: 3 / (8 sqrt(pi))
    value = curvature_squared_integral(standard_gaussian(1))
    assert value == pytest.approx(3.0 / (8.0 * math.sqrt(math.pi)), rel=1e-14)


def test_curvature_squared_integral_standard_normal_in_any_dim():
    # (4 pi)^(-d/2) d (d + 2) / 4: no dimension limit
    for d in (1, 2, 3):
        value = curvature_squared_integral(standard_gaussian(d))
        assert value == pytest.approx((4 * math.pi) ** (-d / 2) * d * (d + 2) / 4, rel=1e-14)


def test_curvature_squared_integral_mixture_vs_quadrature_oracle():
    model = two_point_mixture_1d()

    def s(x):
        return 0.5 * (((x + 0.5) ** 2 - 1) * phi(x + 0.5)
                      + ((x - 0.5) ** 2 - 1) * phi(x - 0.5))

    oracle, err = quad(lambda x: s(x) ** 2, -np.inf, np.inf)
    assert err < 1e-10
    value = curvature_squared_integral(model)
    assert value == pytest.approx(oracle, rel=1e-7)
    # golden value frozen from the oracle at first build
    assert value == pytest.approx(0.11265104, abs=1e-7)
    assert value > 0


# frozen from the 2048 (1-d) / 512 (2-d) points-per-axis trapezoid rule that
# the closed form replaced
@pytest.mark.parametrize("name, golden", [
    ("gaussian", 0.21157109383040862),
    ("mixture", 0.11265103581313747),
    ("gaussian-2d", 0.22256824073007242),
    ("mixture-2d", 0.15436545352122236),
])
def test_curvature_squared_integral_golden_values(name, golden):
    model = mc.table_model(name)
    value = curvature_squared_integral(model)
    assert value == pytest.approx(golden, rel=1e-12)


@pytest.mark.parametrize("name, golden", [
    ("gaussian-2d", 0.45757046138919916),
    ("mixture-2d", 0.33889244541325475),
])
def test_curvature_squared_integral_anisotropic_kernel(name, golden):
    # goldens frozen for a kernel with second moments M = diag(2, 1/2), i.e. for
    # the squared integral of tr(M Hf).  With B = M^(1/2) and g(y) = f(B y),
    # tr(M Hf(B y)) is the Laplacian of g and det B = 1, so the same number is
    # the product Gaussian's value for the image of f under B^-1.
    image = LinearImage(mc.table_model(name), np.diag([1.0 / math.sqrt(2.0), math.sqrt(2.0)]))
    assert curvature_squared_integral(image) == pytest.approx(golden, rel=1e-12)


def test_curvature_squared_integral_d2():
    # independent oracle: tensor-grid trapezoid rule over the closed-form Hessian
    model = mc.table_model("mixture-2d")
    g = np.linspace(-12, 12, 241)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    vals = (np.sum(model.hessian_diag(pts), axis=1) ** 2).reshape(g.size, g.size)
    oracle = np.trapezoid(np.trapezoid(vals, g, axis=0), g)
    assert curvature_squared_integral(model) == pytest.approx(oracle, rel=1e-10)


def test_curvature_squared_integral_rejects_other_models():
    class Flat:
        dim = 1

        def hessian_diag(self, x):
            return np.zeros_like(np.atleast_2d(x))

    with pytest.raises(TypeError, match="Flat is not a Gaussian mixture"):
        curvature_squared_integral(Flat())


def test_mixture_validation():
    with pytest.raises(ValueError):
        GaussianMixture([0.7, 0.7], [[0.0], [1.0]], np.array([np.eye(1), np.eye(1)]))
    with pytest.raises(ValueError):
        GaussianMixture([1.0], [[0.0, 0.0]], np.array([np.eye(1)]))
    for cov in ([[-1.0]], -np.eye(2)):  # rejected when built, not at the first draw
        with pytest.raises(ValueError, match="positive definite"):
            GaussianMixture([1.0], np.zeros((1, len(cov))), np.array([cov]))
    # means of another rank than 2: rejected by the class, not by an unpacking
    for means in (np.zeros((1, 1, 1)), np.zeros((1, 1, 1, 2))):
        with pytest.raises(ValueError, match="^inconsistent mixture component shapes$"):
            GaussianMixture([1.0], means, [[[1.0]]])
    # no dimension: rejected before any reduction over the covariances
    with pytest.raises(ValueError, match="^a mixture needs at least one dimension$"):
        GaussianMixture([1.0], np.zeros((1, 0)), np.zeros((1, 0, 0)))
    for dim in (0, -1, True, 1.5, 2.0):
        with pytest.raises(ValueError, match="^dim must be a positive integer$"):
            standard_gaussian(dim)


@pytest.mark.parametrize("means, cov", [([math.nan], [[1.0]]), ([math.inf], [[1.0]]),
                                        ([0.0], [[math.inf]]), ([0.0], [[math.nan]])],
                         ids=["nan-mean", "inf-mean", "inf-cov", "nan-cov"])
def test_mixture_rejects_non_finite_parameters(means, cov):
    with pytest.raises(ValueError, match="^means and covariances must be finite$"):
        GaussianMixture([1.0], [means], [cov])


def test_mixture_rejects_an_asymmetric_covariance():
    # pdf would invert the whole matrix while the sampler reads its lower triangle
    with pytest.raises(ValueError, match="^covariances must be symmetric$"):
        GaussianMixture([1.0], [[0.0, 0.0]], [[[1.0, 0.9], [0.0, 1.0]]])
    # second component asymmetric beyond round-off, relative to its own scale
    covs = [np.eye(2), [[1e6, 1e-4], [0.0, 1e6]]]
    with pytest.raises(ValueError, match="symmetric"):
        GaussianMixture([0.5, 0.5], [[0.0, 0.0], [1.0, 1.0]], covs)
    # round-off asymmetry is accepted, and so is every table model
    GaussianMixture([1.0], [[0.0, 0.0]], [[[1.0, 0.5], [0.5 + 1e-15, 1.0]]])
    for name in ("gaussian", "mixture", "gaussian-2d", "mixture-2d"):
        covs = mc.table_model(name).covs
        assert np.array_equal(covs, covs.swapaxes(1, 2))
