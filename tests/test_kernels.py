import math

import numpy as np
import pytest
from scipy.integrate import quad

from sakde import checks
from sakde.kernels import (EXP_FLOOR, Kernel, gaussian_kernel, gaussian_norm,
                           gaussian_roughness, kernel_moments)


def test_roughness_d1_quadrature_oracle():
    # oracle: adaptive quadrature of the squared kernel over R
    oracle, err = quad(lambda z: (math.exp(-z * z / 2) / math.sqrt(2 * math.pi)) ** 2,
                       -np.inf, np.inf)
    assert err < 1e-8
    assert gaussian_roughness(1) == pytest.approx(oracle, rel=1e-12)
    assert gaussian_roughness(1) == pytest.approx(0.2820948, abs=5e-8)


def test_roughness_d2_is_square_of_d1():
    r1, r2 = gaussian_roughness(1), gaussian_roughness(2)
    assert r2 == pytest.approx(r1**2, rel=1e-14)
    assert r2 == pytest.approx(0.0795775, abs=5e-8)
    # cross-check against the tensor quadrature
    mom = kernel_moments(gaussian_kernel(2).fn, 2)
    assert mom.roughness == pytest.approx(r2, abs=1e-10)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_mu2_all_ones(d):
    # the second moments every formula assumes, from the quadrature
    mom = kernel_moments(gaussian_kernel(d).fn, d)
    np.testing.assert_allclose(mom.mu2, np.ones(d), atol=1e-10)


@pytest.mark.parametrize("d", [1, 2])
def test_stored_constants_match_fresh_quadrature(d):
    mom = kernel_moments(gaussian_kernel(d).fn, d)
    assert abs(mom.roughness - gaussian_roughness(d)) < 1e-8
    assert abs(mom.mass - 1.0) < 1e-10


def _doubled(d):
    # mass 2, second moments 2 and roughness 4 R
    base = gaussian_kernel(d)
    return Kernel(d, lambda z: 2.0 * base.fn(z), "x2")


def _shifted(d):
    # first moment 1 and second moment 2 along coordinate 0; roughness as it is
    base, e0 = gaussian_kernel(d), np.eye(d)[0]
    return Kernel(d, lambda z: base.fn(z - e0), "shift")


@pytest.mark.parametrize("make", [_doubled, _shifted], ids=["doubled", "shifted"])
def test_kernel_constants_gate_fails_on_inadmissible_kernel(monkeypatch, make):
    monkeypatch.setattr(checks, "gaussian_kernel", make)
    outcomes = checks.kernel_constants(seed=0, jobs=1)
    assert [o.passed for o in outcomes] == [False, False]
    # the gate fails on the mass or first moment, and on the second moments,
    # which are no longer all 1; against gaussian_roughness(d), the doubled
    # kernel drifts by 3 R, and the shifted one keeps its roughness
    drift = 3.0 if make is _doubled else 0.0
    for d, o in zip((1, 2), outcomes):
        assert o.value["roughness_drift"] == pytest.approx(drift * gaussian_roughness(d), abs=1e-8)
    for d in (1, 2):
        mom = kernel_moments(make(d).fn, d)
        assert np.max(np.abs(mom.mu2 - 1.0)) > 0.5


def test_gaussian_symmetry_property():
    rng = np.random.default_rng(7)
    for d in (1, 2):
        k = gaussian_kernel(d)
        z = rng.standard_normal((200, d)) * 2.0
        np.testing.assert_array_equal(k.fn(z), k.fn(-z))


def test_eval_shapes():
    k = gaussian_kernel(2)
    single = k.fn(np.zeros(2))
    batch = k.fn(np.zeros((5, 2)))
    assert np.ndim(single) == 0
    assert batch.shape == (5,)
    assert single == pytest.approx(1.0 / (2 * math.pi))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gaussian_equals_axis_reduction_bit_for_bit(d):
    # the coordinate-by-coordinate square sum is the short-axis reduction it replaced
    z = np.random.default_rng(8 + d).standard_normal((4, 300, d)) * 3.0
    expected = (2.0 * math.pi) ** (-d / 2.0) * np.exp(-0.5 * np.sum(z * z, axis=-1))
    np.testing.assert_array_equal(gaussian_kernel(d).fn(z), expected)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gaussian_exponent_is_floored(d):
    # |z|^2 / 2 = 700 at |z| = 37.42: below it the kernel is the plain formula;
    # from it on the floor value, never 0
    r = np.array([0.0, 1.0, 30.0, 37.4, 37.5, 38.6, 40.0, 1e3, 1e150])
    z = np.zeros((r.size, d))
    z[:, -1] = r
    k = gaussian_kernel(d).fn(z)
    inside = 0.5 * r**2 < -EXP_FLOOR
    np.testing.assert_array_equal(k[inside], gaussian_norm(d) * np.exp(-0.5 * r[inside]**2))
    assert np.all(k[~inside] == gaussian_norm(d) * math.exp(EXP_FLOOR))
