import math

import numpy as np
import pytest
from scipy.integrate import quad

from sakde import checks
from sakde.kernels import Kernel, gaussian_kernel, kernel_moments


def test_roughness_d1_quadrature_oracle():
    # oracle: adaptive quadrature of the squared kernel over R
    oracle, err = quad(lambda z: (math.exp(-z * z / 2) / math.sqrt(2 * math.pi)) ** 2,
                       -np.inf, np.inf)
    assert err < 1e-8
    k = gaussian_kernel(1)
    assert k.roughness == pytest.approx(oracle, rel=1e-12)
    assert k.roughness == pytest.approx(0.2820948, abs=5e-8)


def test_roughness_d2_is_square_of_d1():
    k1, k2 = gaussian_kernel(1), gaussian_kernel(2)
    assert k2.roughness == pytest.approx(k1.roughness**2, rel=1e-14)
    assert k2.roughness == pytest.approx(0.0795775, abs=5e-8)
    # cross-check against the tensor quadrature
    mom = kernel_moments(k2.fn, 2)
    assert mom.roughness == pytest.approx(k2.roughness, abs=1e-10)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_mu2_all_ones(d):
    np.testing.assert_array_equal(gaussian_kernel(d).mu2, np.ones(d))


@pytest.mark.parametrize("d", [1, 2])
def test_stored_constants_match_fresh_quadrature(d):
    k = gaussian_kernel(d)
    mom = kernel_moments(k.fn, d)
    assert abs(mom.roughness - k.roughness) < 1e-8
    assert np.max(np.abs(mom.mu2 - k.mu2)) < 1e-8
    assert abs(mom.mass - 1.0) < 1e-10


def _doubled(d):
    # mass 2; the stored mu2 and roughness are its true moments, so only the mass is off
    base = gaussian_kernel(d)
    return Kernel(d, lambda z: 2.0 * base.fn(z), 2.0 * base.mu2, 4.0 * base.roughness, "x2")


def _shifted(d):
    # first moment 1 along coordinate 0; mu2 and roughness again stored as they are
    base, e0 = gaussian_kernel(d), np.eye(d)[0]
    return Kernel(d, lambda z: base.fn(z - e0), base.mu2 + e0, base.roughness, "shift")


@pytest.mark.parametrize("make", [_doubled, _shifted], ids=["doubled", "shifted"])
def test_kernel_constants_gate_fails_on_inadmissible_kernel(monkeypatch, make):
    monkeypatch.setattr(checks, "gaussian_kernel", make)
    outcomes = checks.kernel_constants(seed=0, jobs=1)
    assert [o.passed for o in outcomes] == [False, False]
    # the roughness and mu2 conditions hold: the gate fails on mass or first moment
    assert all(o.value < 1e-8 for o in outcomes)
    for d in (1, 2):
        mom = kernel_moments(make(d).fn, d)
        np.testing.assert_allclose(mom.mu2, make(d).mu2, atol=1e-8)


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

