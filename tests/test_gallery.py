"""Unit tests for the problem gallery.

Every kernel is cross-checked against an independent scalar-loop evaluation
of its quadrature formula at small n, so the vectorized constructors cannot
drift from the documented integral-equation recipes.
"""

import math

import numpy as np
import pytest

from conftest import poly, severe

from illposed.gallery import (
    SpectrumModel,
    fit_spectrum_model,
    make_deriv2,
    make_gravity,
    make_heat,
    make_picard_synthetic,
    make_prescribed,
    make_shaw,
)


# Scalar-loop kernel oracles ==================================================
def shaw_entry(n, i, j):
    h = math.pi / n
    s = lambda l: -math.pi / 2 + (l + 0.5) * h
    u = math.pi * (math.sin(s(i)) + math.sin(s(j)))
    sinc = 1.0 if u == 0.0 else math.sin(u) / u
    return h * (math.cos(s(i)) + math.cos(s(j))) ** 2 * sinc**2


def gravity_entry(n, d, i, j):
    h = 1.0 / n
    t = lambda l: (l + 0.5) * h
    return h * d / (d**2 + (t(i) - t(j)) ** 2) ** 1.5


def deriv2_entry(n, i, j):
    # 1-based Galerkin formula from the constructor docstring.
    h = 1.0 / n
    i, j = i + 1, j + 1
    if i == j:
        return h**2 * ((i**2 - i + 0.25) * h - (i - 2.0 / 3.0))
    lo, hi = min(i, j), max(i, j)
    return h**2 * (lo - 0.5) * ((hi - 0.5) * h - 1.0)


def heat_entry(n, kappa, i, j):
    if j > i:
        return 0.0
    h = 1.0 / n
    t = (i - j + 0.5) * h
    return h / (2 * kappa * math.sqrt(math.pi)) * t**-1.5 * math.exp(-1 / (4 * kappa**2 * t))


@pytest.mark.parametrize(
    "make, entry",
    [
        (make_shaw, shaw_entry),
        (lambda n: make_gravity(n, depth=0.25), lambda n, i, j: gravity_entry(n, 0.25, i, j)),
        (make_deriv2, deriv2_entry),
        (lambda n: make_heat(n, kappa=1.0), lambda n, i, j: heat_entry(n, 1.0, i, j)),
    ],
    ids=["shaw", "gravity", "deriv2", "heat"],
)
def test_kernel_matches_scalar_oracle(make, entry):
    n = 6
    A = make(n).A
    oracle = np.array([[entry(n, i, j) for j in range(n)] for i in range(n)])
    np.testing.assert_allclose(A, oracle, rtol=1e-14, atol=1e-300)


def test_symmetry_and_structure():
    for prob in (make_shaw(8), make_gravity(8), make_deriv2(8)):
        np.testing.assert_allclose(prob.A, prob.A.T, rtol=0, atol=1e-15)
    H = make_heat(8).A
    assert np.all(np.triu(H, 1) == 0.0)
    assert np.all(np.diag(H) > 0.0)


def test_consistency_and_shapes():
    for prob in (make_shaw(8), make_gravity(5), make_deriv2(5), make_heat(6)):
        assert prob.A.shape == (prob.m, prob.n)
        np.testing.assert_allclose(prob.A @ prob.x_true, prob.b_true, rtol=1e-12)
        assert np.linalg.norm(prob.b_true) > 0
        assert np.all(np.diff(prob.svd.sigma) <= 0)


def test_shaw_requires_even_order():
    with pytest.raises(ValueError, match="even"):
        make_shaw(7)
    with pytest.raises(ValueError, match="even"):
        make_shaw(0)


def test_parameter_validation():
    with pytest.raises(ValueError, match="positive"):
        make_gravity(8, depth=0.0)
    with pytest.raises(ValueError, match="positive"):
        make_heat(8, kappa=-1.0)
    with pytest.raises(ValueError, match="n >= 2"):
        make_deriv2(1)


def test_spectrum_model_formulas_and_validation():
    s = SpectrumModel(kind="severe", rho=2.0, zeta=3.0).sigma(4)
    np.testing.assert_allclose(s, 3.0 * 2.0 ** -np.arange(1.0, 5.0), rtol=1e-15)
    p = SpectrumModel(kind="moderate_or_mild", alpha=2.0).sigma(3)
    np.testing.assert_allclose(p, [1.0, 0.25, 1.0 / 9.0], rtol=1e-15)
    with pytest.raises(ValueError, match="rho > 1"):
        SpectrumModel(kind="severe", rho=1.0)
    with pytest.raises(ValueError, match="alpha > 1/2"):
        SpectrumModel(kind="moderate_or_mild", alpha=0.5)
    with pytest.raises(ValueError, match="kind"):
        SpectrumModel(kind="gentle")
    with pytest.raises(ValueError, match="zeta"):
        SpectrumModel(kind="severe", rho=2.0, zeta=0.0)
    with pytest.raises(ValueError, match="closed form"):
        SpectrumModel(kind="empirical").sigma(4)


def test_prescribed_spectrum_is_exact():
    spec = severe(3.0)
    prob = make_prescribed(12, spec, seed=5)
    # Backward error of the assembled product scales with sigma_1.
    np.testing.assert_allclose(
        prob.svd.sigma, spec.sigma(12), rtol=1e-12, atol=1e-15 * spec.sigma(12)[0]
    )
    np.testing.assert_allclose(prob.x_true, np.ones(12))
    # Same seed bit-identical, different seed different.
    again = make_prescribed(12, spec, seed=5)
    np.testing.assert_array_equal(again.A, prob.A)
    other = make_prescribed(12, spec, seed=6)
    assert np.any(other.A != prob.A)


def test_data_whose_square_overflows_is_rejected():
    # A run squares sigma_1 and ||b||.  At zeta = 1e160 ||b_true||^2
    # overflows; at 2e154 ||b_true||^2 is finite but sigma_1^2 is not.
    with pytest.raises(ValueError, match=r"\|\|b_true\|\|\^2 overflows"):
        make_prescribed(16, poly(2.0, zeta=1e160), seed=0)
    with pytest.raises(ValueError, match=r"\|\|b_true\|\|\^2 overflows"):
        make_picard_synthetic(16, poly(2.0, zeta=1e200), seed=0)
    with pytest.raises(ValueError, match=r"sigma_1\^2 overflows"):
        make_prescribed(16, poly(2.0, zeta=2e154), seed=0)
    assert make_prescribed(16, poly(2.0, zeta=1e150), seed=0).svd.sigma[0] > 1e149


def test_prescribed_rectangular():
    prob = make_prescribed(6, severe(2.0), seed=0, m=9)
    assert prob.A.shape == (9, 6)
    np.testing.assert_allclose(prob.svd.sigma, severe(2.0).sigma(6), rtol=1e-12)
    with pytest.raises(ValueError, match="m >= n"):
        make_prescribed(6, severe(2.0), seed=0, m=5)


def test_picard_synthetic_coefficients():
    beta = 0.7
    spec = severe(2.0, beta=beta)
    prob = make_picard_synthetic(10, spec, seed=3)
    sig = spec.sigma(10)
    coef = prob.svd.U.T @ prob.b_true
    np.testing.assert_allclose(np.abs(coef), sig ** (1 + beta), rtol=1e-10)
    np.testing.assert_allclose(prob.A @ prob.x_true, prob.b_true, rtol=0, atol=1e-14)
    with pytest.raises(ValueError, match="beta_picard"):
        make_picard_synthetic(10, severe(2.0, beta=None), seed=0)


def test_fit_spectrum_model_recovers_generators():
    sev = fit_spectrum_model(severe(3.0).sigma(40))
    assert sev.kind == "severe"
    assert sev.rho == pytest.approx(3.0, rel=1e-6)
    mod = fit_spectrum_model(poly(2.0).sigma(40))
    assert mod.kind == "moderate_or_mild"
    assert mod.alpha == pytest.approx(2.0, rel=1e-6)


def test_fit_spectrum_model_on_deriv2():
    # The second-derivative kernel decays polynomially with exponent ~ 2.
    fitted = fit_spectrum_model(make_deriv2(64).svd.sigma)
    assert fitted.kind == "moderate_or_mild"
    assert 1.5 <= fitted.alpha <= 2.5
