"""Unit tests for the dense linear-algebra kernel."""

import numpy as np
import pytest

from illposed.linalg import (
    RESCALE_BELOW,
    as_matrix,
    as_vector,
    norm,
    sigma_max,
    spectral_norm,
    svd,
)


def test_as_matrix_validates():
    M = as_matrix([[1.0, 2.0], [3.0, 4.0]])
    assert M.dtype == np.float64 and M.shape == (2, 2)
    with pytest.raises(ValueError, match="2-dimensional"):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix([[np.inf, 0.0], [0.0, 1.0]])


def test_as_vector_validates():
    v = as_vector([[1.0], [2.0]])  # column shape is flattened
    assert v.shape == (2,)
    assert as_vector([1, 2, 3]).dtype == np.float64
    with pytest.raises(ValueError, match="1-dimensional"):
        as_vector([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError, match="non-finite"):
        as_vector([1.0, np.nan])


def test_svd_factors_and_orders():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((7, 4))
    fact = svd(A)
    assert fact.U.shape == (7, 4) and fact.V.shape == (4, 4)
    assert np.all(np.diff(fact.sigma) <= 0)
    assert np.all(fact.sigma >= 0)
    np.testing.assert_allclose(fact.U.T @ fact.U, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(fact.V.T @ fact.V, np.eye(4), atol=1e-12)
    np.testing.assert_allclose((fact.U * fact.sigma) @ fact.V.T, A, atol=1e-12)


def test_svd_known_diagonal():
    # diag(3, 5) has singular values 5, 3 with permuted axes.
    fact = svd(np.diag([3.0, 5.0]))
    np.testing.assert_allclose(fact.sigma, [5.0, 3.0], rtol=1e-15)
    np.testing.assert_allclose(np.abs(fact.V), [[0, 1], [1, 0]], atol=1e-15)


def test_svd_sign_convention():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((6, 6))
    V = svd(A).V
    lead = np.argmax(np.abs(V), axis=0)
    assert np.all(V[lead, np.arange(6)] > 0)
    # The convention makes the factorization reproducible.
    again = svd(A.copy())
    np.testing.assert_array_equal(again.V, V)


@pytest.mark.parametrize("shape", [(9, 9), (12, 7)])
def test_svd_layout_and_bits_are_pinned(shape):
    # Artifact bits depend on the layout: BLAS takes other code paths (and
    # rounds differently) for C- and F-ordered operands in A @ X of the TSVD
    # sweep and V' Q of the analysis.  A C-ordered copy of V once changed
    # tsvd.csv and analysis.csv, so U must stay C- and V F-contiguous.
    A = np.random.default_rng(7).standard_normal(shape)
    fact = svd(A)
    U_raw, s, Vt = np.linalg.svd(A, full_matrices=False)
    lead = np.argmax(np.abs(Vt.T), axis=0)
    signs = np.sign(Vt.T[lead, np.arange(shape[1])])
    signs[signs == 0.0] = 1.0
    assert fact.U.flags.c_contiguous
    assert fact.V.flags.f_contiguous
    assert fact.U.tobytes() == (U_raw * signs).tobytes()
    assert fact.V.tobytes() == (Vt.T * signs).tobytes()
    assert fact.sigma.tobytes() == s.tobytes()


def test_svd_rejects_wide():
    with pytest.raises(ValueError, match="tall or square"):
        svd(np.ones((2, 3)))


def test_coefficients_oracle():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((5, 3))
    b = rng.standard_normal(5)
    fact = svd(A)
    np.testing.assert_allclose(fact.coefficients(b), fact.U.T @ b, rtol=1e-15)


def test_spectral_norm_against_svd():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((6, 5))
    assert spectral_norm(A) == pytest.approx(np.linalg.norm(A, 2), rel=1e-13)
    assert spectral_norm(np.diag([2.0, 7.0, 1.0])) == pytest.approx(7.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_public_entry_points_refuse_non_finite_entries_before_lapack(bad, capfd):
    # Unchecked, LAPACK given an inf prints "** On entry to DLASCL parameter
    # number 4 had an illegal value" and returns nan; the public entry points
    # refuse the matrix before LAPACK sees it.
    A = np.eye(3)
    A[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        spectral_norm(A)
    with pytest.raises(ValueError, match="non-finite"):
        svd(A)
    # norm validates nothing: a non-finite entry reads as a non-finite norm.
    want = np.nan if np.isnan(bad) else np.inf
    np.testing.assert_equal([norm(np.array([1.0, bad])), norm(A)], [want, want])
    assert capfd.readouterr() == ("", "")


def test_sigma_max_is_the_checked_spectral_norm_bit_for_bit():
    # numpy hands LAPACK its own copy of a matrix, so a strided block of a
    # larger array gives the bits of the same matrix built alone.
    rng = np.random.default_rng(5)
    for shape in [(3, 2), (7, 4), (41, 40), (66, 65)]:
        A = rng.standard_normal(shape)
        assert sigma_max(A) == spectral_norm(A) == np.linalg.svd(A, compute_uv=False)[0]
        assert sigma_max(A[1:, 1:]) == spectral_norm(A[1:, 1:].copy())
    assert sigma_max(np.zeros((0, 3))) == spectral_norm(np.zeros((0, 3))) == 0.0


def test_norm_keeps_the_digits_of_subnormal_squares():
    # The squares of 1e-170 underflow to zero, so np.linalg.norm reads 0.
    x = np.full(9, 1e-170)
    assert np.linalg.norm(x) == 0.0
    assert norm(x) == pytest.approx(3e-170, rel=1e-15)
    rows = np.array([[3e-170, 4e-170], [3.0, 4.0], [0.0, 0.0]])
    np.testing.assert_allclose(norm(rows, axis=1), [5e-170, 5.0, 0.0], rtol=1e-15)
    assert norm(rows[:1]) == pytest.approx(5e-170, rel=1e-15)  # Frobenius
    assert norm(np.zeros(4)) == 0.0


@pytest.mark.parametrize("p", [-600, -900])
def test_norm_scales_by_a_power_of_two_exactly(p):
    # Below RESCALE_BELOW the rescaling divides by a power of two, so scaling
    # x by 2^p scales its norm by exactly 2^p while no entry goes subnormal.
    rng = np.random.default_rng(-p)
    for n in (1, 2, 3, 10, 100) * 60:
        x = rng.standard_normal(n)
        scaled = np.ldexp(x, p)
        assert np.all(np.abs(scaled) >= np.finfo(float).tiny)
        assert norm(scaled) == np.ldexp(norm(x), p)
    rows = rng.standard_normal((50, 8))
    np.testing.assert_array_equal(norm(np.ldexp(rows, p), axis=1), np.ldexp(norm(rows, axis=1), p))


def test_norm_is_numpys_bit_for_bit_above_the_rescale_bound():
    rng = np.random.default_rng(5)
    for scale in (1.0, 2.0**-400, RESCALE_BELOW):
        M = rng.standard_normal((7, 30)) * scale
        assert norm(M) == np.linalg.norm(M)
        np.testing.assert_array_equal(norm(M, axis=1), np.linalg.norm(M, axis=1))
        np.testing.assert_array_equal(norm(M, axis=0), np.linalg.norm(M, axis=0))
