"""Unit tests for the dense linear-algebra kernel."""

import numpy as np
import pytest

from illposed.linalg import (
    RankDeficientError,
    as_matrix,
    as_vector,
    least_squares,
    orthonormalize,
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


def test_svd_reconstructs_and_orders():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((7, 4))
    fact = svd(A)
    assert fact.m == 7 and fact.n == 4
    assert np.all(np.diff(fact.sigma) <= 0)
    assert np.all(fact.sigma >= 0)
    np.testing.assert_allclose(fact.U.T @ fact.U, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(fact.V.T @ fact.V, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(fact.reconstruct(), A, atol=1e-12)


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


def test_least_squares_matches_normal_equations():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((8, 4)) + 4.0 * np.eye(8, 4)
    b = rng.standard_normal(8)
    x = least_squares(A, b)
    oracle = np.linalg.solve(A.T @ A, A.T @ b)
    np.testing.assert_allclose(x, oracle, rtol=1e-10)


def test_least_squares_minimum_norm_on_rank_deficient():
    # Columns 0 and 1 are equal; the minimizer must split the weight evenly.
    A = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    b = np.array([2.0, 2.0, 0.0])
    x = least_squares(A, b)
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)


def test_least_squares_validates_shapes():
    with pytest.raises(ValueError, match="tall or square"):
        least_squares(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError, match="length"):
        least_squares(np.ones((3, 2)), np.ones(4))


def test_spectral_norm_against_svd():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((6, 5))
    assert spectral_norm(A) == pytest.approx(np.linalg.norm(A, 2), rel=1e-13)
    assert spectral_norm(np.diag([2.0, 7.0, 1.0])) == pytest.approx(7.0)


def test_orthonormalize_properties():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((9, 4))
    Q = orthonormalize(M)
    np.testing.assert_allclose(Q.T @ Q, np.eye(4), atol=1e-12)
    # Same span: the projectors agree.
    P_M = M @ np.linalg.solve(M.T @ M, M.T)
    np.testing.assert_allclose(Q @ Q.T, P_M, atol=1e-10)
    # Deterministic: the R-diagonal sign fix pins the basis.
    np.testing.assert_array_equal(orthonormalize(M.copy()), Q)


def test_orthonormalize_rank_deficient():
    M = np.ones((5, 3))
    M[:, 2] = 2.0 * M[:, 0]  # columns 0, 1, 2 all parallel
    with pytest.raises(RankDeficientError) as exc:
        orthonormalize(M)
    assert exc.value.column in (1, 2)
    assert isinstance(exc.value, ValueError)
