"""Dense linear-algebra kernel with deterministic conventions.

Thin wrappers around LAPACK factorizations that pin down everything the rest
of the laboratory relies on: descending singular values, a fixed sign
convention for singular vectors, minimum-norm least-squares solutions, and
loud failures on non-finite or rank-deficient input.  Every routine is a pure
function of its arguments; identical inputs give bit-identical outputs on a
fixed platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RankDeficientError",
    "SvdFactorization",
    "as_matrix",
    "as_vector",
    "svd",
    "least_squares",
    "spectral_norm",
    "orthonormalize",
]


class RankDeficientError(ValueError):
    """A matrix expected to have full column rank does not.

    The 0-based index of the first dependent column is stored in ``column``.
    """

    def __init__(self, column, message=None):
        self.column = int(column)
        super().__init__(
            message
            or f"column {column} is linearly dependent on the preceding columns"
        )


def as_matrix(A, name="A") -> np.ndarray:
    """Return ``A`` as a 2-D float64 array, rejecting non-finite entries."""
    M = np.asarray(A, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def as_vector(b, name="b") -> np.ndarray:
    """Return ``b`` as a 1-D float64 array, rejecting non-finite entries."""
    v = np.asarray(b, dtype=float)
    if v.ndim == 2 and 1 in v.shape:
        v = v.ravel()
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


@dataclass(frozen=True)
class SvdFactorization:
    """Thin SVD ``A = U @ diag(sigma) @ V.T`` of a tall or square matrix.

    Attributes
    ----------
    U : (m, n) ndarray
        Left singular vectors, orthonormal columns.
    sigma : (n,) ndarray
        Singular values in descending order, all nonnegative.
    V : (n, n) ndarray
        Right singular vectors, orthogonal.  Each column is scaled so that
        its largest-magnitude entry is positive (first such entry on ties),
        which makes the factorization unique for simple spectra.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    @property
    def m(self) -> int:
        return self.U.shape[0]

    @property
    def n(self) -> int:
        return self.V.shape[0]

    def coefficients(self, b) -> np.ndarray:
        """Coordinates ``U.T @ b`` of a vector in the left singular basis."""
        return self.U.T @ as_vector(b)

    def reconstruct(self) -> np.ndarray:
        """Reassemble the matrix from its factors (testing aid)."""
        return (self.U * self.sigma) @ self.V.T


def svd(A) -> SvdFactorization:
    """Singular value decomposition with the laboratory's sign convention.

    Parameters
    ----------
    A : (m, n) array_like
        Real matrix with m >= n.

    Returns
    -------
    SvdFactorization

    Raises
    ------
    ValueError
        If ``A`` is wider than tall or contains non-finite entries.
    """
    A = as_matrix(A)
    m, n = A.shape
    if m < n:
        raise ValueError(f"svd expects a tall or square matrix, got {m}x{n}")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    V = Vt.T
    # Make the largest-magnitude entry of each right singular vector positive.
    lead = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[lead, np.arange(n)])
    signs[signs == 0.0] = 1.0
    # In place, so U stays C- and V F-contiguous: downstream BLAS calls, and
    # with them the artifact bits, depend on that layout.
    U *= signs
    V *= signs
    return SvdFactorization(U=U, sigma=s, V=V)


def least_squares(A, b) -> np.ndarray:
    """Minimum-2-norm solution of ``min_x ||A x - b||`` for a tall system.

    Parameters
    ----------
    A : (m, n) array_like, m >= n
    b : (m,) array_like

    Returns
    -------
    (n,) ndarray
        The least-squares minimizer; among all minimizers, the one of
        smallest 2-norm when ``A`` is rank deficient.
    """
    A = as_matrix(A)
    b = as_vector(b)
    m, n = A.shape
    if m < n:
        raise ValueError(f"least_squares expects a tall or square matrix, got {m}x{n}")
    if b.shape[0] != m:
        raise ValueError(f"b has length {b.shape[0]}, expected {m}")
    x, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    return x


def spectral_norm(A) -> float:
    """Largest singular value of ``A`` (0.0 for an empty matrix)."""
    A = as_matrix(A)
    if A.size == 0:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[0])


def orthonormalize(M) -> np.ndarray:
    """Orthonormal basis with the same column span as ``M``.

    Computed by Householder QR; the basis is made deterministic by flipping
    signs so the diagonal of the triangular factor is positive.

    Raises
    ------
    RankDeficientError
        If the columns of ``M`` are linearly dependent (relative tolerance
        1e-12 on the triangular factor's diagonal); names the first
        dependent column.
    """
    M = as_matrix(M, "M")
    m, n = M.shape
    if m < n:
        raise ValueError(f"orthonormalize expects a tall or square matrix, got {m}x{n}")
    Q, R = np.linalg.qr(M)
    d = np.diag(R).copy()
    scale = np.max(np.abs(d)) if n else 0.0
    bad = np.nonzero(np.abs(d) <= 1e-12 * scale)[0]
    if bad.size:
        raise RankDeficientError(bad[0])
    signs = np.sign(d)
    return Q * signs
