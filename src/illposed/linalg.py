"""Dense linear-algebra kernel with deterministic conventions.

Thin wrappers around LAPACK that pin down everything the rest of the
laboratory relies on: descending singular values, a fixed sign convention
for singular vectors, and loud failures on non-finite input.  Every routine
is a pure function of its arguments; identical inputs give bit-identical
outputs on a fixed platform.

Non-finite entries are refused where inputs enter a run: in the problem
constructors (``gallery._finalize``), ``bidiag_start``, :func:`svd` and
:func:`spectral_norm`.  :func:`sigma_max` and :func:`norm` check nothing, so
the matrices a run builds from validated inputs are not scanned again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SvdFactorization",
    "as_matrix",
    "as_vector",
    "norm",
    "power_of_two_above",
    "sigma_max",
    "svd",
    "spectral_norm",
]


#: Below this 2-norm the squares that ``np.linalg.norm`` sums may have gone
#: subnormal.  Above it those squares add at most n * 2^-154 relative error,
#: which leaves every bit of the norm as it is.
RESCALE_BELOW = 2.0**-460


def power_of_two_above(x, axis=None, keepdims=False):
    """The power of two t with max|x| < t <= 2 max|x| along ``axis`` (1 for
    zeros): x / t is exact, and t(x * 2^p) = t(x) * 2^p, so a computation on
    x / t gives the same bits at every power-of-two scale of x."""
    return np.ldexp(1.0, np.frexp(np.max(np.abs(x), axis=axis, keepdims=keepdims, initial=0.0))[1])


def norm(x, axis=None):
    """``np.linalg.norm(x, axis=axis)``: the 2-norm of a vector, the
    Frobenius norm of a matrix, or the norms along ``axis``.

    A norm below ``RESCALE_BELOW`` is recomputed as t * norm(x / t), t =
    ``power_of_two_above(x)`` along ``axis``: entries whose squares underflow
    keep their digits (a nonzero x never has norm 0), and norm(x * 2^p) is
    norm(x) * 2^p bit for bit while neither has subnormal entries.
    """
    r = np.linalg.norm(x, axis=axis)
    if axis is None and r >= RESCALE_BELOW:
        return r
    small = r < RESCALE_BELOW
    if not np.any(small):
        return r
    t = power_of_two_above(x, axis, keepdims=True)
    return np.where(small, np.squeeze(t, axis) * np.linalg.norm(x / t, axis=axis), r)


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

    def coefficients(self, b) -> np.ndarray:
        """Coordinates ``U.T @ b`` of a vector in the left singular basis."""
        return self.U.T @ as_vector(b)


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
    # Make the largest-magnitude entry of each right singular vector positive;
    # a unit column's is at least 1/sqrt(n), so its sign is never 0.
    lead = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[lead, np.arange(n)])
    # In place, so U stays C- and V F-contiguous: downstream BLAS calls, and
    # with them the artifact bits, depend on that layout.
    U *= signs
    V *= signs
    return SvdFactorization(U=U, sigma=s, V=V)


def spectral_norm(A) -> float:
    """Largest singular value of ``A`` (0.0 for an empty matrix); raises
    ``ValueError`` on non-finite entries."""
    return sigma_max(as_matrix(A))


def sigma_max(M) -> float:
    """Largest singular value of a finite 2-D float64 array (0.0 when empty),
    unchecked: for the matrices a run builds from its validated inputs."""
    return float(np.linalg.svd(M, compute_uv=False)[0]) if M.size else 0.0
