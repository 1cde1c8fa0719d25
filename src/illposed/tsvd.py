"""Truncated-SVD regularization: the spectral-cutoff reference method.

The rank-k solution keeps the first k spectral components of the data,

    x_k = sum_{i<=k} (u_i' b / sigma_i) v_i,

and the sweep locates the truncation level of smallest realized error,
which serves as the reference every iterative method is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .linalg import SvdFactorization, as_vector
from .noise import NoisyInstance

__all__ = [
    "RANK_FLOOR_REL",
    "TsvdSweep",
    "tsvd_solution",
    "tsvd_sweep",
    "write_tsvd_csv",
]

#: Components with sigma_k at or below this multiple of sigma_1 are not
#: inverted; they carry no information at working precision.
RANK_FLOOR_REL = 1e-14


def tsvd_solution(fact: SvdFactorization, b, k: int) -> np.ndarray:
    """The rank-k spectral-cutoff solution.

    Raises ``ValueError`` when k is outside 1..n or sigma_k sits at the
    numerical rank floor (``1e-14 * sigma_1``).
    """
    b = as_vector(b)
    s = fact.sigma
    if not 1 <= k <= s.size:
        raise ValueError(f"k={k} outside 1..{s.size}")
    if s[k - 1] <= RANK_FLOOR_REL * s[0]:
        raise ValueError(
            f"sigma_{k} = {s[k - 1]:.3e} is at the numerical rank floor; "
            "the truncated solution is not defined there"
        )
    c = fact.coefficients(b)[:k]
    return fact.V[:, :k] @ (c / s[:k])


def _column_norms_inplace(M) -> np.ndarray:
    """``np.linalg.norm(M, axis=0)`` bit for bit (its own formula for real
    input), squaring ``M`` in place instead of in a copy."""
    M *= M
    return np.sqrt(np.add.reduce(M, axis=0))


@dataclass(frozen=True)
class TsvdSweep:
    """Realized errors and residuals of x_1..x_rank.

    ``best_k`` is the truncation level of smallest relative error (ties
    resolved to the smallest k); it realizes the transition index of the
    instance and anchors the semi-convergence comparisons.
    """

    ks: np.ndarray
    rel_errors: np.ndarray
    residuals: np.ndarray
    best_k: int
    best_error: float


def tsvd_sweep(instance: NoisyInstance) -> TsvdSweep:
    """Sweep truncation levels k = 1..rank, every sigma_k above the rank floor."""
    prob = instance.problem
    fact = prob.svd
    s = fact.sigma
    rank = int(np.sum(s > RANK_FLOOR_REL * s[0]))
    if rank < 1:
        raise ValueError("matrix has no components above the rank floor")
    c = fact.coefficients(instance.b)[:rank]
    # Column k-1 of the cumulative sum is x_k; one pass gives the whole sweep.
    # Two n x rank arrays in all: X (then its error) and A X - b.
    X = fact.V[:, :rank] * (c / s[:rank])
    np.cumsum(X, axis=1, out=X)
    R = prob.A @ X
    R -= instance.b[:, None]
    residuals = _column_norms_inplace(R)
    X -= prob.x_true[:, None]
    nx = float(np.linalg.norm(prob.x_true))
    rel_errors = _column_norms_inplace(X) / nx
    best = int(np.argmin(rel_errors))
    return TsvdSweep(
        ks=np.arange(1, rank + 1),
        rel_errors=rel_errors,
        residuals=residuals,
        best_k=best + 1,
        best_error=float(rel_errors[best]),
    )


def write_tsvd_csv(sweep: TsvdSweep, path) -> None:
    """Export the sweep as CSV (kind ``tsvd``)."""
    columns = {"k": sweep.ks, "rel_error": sweep.rel_errors, "residual": sweep.residuals}
    write_csv(path, "tsvd", columns)
