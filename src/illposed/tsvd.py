"""Truncated-SVD regularization: the spectral-cutoff reference method.

The rank-k solution keeps the first k spectral components of the data,

    x_k = sum_{i<=k} (u_i' b / sigma_i) v_i,

and the sweep locates the truncation level of smallest realized error,
which serves as the reference every iterative method is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import NoisyInstance

__all__ = [
    "RANK_FLOOR_REL",
    "TsvdSweep",
    "tsvd_sweep",
]

#: Components with sigma_k at or below this multiple of sigma_1 are not
#: inverted; they carry no information at working precision.
RANK_FLOOR_REL = 1e-14


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
    """Sweep truncation levels k = 1..rank, every sigma_k above the rank floor.

    In the singular basis, with c = U'b and w = V'x_true, x_k has the
    coordinates c_i/sigma_i for i <= k and 0 beyond, so

        ||x_k - x_true||^2 = sum_{i<=k} (c_i/sigma_i - w_i)^2 + sum_{i>k} w_i^2,
        ||A x_k - b||^2    = sum_{i>k} c_i^2 + ||b - U c||^2,

    the residuals being those of the computed factorization.  No iterate is
    formed: the whole sweep is O(n) after two products with U and one with V.
    """
    prob = instance.problem
    fact = prob.svd
    s = fact.sigma
    rank = int(np.sum(s > RANK_FLOOR_REL * s[0]))
    if rank < 1:
        raise ValueError("matrix has no components above the rank floor")
    c = fact.coefficients(instance.b)
    w = fact.V.T @ prob.x_true
    outside = float(np.sum((instance.b - fact.U @ c) ** 2))

    def tails(v):
        """sum_{i>k} v_i^2 for k = 1..rank."""
        return np.append(np.cumsum(v[::-1] ** 2)[::-1], 0.0)[1 : rank + 1]

    errors = np.sqrt(np.cumsum((c[:rank] / s[:rank] - w[:rank]) ** 2) + tails(w))
    rel_errors = errors / np.linalg.norm(prob.x_true)
    residuals = np.sqrt(tails(c) + outside)
    best = int(np.argmin(rel_errors))
    return TsvdSweep(
        ks=np.arange(1, rank + 1),
        rel_errors=rel_errors,
        residuals=residuals,
        best_k=best + 1,
        best_error=float(rel_errors[best]),
    )
