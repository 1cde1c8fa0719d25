"""Regularization sweeps: truncated SVD and projected (Krylov) iteration.

Both methods give one regularized solution x_k per k = 1, 2, ...:

- truncated SVD keeps the first k spectral components of the data,
  x_k = sum_{i<=k} (u_i' b / sigma_i) v_i, and is the reference every
  iterative method is compared against;
- LSQR solves the projected problem min_y ||B_k y - beta_1 e_1|| and lifts
  the solution back, x_k = Q_k y_k, the minimizer of ||A x - b|| over the
  k-th Krylov space of (A'A, A'b).

On noisy data either realized error falls, bottoms out at the sweep's
``best_k`` (for LSQR the semi-convergence index k*, for TSVD the realized
transition index) and rises again as the solutions start inverting noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bidiag import BidiagState
from .noise import NoisyInstance

__all__ = [
    "RANK_FLOOR_REL",
    "Sweep",
    "lsqr_iterate",
    "lsqr_sweep",
    "tsvd_sweep",
]

#: Components with sigma_k at or below this multiple of sigma_1 are not
#: inverted; they carry no information at working precision.
RANK_FLOOR_REL = 1e-14


@dataclass(frozen=True)
class Sweep:
    """Realized relative errors and residuals of x_1..x_K.

    Everything else is read from the errors: ``best_k`` is the k of smallest
    relative error (ties resolved to the smallest k), and the sweep is
    ``semi_convergent`` when its last error ends above that minimum.
    """

    rel_errors: np.ndarray
    residuals: np.ndarray

    @property
    def ks(self) -> np.ndarray:
        return np.arange(1, self.rel_errors.size + 1)

    @property
    def best_k(self) -> int:
        return int(np.argmin(self.rel_errors)) + 1

    @property
    def best_error(self) -> float:
        return float(self.rel_errors[self.best_k - 1])

    @property
    def semi_convergent(self) -> bool:
        return bool(self.rel_errors[-1] > self.best_error + 1e-12)


def tsvd_sweep(instance: NoisyInstance) -> Sweep:
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
    return Sweep(
        rel_errors=errors / np.linalg.norm(prob.x_true),
        residuals=np.sqrt(tails(c) + outside),
    )


def lsqr_iterate(state: BidiagState, k: int) -> np.ndarray:
    """The k-th projected solution x_k = Q_k B_k^+ (beta_1 e_1)."""
    if not 1 <= k <= state.max_k:
        raise ValueError(f"k={k} outside available range 1..{state.max_k}")
    B = state.B(k)
    rhs = np.zeros(B.shape[0])
    rhs[0] = state.betas[0]
    y = np.linalg.lstsq(B, rhs, rcond=None)[0]
    return state.Q_k(k) @ y


def lsqr_sweep(instance: NoisyInstance, state: BidiagState, kmax: int) -> Sweep:
    """Run the projected iteration for k = 1..kmax on ``state``, the
    factorization of the noisy instance's (A, b).

    A factorization that broke down earlier truncates the sweep at its last
    step, ``state.max_k``.
    """
    prob = instance.problem
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    K = min(kmax, state.max_k)
    if K < 1:
        raise ValueError("factorization broke down before the first iterate")
    nx = float(np.linalg.norm(prob.x_true))
    rel_errors = np.empty(K)
    residuals = np.empty(K)
    for k in range(1, K + 1):
        x = lsqr_iterate(state, k)
        rel_errors[k - 1] = np.linalg.norm(x - prob.x_true) / nx
        residuals[k - 1] = np.linalg.norm(prob.A @ x - instance.b)
    return Sweep(rel_errors=rel_errors, residuals=residuals)
