"""Regularization sweeps: truncated SVD and projected (Krylov) iteration.

Both methods give one regularized solution x_k per k = 1, 2, ...:

- truncated SVD keeps the first k spectral components of the data,
  x_k = sum_{i<=k} (u_i' b / sigma_i) v_i, and is the reference every
  iterative method is compared against;
- LSQR takes x_k = Q_k y_k with y_k = argmin ||B_k y - beta_1 e_1||, the
  minimizer of ||A x - b|| over the k-th Krylov space of (A'A, A'b).  The
  sweep never solves that projected problem afresh: the Paige-Saunders
  recurrence updates x_{k-1} to x_k with one Givens rotation of B_k, and
  a step costs O(n) plus the product A x_k of its residual.

On noisy data either realized error falls, bottoms out at the sweep's
``best_k`` (for LSQR the semi-convergence index k*, for TSVD the realized
transition index) and rises again as the solutions start inverting noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bidiag import BidiagState
from .linalg import norm, power_of_two_above
from .noise import NoisyInstance

__all__ = [
    "RANK_FLOOR_REL",
    "Sweep",
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
    nx = norm(prob.x_true)
    # Both columns sum squares of v / t, exact and the same bits at every 2^p.
    t, tx = power_of_two_above(instance.b), power_of_two_above(prob.x_true)
    outside = float(np.sum(((instance.b - fact.U @ c) / t) ** 2))

    def tails(v):
        """sum_{i>k} v_i^2 for k = 1..rank."""
        return np.append(np.cumsum(v[::-1] ** 2)[::-1], 0.0)[1 : rank + 1]

    errors = tx * np.sqrt(np.cumsum(((c[:rank] / s[:rank] - w[:rank]) / tx) ** 2) + tails(w / tx))
    return Sweep(
        rel_errors=errors / nx,
        residuals=t * np.sqrt(tails(c / t) + outside),
    )


def lsqr_sweep(instance: NoisyInstance, state: BidiagState, kmax: int) -> Sweep:
    """LSQR for k = 1..kmax on ``state``, the factorization of the noisy
    instance's (A, b), by the Paige-Saunders recurrence.

    Step k rotates beta_{k+1} out of B_k by one Givens rotation (c, s) and
    moves x_{k-1} along w_k by phi_k/rho_k, with phi_k = c phibar_k; then
    phibar_{k+1} = s phibar_k, rhobar_{k+1} = -c alpha_{k+1} and w_{k+1} =
    q_{k+1} - (s alpha_{k+1}/rho_k) w_k, from phibar_1 = beta_1, rhobar_1 =
    alpha_1 and w_1 = q_1.  No step assumes orthonormal bases or truncates a
    singular value of B_k: past its numerical rank a row is still the
    recurrence's Krylov iterate.  Each residual ||A x_k - b|| is computed
    directly.  A factorization that broke down earlier truncates the sweep
    at its last step, ``state.max_k``.  Raises ``ValueError`` for a kmax
    below 1 and for a state without a first step, naming its breakdown.
    """
    prob = instance.problem
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    if state.max_k < 1:  # beta_1, alpha_1 or beta_2 vanished, or steps=0
        raise ValueError("the recurrence stopped before its first step" if state.breakdown is None
                         else f"the recurrence broke down at {state.breakdown} before its first "
                         "step (b or A' b vanishes, or A A' maps b onto itself, as for a spectrum "
                         "flat to rounding)")
    K = min(kmax, state.max_k)
    Q = state.Q_k(K)
    nx = float(norm(prob.x_true))
    rel_errors = np.empty(K)
    residuals = np.empty(K)
    x = np.zeros(state.n)
    w = Q[:, 0]
    phibar, rhobar = state.betas[0], state.alphas[0]
    for k in range(1, K + 1):
        rho = math.hypot(rhobar, state.betas[k])
        c, s = rhobar / rho, state.betas[k] / rho
        x += (c * phibar / rho) * w
        phibar *= s
        if k < K:
            alpha = state.alphas[k]
            rhobar = -c * alpha
            w = Q[:, k] - (s * alpha / rho) * w
        rel_errors[k - 1] = norm(x - prob.x_true) / nx
        residuals[k - 1] = norm(prob.A @ x - instance.b)
    return Sweep(rel_errors=rel_errors, residuals=residuals)
