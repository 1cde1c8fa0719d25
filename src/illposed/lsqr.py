"""Iterative regularization by projection onto Krylov spaces.

Step k solves the projected problem min_y ||B_k y - beta_1 e_1|| and lifts
the solution back, x_k = Q_k y_k, which is exactly the minimizer of
||A x - b|| over the k-th Krylov space of (A'A, A'b).  On noisy data the
realized error falls, bottoms out at the semi-convergence index kstar, and
rises again as the iterates start inverting noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bidiag import BidiagState

__all__ = [
    "LsqrTrace",
    "lsqr_iterate",
    "lsqr_sweep",
]


def lsqr_iterate(state: BidiagState, k: int) -> np.ndarray:
    """The k-th projected solution x_k = Q_k B_k^+ (beta_1 e_1)."""
    if not 1 <= k <= state.max_k:
        raise ValueError(f"k={k} outside available range 1..{state.max_k}")
    B = state.B(k)
    rhs = np.zeros(B.shape[0])
    rhs[0] = state.betas[0]
    y = np.linalg.lstsq(B, rhs, rcond=None)[0]
    return state.Q_k(k) @ y


@dataclass(frozen=True)
class LsqrTrace:
    """Realized errors/residuals of the projected iterates x_1..x_K.

    ``kstar`` is the semi-convergence index (argmin of the realized error,
    ties to the smallest k).
    """

    ks: np.ndarray
    rel_errors: np.ndarray
    residuals: np.ndarray
    kstar: int
    semi_convergent: bool


def lsqr_sweep(instance, state: BidiagState, kmax: int) -> LsqrTrace:
    """Run the projected iteration for k = 1..kmax on ``state``, the
    factorization of the noisy instance's (A, b), and locate kstar.

    A factorization that broke down earlier truncates the trace at its last
    step, ``state.max_k``.
    """
    prob = instance.problem
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    K = min(kmax, state.max_k)
    if K < 1:
        raise ValueError("factorization broke down before the first iterate")
    nx = float(np.linalg.norm(prob.x_true))
    ks = np.arange(1, K + 1)
    rel_errors = np.empty(K)
    residuals = np.empty(K)
    for k in ks:
        x = lsqr_iterate(state, int(k))
        rel_errors[k - 1] = np.linalg.norm(x - prob.x_true) / nx
        residuals[k - 1] = np.linalg.norm(prob.A @ x - instance.b)
    best = int(np.argmin(rel_errors))
    semi = bool(rel_errors[-1] > rel_errors[best] + 1e-12)
    return LsqrTrace(
        ks=ks,
        rel_errors=rel_errors,
        residuals=residuals,
        kstar=best + 1,
        semi_convergent=semi,
    )
