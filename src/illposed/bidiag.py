"""Lower bidiagonalization of (A, b) by the Lanczos two-sided recurrence.

Starting from ``beta_1 p_1 = b`` and ``alpha_1 q_1 = A' p_1``, each step k
extends the two orthonormal bases by

    beta_{k+1} p_{k+1} = A q_k  - alpha_k p_k,
    alpha_{k+1} q_{k+1} = A' p_{k+1} - beta_{k+1} q_k,

so that ``A Q_k = P_{k+1} B_k`` with ``B_k`` the (k+1) x k lower bidiagonal
matrix carrying alpha_1..alpha_k on the diagonal and beta_2..beta_{k+1}
below it.  Full reorthogonalization (two-pass classical Gram-Schmidt against
all previous columns) is on by default; it keeps the bases orthonormal to
machine precision, which is what the spectral diagnostics downstream assume.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_matrix, as_vector, spectral_norm

__all__ = [
    "BreakdownError",
    "BidiagState",
    "bidiag_start",
    "bidiag_step",
    "bidiag_run",
    "lower_bidiagonal",
    "recurrence_residuals",
]

#: New basis vectors shorter than this multiple of ||A|| stop the recurrence.
BREAKDOWN_REL = 1e-14
#: For a square matrix the final subdiagonal entry must vanish within this.
FINAL_BETA_REL = 1e-12


class BreakdownError(RuntimeError):
    """The next basis vector vanished (numerically invariant subspace).

    Attributes
    ----------
    step : int
        Number of complete steps when the recurrence stopped.
    entry : str
        Name of the entry that fell below tolerance, e.g. ``"beta_3"``.
    """

    def __init__(self, step, entry, value, tol):
        self.step = int(step)
        self.entry = entry
        self.value = float(value)
        self.tol = float(tol)
        super().__init__(
            f"breakdown after {step} steps: {entry} = {value:.3e} below tolerance {tol:.3e}"
        )


class _GrowingBasis:
    """Column buffer with amortized O(1) appends and a copy-free view.

    The buffer doubles instead of being preallocated at (dim, dim): writing
    one column of a C-ordered block touches a page in every row, so even a
    run that breaks down after a few steps faults in much of the block.  One
    shaw-1024 run (20 steps) then peaks at 91.1 MiB instead of 83.6 MiB
    (``ru_maxrss``, x86-64 with OpenBLAS).  A row-stored block would take
    other BLAS kernels and change the bits.
    """

    def __init__(self, dim, capacity=32):
        self._buf = np.empty((dim, capacity))
        self.count = 0

    def append(self, v):
        if self.count == self._buf.shape[1]:
            grown = np.empty((self._buf.shape[0], 2 * self._buf.shape[1]))
            grown[:, : self.count] = self._buf
            self._buf = grown
        self._buf[:, self.count] = v
        self.count += 1

    def view(self, cols=None):
        return self._buf[:, : (self.count if cols is None else cols)]


def lower_bidiagonal(alphas, betas) -> np.ndarray:
    """Dense (k+1) x k matrix from diagonal alphas and subdiagonal betas.

    ``alphas`` holds alpha_1..alpha_k, ``betas`` holds beta_2..beta_{k+1};
    ``betas`` may be one entry short, in which case the k x k leading part
    is returned (used at a breakdown truncation where the trailing entry
    vanished).
    """
    a = np.asarray(alphas, dtype=float)
    b = np.asarray(betas, dtype=float)
    k = a.size
    if b.size == k:
        B = np.zeros((k + 1, k))
    elif b.size == k - 1:
        B = np.zeros((k, k))
    else:
        raise ValueError(f"betas has {b.size} entries, expected {k} or {k - 1}")
    B[np.arange(k), np.arange(k)] = a
    B[np.arange(1, b.size + 1), np.arange(b.size)] = b
    return B


class BidiagState:
    """Mutable state of one bidiagonalization run (single-writer).

    ``alphas`` and ``betas`` are the recurrence coefficients with
    ``betas[0] = beta_1 = ||b||``.  After ``steps`` complete steps the state
    holds steps+1 columns in each basis, and ``B(k)`` is available for every
    ``k <= max_k = steps``.  Completing the factorization appends the final
    subdiagonal entry beta_{n+1} (recorded as exactly zero when m = n under
    full reorthogonalization).
    """

    def __init__(self, A, atol, reorth):
        self.A = A
        self.atol = float(atol)
        self.reorth = bool(reorth)
        m, n = A.shape
        self._P = _GrowingBasis(m)
        self._Q = _GrowingBasis(n)
        self.alphas: list = []
        self.betas: list = []
        self.breakdown: str | None = None
        self.completed = False

    # Shape and progress -------------------------------------------------
    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def steps(self) -> int:
        """Number of complete steps performed after the start."""
        return len(self.alphas) - 1 if self.alphas else 0

    @property
    def max_k(self) -> int:
        """Largest k for which B_k (and P_{k+1}, Q_k) is fully formed."""
        return len(self.betas) - 1

    @property
    def max_proxy_k(self) -> int:
        """Largest k with both alpha_{k+1} and beta_{k+2} computed: the last
        step of the decay proxy alpha_{k+1} + beta_{k+2}."""
        return self.max_k - 1

    @property
    def terminal(self) -> bool:
        """True once the run completed or broke down; the coefficient
        arrays then describe the whole numerically reachable factorization."""
        return self.completed or self.breakdown is not None

    # Views ----------------------------------------------------------------
    def Q_k(self, k) -> np.ndarray:
        if not 1 <= k <= self._Q.count:
            raise ValueError(f"Q_{k} not available (have {self._Q.count} columns)")
        return self._Q.view(k)

    def P_k(self, k) -> np.ndarray:
        if not 1 <= k <= self._P.count:
            raise ValueError(f"P_{k} not available (have {self._P.count} columns)")
        return self._P.view(k)

    def B(self, k) -> np.ndarray:
        """Dense (k+1) x k projected matrix B_k."""
        if not 1 <= k <= self.max_k:
            raise ValueError(f"B_{k} not available (max_k = {self.max_k})")
        return lower_bidiagonal(self.alphas[:k], self.betas[1 : k + 1])

    # Internals --------------------------------------------------------------
    def _reorthogonalize(self, w, basis: _GrowingBasis):
        """Norm of w and w itself, after two-pass classical Gram-Schmidt
        against ``basis`` under full reorthogonalization."""
        if self.reorth:
            V = basis.view()
            for _ in range(2):
                w = w - V @ (V.T @ w)
        return float(np.linalg.norm(w)), w


def bidiag_start(A, b, reorth: bool = True, norm_A: float | None = None) -> BidiagState:
    """Initialize the recurrence: beta_1, p_1, alpha_1, q_1.

    ``norm_A`` (the spectral norm) sets the breakdown tolerance
    ``1e-14 * ||A||``; it is computed on the spot when not supplied.

    Raises ``BreakdownError`` when b = 0 or A' b vanishes numerically.
    """
    A = as_matrix(A)
    b = as_vector(b)
    if b.shape[0] != A.shape[0]:
        raise ValueError(f"b has length {b.shape[0]}, expected {A.shape[0]}")
    nA = spectral_norm(A) if norm_A is None else float(norm_A)
    state = BidiagState(A, atol=BREAKDOWN_REL * nA, reorth=reorth)
    beta1 = float(np.linalg.norm(b))
    if beta1 == 0.0:
        state.breakdown = "beta_1"
        raise BreakdownError(0, "beta_1", 0.0, state.atol)
    p1 = b / beta1
    w = A.T @ p1
    alpha1 = float(np.linalg.norm(w))
    if alpha1 < state.atol:
        state.breakdown = "alpha_1"
        raise BreakdownError(0, "alpha_1", alpha1, state.atol)
    state._P.append(p1)
    state._Q.append(w / alpha1)
    state.betas.append(beta1)
    state.alphas.append(alpha1)
    return state


def bidiag_step(state: BidiagState) -> BidiagState:
    """Advance one full step, appending beta_{k+1}, p_{k+1}, alpha_{k+1}, q_{k+1}.

    Raises ``BreakdownError`` when the next vector in either half falls
    below the breakdown tolerance; the state keeps everything computed
    before the failing entry and is marked terminal.
    """
    if state.terminal:
        raise RuntimeError("cannot step a terminal factorization state")
    if state.steps + 1 >= state.n:
        raise RuntimeError("Krylov space exhausted; use bidiag_run for the final entry")
    k = state.steps  # performing step k+1
    A, P, Q = state.A, state._P, state._Q
    beta, w = state._reorthogonalize(A @ Q.view()[:, k] - state.alphas[-1] * P.view()[:, k], P)
    if beta < state.atol:
        state.breakdown = f"beta_{k + 2}"
        raise BreakdownError(k, state.breakdown, beta, state.atol)
    P.append(w / beta)
    state.betas.append(beta)
    alpha, w = state._reorthogonalize(A.T @ P.view()[:, k + 1] - beta * Q.view()[:, k], Q)
    if alpha < state.atol:
        state.breakdown = f"alpha_{k + 2}"
        raise BreakdownError(k, state.breakdown, alpha, state.atol)
    Q.append(w / alpha)
    state.alphas.append(alpha)
    return state


def _finish(state: BidiagState) -> BidiagState:
    """Record the trailing entry beta_{n+1} and mark the state complete.

    Without reorthogonalization the bases lose orthogonality, so a square
    factorization's beta_{n+1} need not vanish; its computed value is then
    recorded as it is, and no (n+1)-th basis vector is kept.
    """
    k = state.steps
    A, P, Q = state.A, state._P, state._Q
    beta, w = state._reorthogonalize(A @ Q.view()[:, k] - state.alphas[-1] * P.view()[:, k], P)
    n = state.n
    if state.m == state.n and state.reorth:
        limit = FINAL_BETA_REL * (state.atol / BREAKDOWN_REL)
        if beta > limit:
            raise RuntimeError(
                f"square factorization ended with beta_{n + 1} = {beta:.3e}, "
                f"expected below {limit:.3e}"
            )
        state.betas.append(0.0)
    else:
        state.betas.append(beta)
        if state.m != state.n and beta >= state.atol:
            P.append(w / beta)
    state.completed = True
    return state


def bidiag_run(A, b, steps: int | None = None, reorth: bool = True, norm_A: float | None = None):
    """Drive the recurrence: returns ``(state, breakdown)``.

    Runs ``steps`` full steps, or by default n-1 steps plus the trailing
    half-step for beta_{n+1}, which gives the full factorization P' A Q = B.
    For a square matrix the dimension count forces beta_{n+1} = 0; under
    full reorthogonalization the computed value must vanish within
    ``1e-12 * ||A||`` and is recorded as zero.  A breakdown truncates the
    run and is returned as the second element, not raised; a completed or
    broken-down state is terminal, so the trailing-block norms are
    available.  A breakdown at the very start (b = 0 or A' b = 0) still
    raises: there is nothing to analyze.
    """
    state = bidiag_start(A, b, reorth=reorth, norm_A=norm_A)
    target = state.n - 1 if steps is None else min(steps, state.n - 1)
    try:
        while state.steps < target:
            bidiag_step(state)
    except BreakdownError as err:
        return state, err
    if steps is None:
        _finish(state)
    return state, None


def recurrence_residuals(state: BidiagState, k: int) -> dict:
    """Loss of orthogonality and recurrence residual at step k (the run's audit).

    Returns ``ortho_P`` = ||P'P - I||, ``ortho_Q`` = ||Q_k'Q_k - I|| and
    ``forward`` = ||A Q_k - P B_k||, with P = P_{k+1}.  Where the run kept
    no (k+1)-th left vector (k = n at a completion, always for a square A),
    P = P_k and B_k loses its trailing row.
    """
    B = state.B(k)
    P = state.P_k(min(k + 1, state._P.count))
    Q = state.Q_k(k)
    return {
        "ortho_P": spectral_norm(P.T @ P - np.eye(P.shape[1])),
        "ortho_Q": spectral_norm(Q.T @ Q - np.eye(k)),
        "forward": spectral_norm(state.A @ Q - P @ B[: P.shape[1]]),
    }
