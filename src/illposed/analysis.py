"""Spectral diagnostics for the projected factorization.

Everything here quantifies how well the k-step Krylov space captures the
dominant right singular subspace and what that implies for the projected
matrix: the low-rank approximation gap gamma_k = ||A - P_{k+1} B_k Q_k'||,
the Ritz values of B_k against the singular values of A, the tangent-style
subspace distance Delta_k, the classical Lagrange interpolation factors, and
the a-priori bounds assembling all of them into per-step reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bidiag import BidiagState, lower_bidiagonal
from .gallery import SpectrumModel
from .linalg import SvdFactorization, norm, power_of_two_above, sigma_max, spectral_norm
from .noise import PicardDiagnostic

__all__ = [
    "IllConditionedError",
    "AnalysisRecord",
    "BoundReport",
    "gamma_exact",
    "gamma_via_Gk",
    "ritz_values",
    "natural_order_check",
    "cauchy_interlace_check",
    "mirsky_gap_check",
    "delta_norm_via_angles",
    "delta_matrix_via_projection",
    "delta_direct",
    "sigma_delta_norm",
    "lagrange_factor",
    "near_best_predicate",
    "xi_factor",
    "bound_report",
    "decay_diagnostic",
]

#: Relative slack of the invariant audit and of every per-step predicate:
#: values within ``AUDIT_SLACK * sigma_1`` of a bound count as on it
#: (roundoff ties); basis orthogonality is held to ``AUDIT_SLACK`` itself.
AUDIT_SLACK = 1e-12
#: Vandermonde systems with condition estimates beyond this are refused.
VANDERMONDE_COND_LIMIT = 1e12
#: sin(theta) this close to 1 marks the tangent as infinite.
SIN_SATURATION = 1.0 - 1e-12


class IllConditionedError(ValueError):
    """A small-scale oracle was asked to solve a hopeless linear system."""


# Low-rank approximation gap ==================================================
# Both routes take a dense SVD on small inputs and an iterative method with an
# error certificate on large ones.  The crossovers are the block sizes at which
# the iterative routes became faster than the dense SVD (see README).

#: Trailing blocks with at least this many columns take the bisection route.
GK_BISECTION_MIN = 64
#: The bisection first counts at the estimate -+ this many eps * max|entry|.
GK_ESTIMATE_SLACK = 8.0
#: ``gamma_exact`` iterates when n - k is at least this; below, a dense SVD.
LANCZOS_MIN = 72
#: Lanczos stops once the Ritz residual is at most this multiple of ||A||_F.
LANCZOS_RTOL = 1e-14
#: Lanczos iterations before ``gamma_exact`` falls back to the dense SVD.
LANCZOS_MAX_ITER = 100
#: Lanczos processes (one per k) run in lockstep blocks of at most this many.
LANCZOS_BLOCK = 8

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # the smallest normal float64


def gamma_exact(A, Q) -> np.ndarray:
    """The gaps gamma_k = ||A (I - Q_k Q_k')|| of the leading blocks
    Q_k = Q[:, :k], k = 1..K, of an (n, K) orthonormal basis Q.

    For n - k >= ``LANCZOS_MIN`` the gap is the top Ritz value of
    Golub-Kahan-Lanczos on the operator x -> A (x - Q_k Q_k'x), certified to
    ``LANCZOS_RTOL * ||A||_F``; all such k share one lockstep run (see
    :func:`_lanczos_gaps`).  If the certificate is not reached, and for
    smaller n - k, it is the largest singular value of the explicit residual
    matrix.  This route never reads the recurrence coefficients.
    """
    ks = list(range(1, Q.shape[1] + 1))
    iterative = [k for k in ks if A.shape[1] - k >= LANCZOS_MIN]
    certified = dict(zip(iterative, _lanczos_gaps(A, Q, iterative)))
    gammas = []
    for k in ks:
        gamma = certified.get(k)
        if gamma is None:
            Qk = Q[:, :k]
            gamma = sigma_max(A - (A @ Qk) @ Qk.T)
        gammas.append(gamma)
    return np.array(gammas)


def _lanczos_gaps(A, Q, ks) -> list:
    """Largest singular value of M_k: x -> A (x - Q_k Q_k'x), Q_k = Q[:, :k],
    for each k in ``ks``; None where it is not certified.

    One Golub-Kahan-Lanczos process per k, all from the same fixed-seed
    Gaussian vector projected off Q_k, with two-pass full
    reorthogonalization of both bases, builds M_k V_j = U_j B_j and
    M_k' U_j = V_j B_j' + beta_{j+1} v_{j+1} e_j' with B_j upper bidiagonal.
    For the top singular triple (theta, x, y) of B_j, M_k V_j y = theta U_j x
    exactly and M_k' U_j x - theta V_j y has norm beta_{j+1} |x_j|.  Once
    that residual is at most ``tol = LANCZOS_RTOL * ||A||_F``, a singular
    value of M_k lies within tol of theta, and theta, a Ritz value, is at
    most ||M_k||.  If a later alpha_{j+1} falls to tol or below, it is set
    to zero: the top triple of B_{j+1} then has its residual, at most
    alpha_{j+1}, in M_k V_{j+1} y instead.  A process is uncertified when
    its residual stays above tol for ``LANCZOS_MAX_ITER`` iterations or M_k
    maps the start vector to zero.

    The processes run in lockstep blocks of ``LANCZOS_BLOCK`` consecutive k:
    each step applies A and A' to the whole block with one product each,
    and a process leaves its block once it has its value.
    """
    tol = LANCZOS_RTOL * float(norm(A))
    start = np.random.default_rng(0).standard_normal(A.shape[1])
    out = []
    for i in range(0, len(ks), LANCZOS_BLOCK):
        block = ks[i : i + LANCZOS_BLOCK]
        out += _lanczos_block(A, Q[:, : block[-1]], block, start, tol)
    return out


def _lanczos_block(A, Q, ks, start, tol) -> list:
    """The lockstep processes of :func:`_lanczos_gaps` for one block of k."""
    m, n = A.shape
    p = len(ks)
    # Row c of every per-process array belongs to process ks[live[c]].
    live = np.arange(p)
    own = np.arange(Q.shape[1]) < np.asarray(ks)[:, None]  # Q_k's columns per k

    def deflate(X):
        """Each row x of X minus its projection on its own process's Q_k."""
        return X - ((X @ Q) * own[live]) @ Q.T

    v = deflate(np.broadcast_to(start, (p, n)))
    v /= norm(v, axis=1)[:, None]
    U = np.empty((p, LANCZOS_MAX_ITER, m))
    V = np.empty((p, LANCZOS_MAX_ITER, n))
    # B[c, :j, :j] is process c's B_j: alpha_i on the diagonal, beta_{i+1} above.
    B = np.zeros((p, LANCZOS_MAX_ITER, LANCZOS_MAX_ITER + 1))
    beta = np.zeros(p)
    out = [None] * p
    for j in range(LANCZOS_MAX_ITER):
        V[:, j] = v
        w = deflate(v) @ A.T
        if j:
            w -= beta[:, None] * U[:, j - 1]
            w = _reorthogonalize(w, U[:, :j])
        alpha = norm(w, axis=1)
        # alpha_{j+1} <= tol ends a process with the value of B_{j+1} at
        # alpha_{j+1} = 0; alpha_1 = 0 ends it uncertified.  Its row of U
        # is zero, so the products that finish the step stay finite.
        broke = alpha <= tol if j else alpha == 0.0
        alpha[broke] = 0.0
        U[:, j] = w / np.where(broke, np.inf, alpha)[:, None]
        r = deflate(U[:, j] @ A) - alpha[:, None] * v
        r = _reorthogonalize(r, V[:, : j + 1])
        beta = norm(r, axis=1)
        B[:, j, j] = alpha
        X, s, _ = np.linalg.svd(B[:, : j + 1, : j + 1])
        done = broke | (beta * np.abs(X[:, j, 0]) <= tol)
        for c in np.nonzero(done)[0]:
            out[live[c]] = None if j == 0 and broke[c] else float(s[c, 0])
        if done.all():
            break
        if done.any():
            keep = ~done
            live, beta, r = live[keep], beta[keep], r[keep]
            U, V, B = (_compact(a, keep, j + 1) for a in (U, V, B))
        B[:, j, j + 1] = beta
        v = r / beta[:, None]
    return out


def _reorthogonalize(W, bases):
    """Two passes of classical Gram-Schmidt of each row W[c] against the
    orthonormal rows of ``bases[c]``."""
    for _ in range(2):
        W = W - (np.matmul(bases, W[:, :, None]).transpose(0, 2, 1) @ bases)[:, 0]
    return W


def _compact(a, keep, used):
    """Move the rows ``a[keep]`` to the front, their first ``used`` entries
    along axis 1 only, and return a view of them."""
    p = int(keep.sum())
    a[:p, :used] = a[keep, :used]
    return a[:p]


def gamma_via_Gk(state: BidiagState, K: int) -> np.ndarray:
    """The same gaps gamma_1..gamma_K from the trailing blocks of the
    bidiagonal matrix.

    Deleting the first k rows and columns of the full lower bidiagonal
    matrix leaves the block G_k with diagonal alpha_{k+1}, alpha_{k+2}, ...
    and subdiagonal beta_{k+2}, beta_{k+3}, ...  For a complete
    factorization it is (n-k+1) x (n-k), with beta_{n+1} = 0 when A is
    square, and ||G_k|| = gamma_k.  A breakdown-truncated run ends the block
    at its last computed entry: square after a beta breakdown, one row
    taller after an alpha breakdown.  The reached Krylov space is then
    invariant to within the breakdown tolerance 1e-14 * ||A||, so ||G_k|| is
    the gap on that space; it equals gamma_k to within that tolerance unless
    A acts more strongly on the unreached complement.

    Each block's head, its leading ``GK_BISECTION_MIN`` columns, gets a
    dense SVD; for a block with fewer columns its norm is gamma_k.  A larger
    block takes bisection on the Golub-Kahan tridiagonal (see
    :func:`_bidiagonal_norm`), pruned by the head's norm as its estimate:
    the head is a submatrix of G_k and the coefficients decay, so the top
    singular vector of G_k lives mostly in the head.  The estimate changes
    how many Sturm counts a bisection takes, never its result.  This route
    never reads A or the Krylov basis.
    """
    if not state.terminal:
        raise ValueError("gamma_via_Gk needs a complete or broken-down factorization")
    alpha, beta = np.array(state.alphas), np.array(state.betas)
    if alpha.size <= K:
        raise ValueError(f"no trailing block at k={K} (have {alpha.size} alphas)")
    if beta.size - 1 not in (alpha.size, alpha.size - 1):
        raise ValueError("inconsistent coefficient arrays")
    # Every head is a block of the lower bidiagonal of the first K + 64
    # coefficients; LAPACK reads a block as it reads the same matrix built alone.
    L = lower_bidiagonal(alpha[: K + GK_BISECTION_MIN], beta[1 : K + GK_BISECTION_MIN + 1])
    gammas = []
    for k in range(1, K + 1):
        a, b = alpha[k:], beta[k + 1 :]
        head = sigma_max(L[k : k + GK_BISECTION_MIN + 1, k : k + GK_BISECTION_MIN])
        gammas.append(head if a.size < GK_BISECTION_MIN else _bidiagonal_norm(a, b, head))
    return np.array(gammas)


def _bidiagonal_norm(a, b, estimate: float = math.nan) -> float:
    """Largest singular value of the lower bidiagonal matrix diag(a) + subdiag(b).

    It is the largest eigenvalue of the Golub-Kahan tridiagonal: zero
    diagonal and off-diagonal a_1, b_1, a_2, b_2, ...  Bisection keeps it in
    [lo, hi], starting from the largest column norm (a lower bound) and the
    largest Gershgorin row sum (an upper bound, within a factor 2), and
    stops once hi - lo <= 2 eps max|entry|.  Each step counts the positive
    pivots of the LDL' factorization of T - x I (Sylvester's inertia); the
    computed count is exact for a tridiagonal within a few eps of T
    entrywise, and the form never squares the matrix, so the error stays a
    few eps * max|entry| absolute even for blocks at the roundoff floor.

    The computed count is monotone in the shift x, so a count at one shift
    settles every midpoint on one side of it.  Before bisecting, the shifts
    ``estimate -+ GK_ESTIMATE_SLACK * eps * max|entry|`` are counted; a
    midpoint that such a count settles takes its known outcome without a
    count.  Every midpoint thus gets the outcome of its own count, and the
    result is the same for every estimate: a good one (within the slack)
    leaves about six counts, a poor one or nan only costs counts.
    """
    e = np.empty(a.size + b.size)
    e[0::2] = a
    e[1::2] = b
    scale = float(np.max(np.abs(e)))
    if scale == 0.0:
        return 0.0
    e = np.abs(e) / scale
    pairs = np.append(e, 0.0)[: 2 * a.size].reshape(-1, 2)
    lo = float(np.max(np.hypot(pairs[:, 0], pairs[:, 1])))
    hi = float(np.max(np.append(e, 0.0) + np.append(0.0, e)))
    e2 = (e * e).tolist()
    # Shifts with a counted outcome: an eigenvalue lies above ``below`` and
    # none above ``above``.
    below, above = -math.inf, math.inf
    t = estimate / scale
    for x in (t - GK_ESTIMATE_SLACK * _EPS, t + GK_ESTIMATE_SLACK * _EPS):
        if max(lo, below) < x < min(hi, above):
            if _has_eigenvalue_above(e2, x):
                below = x
            else:
                above = x
    while hi - lo > 2.0 * _EPS:
        x = 0.5 * (lo + hi)
        if x <= below or (x < above and _has_eigenvalue_above(e2, x)):
            lo = x
        else:
            hi = x
    return 0.5 * (lo + hi) * scale


def _has_eigenvalue_above(e2, x) -> bool:
    """Whether the zero-diagonal tridiagonal with squared off-diagonal ``e2``
    has an eigenvalue above x > 0, i.e. T - x I has a positive pivot.

    Pivots within ``_TINY`` of zero count as negative (LAPACK's rule).
    """
    negx = -x
    d = negx
    for s in e2:
        d = negx - s / d
        if d > -_TINY:
            if d >= _TINY:
                return True
            d = -_TINY
    return False


# Ritz values ================================================================
def ritz_values(B, k: int) -> np.ndarray:
    """Singular values of B_k in descending order (the k Ritz values), read
    as the leading (k+1) x k block of a B_K = ``state.B(K)`` with K >= k.
    Raises ``ValueError`` unless 1 <= k <= K."""
    if not 1 <= k <= B.shape[1]:
        raise ValueError(f"B_{k} not available (B has {B.shape[1]} columns)")
    return np.linalg.svd(B[: k + 1, :k], compute_uv=False)


def natural_order_check(theta, sigma) -> bool:
    """True iff sigma_{i+1} < theta_i < sigma_i for every i <= k, each arm
    widened by the audit slack: converged Ritz values can sit within
    machine precision of the singular value they approximate."""
    theta, sigma = np.asarray(theta, dtype=float), np.asarray(sigma, dtype=float)
    k = theta.size
    if sigma.size < k + 1:
        raise ValueError("need sigma_1..sigma_{k+1} to test the natural order")
    return _bracketed(theta, sigma, sigma[1 : k + 1])


def cauchy_interlace_check(theta, sigma) -> bool:
    """Strict interlacing sigma_{n-k+i} < theta_i < sigma_i (with the audit slack)."""
    theta, sigma = np.asarray(theta, dtype=float), np.asarray(sigma, dtype=float)
    k, n = theta.size, sigma.size
    if k > n:
        raise ValueError("more Ritz values than singular values")
    return _bracketed(theta, sigma, sigma[n - k :])


def mirsky_gap_check(theta, sigma, gamma) -> bool:
    """True iff 0 < sigma_i - theta_i <= gamma_k for every i <= k, each arm
    widened by the audit slack: a converged Ritz value closes the gap to
    roundoff."""
    theta, sigma = np.asarray(theta, dtype=float), np.asarray(sigma, dtype=float)
    k = theta.size
    if sigma.size < k:
        raise ValueError("need at least k singular values")
    return _bracketed(theta, sigma, sigma[:k] - gamma)


def _bracketed(theta, sigma, lower) -> bool:
    """Whether lower_i < theta_i < sigma_i for every i <= k = theta.size,
    each arm widened by ``AUDIT_SLACK * sigma_1``.  Within the slack a
    value counts as on its bound, so a non-strict bound is tested the same
    way as a strict one."""
    slack = AUDIT_SLACK * sigma[0]
    return bool(((lower - slack < theta) & (theta < sigma[: theta.size] + slack)).all())


# Subspace distance ==========================================================
def delta_norm_via_angles(VQ, k: int):
    """Largest principal angle between span(V_k) and the Krylov space.

    ``VQ`` is V'Q_K for the full right singular basis V and a Krylov basis
    whose leading k columns are Q_k, so one projection serves every k <= K.
    Returns ``(sin_theta, delta_norm)``: sin_theta = ||V_perp' Q_k||, the
    norm of the trailing block ``VQ[k:, :k]`` (for an orthonormal Q_k this
    is ||(I - Q_k Q_k') V_k||), and the tangent sin/sqrt(1 - sin^2), which
    is ``inf`` once sin saturates within 1e-12 of 1.
    """
    sin_theta = min(sigma_max(VQ[k:, :k]), 1.0)
    if sin_theta >= SIN_SATURATION:
        return sin_theta, math.inf
    return sin_theta, sin_theta / math.sqrt((1.0 - sin_theta) * (1.0 + sin_theta))


def delta_matrix_via_projection(VQ, k: int):
    """The (n-k) x k distance matrix Delta_k recovered from the Krylov basis.

    Writing the coordinates of Q_k in the right singular basis as
    M = V' Q_k = [M1; M2] (the first k columns of ``VQ`` = V'Q_K), the
    Krylov space equals the graph subspace spanned by V_k + V_perp Delta_k
    exactly when Delta_k = M2 M1^{-1}.  Returns ``None`` when M1 is
    numerically singular (a right angle).
    """
    M = VQ[:, :k]
    try:
        return np.linalg.solve(M[:k].T, M[k:].T).T
    except np.linalg.LinAlgError:
        return None


def delta_direct(fact: SvdFactorization, b, k: int) -> np.ndarray:
    """Delta_k from its defining formula (small-scale oracle).

    With D = diag(sigma_j u_j' b) and T_k the n x k Vandermonde matrix in
    the squared singular values (row j = (1, sigma_j^2, ..., sigma_j^{2k-2})),
    split after the first k rows into D_1, D_2, T_{k1}, T_{k2}:

        Delta_k = D_2 T_{k2} T_{k1}^{-1} D_1^{-1}.

    Raises
    ------
    IllConditionedError
        When cond(T_{k1}) exceeds 1e12; beyond that the formula's value is
        numerically meaningless and the projection route must be used instead.
    ValueError
        When some coefficient sigma_j u_j' b with j <= k vanishes exactly
        (names the index).
    """
    s = fact.sigma
    n = s.size
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} outside 1..{n - 1}")
    d = s * fact.coefficients(b)
    zero = np.nonzero(d[:k] == 0.0)[0]
    if zero.size:
        raise ValueError(f"coefficient sigma_j * u_j'b vanishes at j={zero[0] + 1}")
    T = np.vander(s**2, k, increasing=True)
    T1 = T[:k]
    T2 = T[k:]
    cond = np.linalg.cond(T1)
    if not np.isfinite(cond) or cond > VANDERMONDE_COND_LIMIT:
        raise IllConditionedError(
            f"cond(T_k1) = {cond:.3e} exceeds {VANDERMONDE_COND_LIMIT:g} at k={k}"
        )
    M = np.linalg.solve(T1.T, T2.T).T
    return (d[k:, None] * M) / d[None, :k]


def sigma_delta_norm(VQ, sigma, k: int) -> float:
    """||Delta_k Sigma_k|| (equivalently ||Sigma_k Delta_k'||) by the
    projection route, which stays well-conditioned at scale (``VQ`` as in
    :func:`delta_matrix_via_projection`).  Returns ``inf`` at a right angle.
    """
    delta = delta_matrix_via_projection(VQ, k)
    if delta is None:
        return math.inf
    return spectral_norm(delta * sigma[:k])


# Interpolation factors =======================================================
def lagrange_factor(sigma, k: int):
    """Lagrange factors |L_j^{(k)}(0)| of the squared singular values.

    ``|L_j^{(k)}(0)| = prod_{i<=k, i!=j} sigma_i^2 / |sigma_j^2 - sigma_i^2|``
    for j = 1..k; at k = 1 it is the empty product, 1.  Returns the array of
    factors and their maximum, all nan when two of sigma_1..sigma_k coincide
    within 1e-14 relative (the factors are undefined on repeated singular
    values).  They are scale-free: where sigma's squares are normal floats,
    sigma * 2^p gives their bits for every p whose squares do not overflow.
    Raises ``ValueError`` for k outside 1..len(sigma).
    """
    sigma = np.asarray(sigma, dtype=float)
    if not 1 <= k <= sigma.size:
        raise ValueError(f"k={k} outside 1..{sigma.size}")
    s = sigma[:k]
    if (s[:-1] - s[1:] <= 1e-14 * sigma[0]).any():
        return np.full(k, math.nan), math.nan
    if s[-1] ** 2 < _TINY:  # squares go subnormal: rescale exactly
        s = s / power_of_two_above(s)
    s2 = s**2
    denom = np.abs(s2[None, :] - s2[:, None])
    denom.flat[:: k + 1] = 1.0  # the j = i term is excluded from the product
    ratio = s2[:, None] / denom
    ratio.flat[:: k + 1] = 1.0
    with np.errstate(over="ignore"):  # past float64 at deep k: the factor reads inf
        factors = ratio.prod(axis=0)
    return factors, float(factors.max())


# Predicates and bounds ======================================================
def near_best_predicate(gamma, sigma, k: int) -> bool:
    """Is the rank-k approximation near best:
    sigma_{k+1} <= gamma_k < (sigma_k + sigma_{k+1}) / 2, each arm widened
    by ``AUDIT_SLACK * sigma_1``."""
    slack = AUDIT_SLACK * sigma[0]
    mid = 0.5 * (sigma[k - 1] + sigma[k])
    return bool((gamma >= sigma[k] - slack) and (gamma < mid + slack))


def xi_factor(delta_norm: float) -> float:
    """The projection factor xi_k entering the gap bounds.

    Equals sqrt((d/(1+d^2))^2 + 1) for d = ||Delta_k|| < 1; for d >= 1
    (or an infinite tangent) only the bound sqrt(5)/2 is available and is
    returned.
    """
    if not math.isfinite(delta_norm) or delta_norm >= 1.0:
        return math.sqrt(5.0) / 2.0
    return math.sqrt((delta_norm / (1.0 + delta_norm**2)) ** 2 + 1.0)


@dataclass(frozen=True)
class AnalysisRecord:
    """Per-step spectral diagnostics of one run, with the step's a-priori
    bounds (``None`` where they are undefined)."""

    k: int
    gamma: float
    gamma_Gk: float
    sigma_k1: float
    ritz: np.ndarray
    delta_norm: float
    sin_theta: float
    sigma_delta: float
    lagrange_max: float
    near_best: bool
    natural_order: bool
    alpha_beta_sum: float
    bounds: BoundReport | None


@dataclass(frozen=True)
class BoundReport:
    """Right-hand sides of the a-priori bounds, evaluated per step.

    Every bound is evaluated twice: with the realized coefficient ratio

        R_k = max_{k<i<=n} |u_i'b| / min_{i<=k} |u_i'b|

    and with its decay-model simplification (``(sigma_{k+1}/sigma_k)^(1+beta)``
    for k <= k0, and 1 past the transition index).  Unbounded O(.) factors
    in the severe-decay constants are evaluated as their finite part 1; the
    audits therefore flag rather than fail up to a factor 2.
    """

    regime: str
    k0_used: int
    ratio_realized: float
    ratio_asymptotic: float
    xi_k: float
    eta_k: float
    eta_k_asymptotic: float
    epsilon_k_bound: float
    delta_bound: float
    delta_bound_asymptotic: float
    sigma_delta_bound: float
    sigma_delta_bound_asymptotic: float
    near_best_condition: bool
    natural_order_condition: bool


@np.errstate(over="ignore")  # a power-law bound past float64 at deep k reads inf
def bound_report(
    fact: SvdFactorization,
    picard: PicardDiagnostic,
    spectrum: SpectrumModel | None,
    delta_norm: float,
    k: int,
    lagrange_max: float,
) -> BoundReport:
    """Evaluate the decay-regime bounds at step k with realized quantities.

    Requires a spectrum model (a kernel has none: fit one first with
    ``fit_spectrum_model``) and a positive transition index in the
    diagnostic.  Raises ``ValueError`` when a leading coefficient
    vanishes exactly (names the index).  ``lagrange_max`` is
    ``lagrange_factor(sigma, k)[1]``, nan where tied singular values
    leave it undefined; the moderate and mild bounds then raise
    ``ValueError``, and the severe ones do not use it.  A computed
    sigma_{k+1} = 0 leaves the gap ratio sigma_k / sigma_{k+1} unbounded and
    also raises; a factor that overflows makes its bounds read inf.
    """
    if spectrum is None:
        raise ValueError("bound_report needs a decay model; fit one for a kernel's spectrum")
    s = fact.sigma
    n = s.size
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} outside 1..{n - 1}")
    k0 = picard.k0
    if k0 < 1:
        raise ValueError("transition index k0 = 0: bounds are undefined")
    if s[k] == 0.0:
        raise ValueError(f"sigma_{k + 1} = 0: the gap ratio sigma_{k} / sigma_{k + 1} is unbounded")
    head = picard.coef[:k]
    if not head.all():
        raise ValueError(f"coefficient u_j'b vanishes at j={np.nonzero(head == 0.0)[0][0] + 1}")
    ratio = float(picard.coef[k:].max() / head.min())
    beta = spectrum.beta_picard if spectrum.beta_picard is not None else picard.beta_fit
    if k > k0:
        ratio_asym = 1.0
    else:  # beta_fit is nan where the fit is undefined
        ratio_asym = float((s[k] / s[k - 1]) ** (1.0 + beta)) if math.isfinite(beta) else math.nan
    xi = xi_factor(delta_norm)
    r = np.array([ratio, ratio_asym])  # each bound below, at the realized then the model ratio

    if spectrum.kind == "severe":
        crowd = 1.0 if k <= k0 else math.sqrt(k - k0 + 1.0)
        delta_b = (s[k] / s[k - 1]) * r
        sd_b = s[k] * r * crowd
        eta = xi * r * crowd
        natural_cond = spectrum.rho >= 1.0 + math.sqrt(2.0)
    else:
        alpha = spectrum.alpha
        if math.isnan(lagrange_max):
            raise ValueError(f"Lagrange factor undefined at k={k}: tied singular values")
        if k == 1:
            poly_plain = math.sqrt(1.0 / (2.0 * alpha - 1.0))
        else:
            poly_plain = math.sqrt(k**2 / (4.0 * alpha**2 - 1.0) + k / (2.0 * alpha - 1.0))
        if k <= k0:  # always at k = 1, since k0 >= 1
            poly_split = poly_plain
        else:
            poly_split = math.sqrt(
                k * k0 / (4.0 * alpha**2 - 1.0) + k * (k - k0 + 1.0) / (2.0 * alpha - 1.0)
            )
        delta_b = r * poly_plain * lagrange_max
        sd_b = s[k - 1] * r * poly_split * lagrange_max
        eta = xi * (s[k - 1] / s[k]) * r * poly_split * lagrange_max
        natural_cond = 1.0 + math.sqrt(1.0 + eta[0] ** 2) < ((k + 1.0) / k) ** alpha

    return BoundReport(
        regime=spectrum.kind,
        k0_used=int(k0),
        ratio_realized=ratio,
        ratio_asymptotic=ratio_asym,
        xi_k=xi,
        eta_k=eta[0],
        eta_k_asymptotic=eta[1],
        epsilon_k_bound=eta[0] * s[k],
        delta_bound=delta_b[0],
        delta_bound_asymptotic=delta_b[1],
        sigma_delta_bound=sd_b[0],
        sigma_delta_bound_asymptotic=sd_b[1],
        near_best_condition=bool(math.sqrt(1.0 + eta[0] ** 2) < 0.5 * (s[k - 1] / s[k]) + 0.5),
        natural_order_condition=bool(natural_cond),
    )


# Decay of the recurrence coefficients =======================================
def decay_diagnostic(state: BidiagState, kmax: int | None = None):
    """The cheap in-run proxy alpha_{k+1} + beta_{k+2} for gamma_k.

    Returns ``(k, coefficient_sum)`` pairs for k = 1..``state.max_proxy_k``,
    capped at ``kmax``.  The pair forms the first column of the trailing
    block G_k, so the sum lies within a factor sqrt(2) of its norm.
    """
    K = state.max_proxy_k if kmax is None else min(kmax, state.max_proxy_k)
    return [(k, state.alphas[k] + state.betas[k + 1]) for k in range(1, K + 1)]
