"""Discrete ill-posed test problems with known solutions and spectra.

Each constructor returns an :class:`IllPosedProblem` holding the matrix, the
exact solution, the consistent noise-free right-hand side ``b_true = A @
x_true``, a decay model for the singular spectrum, and the (eagerly computed)
SVD that every downstream diagnostic consumes.

The integral-equation kernels are discretized with the classical recipes:
midpoint quadrature for the image-restoration and gravity-survey kernels, a
Galerkin scheme with orthonormal box functions for the second-derivative
kernel, and a lower-triangular Toeplitz quadrature for the causal heat
kernel.  The exact formulas live in the constructor docstrings so the unit
oracles can evaluate them independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SvdFactorization, as_matrix, as_vector, svd

__all__ = [
    "SpectrumModel",
    "IllPosedProblem",
    "make_shaw",
    "make_gravity",
    "make_deriv2",
    "make_heat",
    "make_prescribed",
    "make_picard_synthetic",
    "fit_spectrum_model",
]

#: Largest value whose square is finite; the pipeline squares sigma_1 and
#: ||b||, and the heat kernel squares its conductivity.
SQRT_FLOAT_MAX = float(np.sqrt(np.finfo(float).max))


# Spectrum models =============================================================
@dataclass(frozen=True)
class SpectrumModel:
    """Decay model for a singular spectrum.

    kind
        ``"severe"``    : sigma_j = zeta * rho**(-j),   rho > 1
        ``"moderate_or_mild"`` : sigma_j = zeta * j**(-alpha), alpha > 1/2
        ``"empirical"`` : no closed form (kernel-defined spectra)
    beta_picard
        Exponent used when synthesizing right-hand sides whose coefficients
        follow ``|u_i' b_true| = sigma_i**(1+beta)``; optional otherwise.
    """

    kind: str
    rho: float | None = None
    alpha: float | None = None
    zeta: float = 1.0
    beta_picard: float | None = None

    def __post_init__(self):
        if self.kind not in ("severe", "moderate_or_mild", "empirical"):
            raise ValueError(f"unknown spectrum kind {self.kind!r}")
        if self.zeta <= 0.0:
            raise ValueError("zeta must be positive")
        if self.kind == "severe":
            if self.rho is None or self.rho <= 1.0:
                raise ValueError("severe decay requires rho > 1")
        elif self.kind == "moderate_or_mild":
            if self.alpha is None or self.alpha <= 0.5:
                raise ValueError("moderate_or_mild decay requires alpha > 1/2")

    def sigma(self, n: int) -> np.ndarray:
        """Model singular values sigma_1..sigma_n."""
        if self.kind == "empirical":
            raise ValueError("empirical spectra have no closed form")
        j = np.arange(1, n + 1, dtype=float)
        if self.kind == "severe":
            s = self.zeta * self.rho ** (-j)
        else:
            s = self.zeta * j ** (-self.alpha)
        if not np.all(s > 0.0):
            raise ValueError("model spectrum underflows to zero at this size")
        return s


# Problem container ===========================================================
@dataclass(frozen=True)
class IllPosedProblem:
    """A matrix with its exact solution, consistent data, and spectrum."""

    name: str
    A: np.ndarray
    x_true: np.ndarray
    b_true: np.ndarray
    spectrum: SpectrumModel
    svd: SvdFactorization

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


def _finalize(name, A, x_true, spectrum, b_true=None) -> IllPosedProblem:
    """Validate invariants shared by all constructors and attach the SVD.

    The SVD sets a run's peak memory, so constructors release their n x n
    temporaries before calling this: only A is alive when it runs.
    """
    A = as_matrix(A)
    x_true = as_vector(x_true, "x_true")
    if b_true is None:
        b_true = A @ x_true
    else:
        b_true = as_vector(b_true, "b_true")
    with np.errstate(over="ignore"):  # an overflow is reported below
        nb = float(np.linalg.norm(b_true))
    if nb == 0.0:
        top = float(np.max(np.abs(b_true)))
        if top > 0.0:
            raise ValueError(f"{name}: ||b_true||^2 underflows float64 (largest |entry| {top:.3e})")
        raise ValueError(f"{name}: b_true is identically zero")
    if not np.isfinite(nb):
        raise ValueError(f"{name}: ||b_true||^2 overflows float64")
    resid = float(np.linalg.norm(A @ x_true - b_true))
    if resid > 1e-12 * nb:
        raise ValueError(f"{name}: A @ x_true differs from b_true ({resid:.3e})")
    fact = svd(A)
    if fact.sigma[0] > SQRT_FLOAT_MAX:
        raise ValueError(f"{name}: sigma_1^2 overflows float64")
    return IllPosedProblem(
        name=name,
        A=A,
        x_true=x_true,
        b_true=b_true,
        spectrum=spectrum,
        svd=fact,
    )


# Kernel-defined problems =====================================================
def make_shaw(n: int) -> IllPosedProblem:
    """One-dimensional image restoration (severely ill-posed, symmetric).

    Midpoint quadrature on [-pi/2, pi/2] with n nodes s_i = -pi/2 + (i-1/2)h,
    h = pi/n, of the kernel

        K(s, t) = (cos s + cos t)^2 * (sin(u)/u)^2,  u = pi (sin s + sin t),

    with the limit sin(u)/u -> 1 as u -> 0, so A_ij = h K(s_i, s_j).  The
    exact solution is the two-hump profile

        x(t) = 2 exp(-6 (t - 0.8)^2) + exp(-2 (t + 0.5)^2).

    Requires even n.
    """
    if n < 2 or n % 2:
        raise ValueError("make_shaw requires an even order n >= 2")
    h = np.pi / n
    s = -np.pi / 2 + (np.arange(n) + 0.5) * h
    # h (cos s_i + cos s_j)^2 sinc(u/pi)^2 in place, two n x n arrays alive: the
    # steps of np.sinc(x) (y = pi x, eps where y == 0, sin(y)/y) keep A's bits.
    y = np.pi * (np.sin(s)[:, None] + np.sin(s)[None, :])
    y /= np.pi
    y *= np.pi
    y[y == 0.0] = np.finfo(float).eps
    A = np.sin(y)
    A /= y
    A *= A
    np.add(np.cos(s)[:, None], np.cos(s)[None, :], out=y)
    y *= y
    y *= h
    A *= y
    del y
    x_true = 2.0 * np.exp(-6.0 * (s - 0.8) ** 2) + np.exp(-2.0 * (s + 0.5) ** 2)
    return _finalize("shaw", A, x_true, SpectrumModel(kind="empirical"))


def make_gravity(n: int, depth: float = 0.25) -> IllPosedProblem:
    """Gravity surveying on [0, 1] (severely ill-posed, symmetric, positive).

    Midpoint quadrature with nodes t_i = (i-1/2)/n and weight h = 1/n of

        K(s, t) = d * (d^2 + (s - t)^2)^(-3/2),

    where ``d = depth`` is the observation depth.  The exact solution is
    x(t) = sin(pi t) + 0.5 sin(2 pi t).
    """
    if n < 2:
        raise ValueError("make_gravity requires n >= 2")
    if depth <= 0.0:
        raise ValueError("depth must be positive")
    if depth >= (high := np.cbrt(np.finfo(float).max)):
        raise ValueError(f"depth must lie below {high:.4g}: its cube overflows")
    if depth < (low := np.cbrt(np.finfo(float).tiny)):
        raise ValueError(f"depth must be at least {low:.4g}: its cube underflows")
    h = 1.0 / n
    t = (np.arange(n) + 0.5) * h
    diff = t[:, None] - t[None, :]
    A = h * depth / (depth**2 + diff**2) ** 1.5
    del diff
    x_true = np.sin(np.pi * t) + 0.5 * np.sin(2.0 * np.pi * t)
    return _finalize("gravity", A, x_true, SpectrumModel(kind="empirical"))


def make_deriv2(n: int) -> IllPosedProblem:
    """Second-derivative problem (moderately ill-posed, symmetric).

    Galerkin discretization with orthonormal box functions of the Green's
    function for the second derivative on [0, 1],

        K(s, t) = s (t - 1)  for s <  t,
                  t (s - 1)  for s >= t,

    which yields, with h = 1/n,

        A_ii = h^2 ((i^2 - i + 1/4) h - (i - 2/3)),
        A_ij = h^2 (j - 1/2) ((i - 1/2) h - 1)   for j < i,

    and symmetrically above the diagonal.  The exact solution holds the
    Galerkin coefficients of x(t) = t, namely x_i = h^(3/2) (i - 1/2).
    """
    if n < 2:
        raise ValueError("make_deriv2 requires n >= 2")
    h = 1.0 / n
    i = np.arange(1, n + 1, dtype=float)
    A = h**2 * (i[None, :] - 0.5) * ((i[:, None] - 0.5) * h - 1.0)
    A = np.tril(A, -1)
    A = A + A.T
    np.fill_diagonal(A, h**2 * ((i**2 - i + 0.25) * h - (i - 2.0 / 3.0)))
    x_true = h**1.5 * (i - 0.5)
    return _finalize("deriv2", A, x_true, SpectrumModel(kind="empirical"))


def make_heat(n: int, kappa: float = 1.0) -> IllPosedProblem:
    """Inverse heat equation (causal Volterra kernel, lower triangular).

    Midpoint quadrature of the first-kind Volterra equation with convolution
    kernel

        k(t) = t^(-3/2) / (2 kappa sqrt(pi)) * exp(-1 / (4 kappa^2 t)),

    on [0, 1] with nodes t_l = (l-1/2)h, h = 1/n, giving the lower-triangular
    Toeplitz matrix A_ij = h k(t_{i-j+1}) for j <= i and 0 above the
    diagonal.  The exact solution is the standard piecewise initial profile:
    with s_i = 20 i / n for i <= n/2,

        x_i = 0.75 s_i^2 / 4          for s_i < 2,
        x_i = 0.75 + (s_i-2)(3-s_i)   for 2 <= s_i < 3,
        x_i = 0.75 exp(-2 (s_i - 3))  for s_i >= 3,

    and x_i = 0 for i > n/2.
    """
    if n < 2:
        raise ValueError("make_heat requires n >= 2")
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    if kappa >= SQRT_FLOAT_MAX:
        raise ValueError(f"kappa must lie below {SQRT_FLOAT_MAX:.4g}: its square overflows")
    if kappa < (low := np.sqrt(n) / SQRT_FLOAT_MAX):
        raise ValueError(f"kappa must be at least {low:.4g} at n = {n}: 1/(4 kappa^2 t) overflows")
    h = 1.0 / n
    t = (np.arange(1, n + 1) - 0.5) * h
    c = h / (2.0 * kappa * np.sqrt(np.pi))
    kvals = c * t**-1.5 * np.exp(-1.0 / (4.0 * kappa**2 * t))
    idx = np.arange(n)
    lag = idx[:, None] - idx[None, :]
    A = np.where(lag >= 0, kvals[np.clip(lag, 0, n - 1)], 0.0)
    del lag
    si = 20.0 * np.arange(1, n // 2 + 1) / n
    head = np.where(
        si < 2.0,
        0.75 * si**2 / 4.0,
        np.where(si < 3.0, 0.75 + (si - 2.0) * (3.0 - si), 0.75 * np.exp(-2.0 * (si - 3.0))),
    )
    x_true = np.zeros(n)
    x_true[: n // 2] = head
    return _finalize("heat", A, x_true, SpectrumModel(kind="empirical"))


# Synthetic problems with prescribed spectra ==================================
def _random_orthogonal(rng, rows: int, cols: int) -> np.ndarray:
    """Orthonormal factor of a seeded Gaussian matrix (sign-fixed QR).

    The signs make the diagonal of the triangular factor positive, which
    pins the basis; a Gaussian draw has full rank with probability one.
    """
    Q, R = np.linalg.qr(rng.standard_normal((rows, cols)))
    return Q * np.sign(np.diag(R))


def _drawn_factors(n: int, spectrum: SpectrumModel, seed: int, m: int | None):
    """Seeded orthonormal U (m x n) and V (n x n), and A = U diag(sigma) V'."""
    m = n if m is None else m
    if m < n:
        raise ValueError("a prescribed spectrum requires m >= n")
    rng = np.random.default_rng(seed)
    U = _random_orthogonal(rng, m, n)
    V = _random_orthogonal(rng, n, n)
    return U, V, (U * spectrum.sigma(n)) @ V.T


def make_prescribed(n: int, spectrum: SpectrumModel, seed: int, m: int | None = None) -> IllPosedProblem:
    """Matrix with an exactly prescribed singular spectrum.

    ``A = U diag(sigma) V.T`` with U (m x n) and V (n x n) drawn as
    orthonormal factors of seeded Gaussian matrices, sigma from the decay
    model, and ``x_true = ones(n)``.  The same seed reproduces the same
    matrix bit for bit (generator: numpy PCG64).
    """
    U, V, A = _drawn_factors(n, spectrum, seed, m)
    del U, V
    return _finalize(f"prescribed-{spectrum.kind}", A, np.ones(n), spectrum)


def make_picard_synthetic(n: int, spectrum: SpectrumModel, seed: int, m: int | None = None) -> IllPosedProblem:
    """Prescribed spectrum plus a right-hand side with power-law coefficients.

    On top of the :func:`make_prescribed` construction, the data is built in
    the singular basis so that the noise-free coefficients obey

        u_i' b_true = sigma_i**(1 + beta),   x_true = V @ sigma**beta,

    with ``beta = spectrum.beta_picard`` (must be set, >= 0).  By
    construction ``A @ x_true = b_true`` to machine precision.
    """
    beta = spectrum.beta_picard
    if beta is None or beta < 0.0:
        raise ValueError("make_picard_synthetic requires spectrum.beta_picard >= 0")
    U, V, A = _drawn_factors(n, spectrum, seed, m)
    sig = spectrum.sigma(n)
    x_true = V @ sig**beta
    b_true = U @ sig ** (1.0 + beta)
    del U, V
    return _finalize(f"picard-{spectrum.kind}", A, x_true, spectrum, b_true=b_true)


# Spectrum fitting ============================================================
def fit_spectrum_model(sigma) -> SpectrumModel:
    """Fit a decay model to a computed spectrum.

    Regresses log(sigma_k) against k (geometric decay) and against log k
    (power-law decay) over the window above ``1e-13 * sigma_1`` (a computed
    sigma_k is off by about eps * sigma_1, so below it few digits remain) and
    returns whichever admissible model fits with smaller squared residual.

    Raises ``ValueError`` when fewer than 3 values sit above the floor or
    neither fitted model is admissible (rho > 1, alpha > 1/2).
    """
    s = as_vector(sigma, "sigma")
    if s.size == 0 or s[0] <= 0.0:
        raise ValueError("spectrum must start positive")
    keep = s > 1e-13 * s[0]
    j = np.arange(1, s.size + 1, dtype=float)[keep]
    y = np.log(s[keep])
    if j.size < 3:
        raise ValueError("fewer than 3 spectrum values above the fit floor")
    candidates = []
    slope, icept = np.polyfit(j, y, 1)
    sse = float(np.sum((y - (slope * j + icept)) ** 2))
    rho = float(np.exp(-slope))
    if rho > 1.0:
        candidates.append((sse, SpectrumModel(kind="severe", rho=rho, zeta=float(np.exp(icept)))))
    slope, icept = np.polyfit(np.log(j), y, 1)
    sse = float(np.sum((y - (slope * np.log(j) + icept)) ** 2))
    alpha = -float(slope)
    if alpha > 0.5:
        candidates.append(
            (sse, SpectrumModel(kind="moderate_or_mild", alpha=alpha, zeta=float(np.exp(icept))))
        )
    if not candidates:
        raise ValueError("no admissible decay model fits this spectrum")
    return min(candidates, key=lambda c: c[0])[1]
