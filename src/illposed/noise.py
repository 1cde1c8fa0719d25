"""Gaussian white-noise model and the coefficient-decay diagnostic.

The diagnostic inspects the coefficients |u_i' b| of the data in the left
singular basis: for a problem whose noise-free coefficients decay, they fall
with i until they hit the noise floor eta = ||e||/sqrt(m) and stay there.
The index where that transition happens governs every truncation decision in
the laboratory.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gallery import IllPosedProblem
from .linalg import norm

__all__ = [
    "NoisyInstance",
    "PicardDiagnostic",
    "add_noise",
    "noiseless_instance",
    "picard_diagnostic",
]

#: Median window half-width used by the transition-index rule.
WINDOW_HALF = 2
#: The windowed rule requires the median to exceed this multiple of the floor.
FLOOR_FACTOR = 2.0


@dataclass(frozen=True)
class NoisyInstance:
    """A problem together with one realization of additive white noise.

    Invariants: ``b = b_true + e``, the realized noise level
    ``||e|| / ||b_true||`` equals ``epsilon`` to within 1e-14, and
    ``eta = ||e|| / sqrt(m)`` is the per-coefficient noise floor.
    """

    problem: IllPosedProblem
    epsilon: float
    seed: int | None
    e: np.ndarray
    b: np.ndarray
    eta: float
    generator: str = "numpy-pcg64"


def add_noise(problem: IllPosedProblem, epsilon: float, seed: int) -> NoisyInstance:
    """Perturb ``b_true`` with seeded Gaussian noise of exact relative size.

    The Gaussian draw is rescaled so that ``||e|| / ||b_true||`` equals
    ``epsilon`` exactly (up to roundoff), which pins the noise floor
    ``eta`` deterministically for a given seed.

    Raises ``ValueError`` unless ``0 < epsilon < 1``.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(problem.m)
    ng = float(np.linalg.norm(g))
    if ng == 0.0:
        raise ValueError("degenerate zero noise draw")
    e = g * (epsilon * float(norm(problem.b_true)) / ng)
    b = problem.b_true + e
    eta = float(norm(e)) / np.sqrt(problem.m)
    return NoisyInstance(
        problem=problem, epsilon=float(epsilon), seed=int(seed), e=e, b=b, eta=eta
    )


def noiseless_instance(problem: IllPosedProblem) -> NoisyInstance:
    """The exact-data instance: ``e = 0``, ``eta = 0``."""
    return NoisyInstance(
        problem=problem,
        epsilon=0.0,
        seed=None,
        e=np.zeros(problem.m),
        b=problem.b_true.copy(),
        eta=0.0,
        generator="none",
    )


@dataclass(frozen=True)
class PicardDiagnostic:
    """Coefficient-decay diagnostic of one noisy instance.

    Attributes
    ----------
    sigma : (n,) ndarray
        Computed singular values.
    coef : (n,) ndarray
        |u_i' b| for the noisy data.
    coef_true : (n,) ndarray
        |u_i' b_true| for the noise-free data.
    eta : float
        The instance's noise floor, which the indices are measured against.
    k0 : int
        Transition index by the windowed rule: the largest k whose
        5-index median of |u_i' b| (window clamped at the ends) exceeds
        twice the floor; 0 when no window qualifies.
    k0_naive : int
        First-crossing index: the largest k with |u_i' b| above the floor
        for every i <= k (n when the coefficients never cross).
    beta_fit : float
        Slope-derived decay exponent: fitting log|u_i' b_true| to
        (1 + beta) log sigma_i over i <= k0 gives beta; nan when k0 < 2 or
        when tied sigma_i leave the fit rank-deficient.
    """

    sigma: np.ndarray
    coef: np.ndarray
    coef_true: np.ndarray
    eta: float
    k0: int
    k0_naive: int
    beta_fit: float


def picard_diagnostic(instance: NoisyInstance) -> PicardDiagnostic:
    """Locate the transition index of the coefficient sequence |u_i' b|
    against the instance's noise floor ``eta``, which must be positive."""
    eta = instance.eta
    if eta <= 0.0:
        raise ValueError("noise floor eta must be positive")
    fact = instance.problem.svd
    coef = np.abs(fact.coefficients(instance.b))
    coef_true = np.abs(fact.coefficients(instance.problem.b_true))
    n = coef.size

    above = np.nonzero(_window_medians(coef) > FLOOR_FACTOR * eta)[0]
    k0 = int(above[-1]) + 1 if above.size else 0

    below = np.nonzero(coef <= eta)[0]
    k0_naive = int(below[0]) if below.size else n

    beta_fit = float("nan")
    if k0 >= 2:
        s_head = fact.sigma[:k0]
        c_head = coef_true[:k0]
        good = (s_head > 0.0) & (c_head > 0.0)
        if int(good.sum()) >= 2:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a rank-deficient fit (tied sigma_i) warns
                try:
                    slope = np.polyfit(np.log(s_head[good]), np.log(c_head[good]), 1)[0]
                    beta_fit = float(slope - 1.0)
                except Warning:
                    pass

    return PicardDiagnostic(
        sigma=fact.sigma.copy(),
        coef=coef,
        coef_true=coef_true,
        eta=eta,
        k0=int(k0),
        k0_naive=int(k0_naive),
        beta_fit=beta_fit,
    )


def _window_medians(coef) -> np.ndarray:
    """Median of coef over the window k-WINDOW_HALF..k+WINDOW_HALF, clamped
    to 1..n, for every k = 1..n; bit-identical to ``np.median`` per window.

    Each window is sorted with +inf in place of the indices past either
    end, so its real entries come first; the median is the middle one of
    those, or the mean of the middle two.
    """
    n = coef.size
    width = 2 * WINDOW_HALF + 1
    padded = np.full(n + width - 1, np.inf)
    padded[WINDOW_HALF : WINDOW_HALF + n] = coef
    windows = np.sort(sliding_window_view(padded, width), axis=1)
    k = np.arange(1, n + 1)
    size = np.minimum(n, k + WINDOW_HALF) - np.maximum(1, k - WINDOW_HALF) + 1
    lo = windows[k - 1, (size - 1) // 2]
    hi = windows[k - 1, size // 2]
    return np.where(size % 2 == 1, lo, (lo + hi) / 2)
