"""Unit tests for the spectral diagnostics."""

import copy
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lagrange_max, poly, severe

from illposed import analysis, experiment
from illposed.analysis import (
    LANCZOS_RTOL,
    AnalysisRecord,
    BoundReport,
    IllConditionedError,
    bound_report,
    cauchy_interlace_check,
    decay_diagnostic,
    delta_direct,
    delta_matrix_via_projection,
    delta_norm_via_angles,
    gamma_exact,
    gamma_via_Gk,
    lagrange_factor,
    mirsky_gap_check,
    natural_order_check,
    near_best_predicate,
    ritz_values,
    sigma_delta_norm,
    xi_factor,
)
from illposed.bidiag import BidiagState, bidiag_run, lower_bidiagonal
from illposed.csvio import read_csv
from illposed.experiment import ANALYSIS_COLUMNS, write_analysis_csv, write_ritz_csv
from illposed.gallery import (
    SpectrumModel,
    _finalize,
    _random_orthogonal,
    make_deriv2,
    make_picard_synthetic,
    make_prescribed,
    make_shaw,
)
from illposed.linalg import spectral_norm, svd
from illposed.noise import add_noise, noiseless_instance, picard_diagnostic


@pytest.fixture(scope="module")
def severe3_rig():
    # Severe decay rho = 3: breakdown near step 30 is expected (trailing
    # entries sink below the tolerance); the state stays terminal.
    prob = make_picard_synthetic(32, severe(3.0), seed=0)
    inst = add_noise(prob, 1e-3, 0)
    state, _ = bidiag_run(prob.A, inst.b, norm_A=float(prob.svd.sigma[0]))
    return prob, inst, picard_diagnostic(inst), state


@pytest.fixture(scope="module")
def severe4_small_rig():
    prob = make_picard_synthetic(6, severe(4.0), seed=0)
    inst = add_noise(prob, 1e-2, 0)
    state, err = bidiag_run(prob.A, inst.b, norm_A=float(prob.svd.sigma[0]))
    assert err is None
    return prob, inst, state


@pytest.fixture(scope="module")
def moderate_rig():
    prob = make_picard_synthetic(48, poly(2.0), seed=0)
    inst = add_noise(prob, 1e-3, 0)
    state, err = bidiag_run(prob.A, inst.b, norm_A=float(prob.svd.sigma[0]))
    assert err is None
    return prob, inst, picard_diagnostic(inst), state


# Low-rank approximation gap --------------------------------------------------
def test_gamma_exact_k1_oracle():
    # A'b = (1, 1/2, 1/4), so the first Krylov vector is (4, 2, 1)/sqrt(21)
    # and gamma_1 is the norm of the explicitly assembled residual matrix.
    A = np.diag([1.0, 0.5, 0.25])
    b = np.ones(3)
    q1 = np.array([4.0, 2.0, 1.0]) / math.sqrt(21.0)
    resid = A - np.outer(A @ q1, q1)
    oracle = float(np.linalg.norm(resid, 2))
    assert gamma_exact(A, q1[:, None])[0] == pytest.approx(oracle, rel=1e-14)
    state, err = bidiag_run(A, b, steps=1)
    assert err is None
    assert gamma_exact(A, state.Q_k(1))[0] == pytest.approx(oracle, rel=1e-13)


def test_gamma_exact_vanishes_on_full_space():
    prob = make_picard_synthetic(8, severe(2.0), seed=0)
    state, err = bidiag_run(prob.A, prob.b_true, norm_A=float(prob.svd.sigma[0]))
    assert err is None and state.max_k == 8
    assert gamma_exact(prob.A, state.Q_k(8))[-1] < 1e-12 * prob.svd.sigma[0]


def test_gamma_via_Gk_matches_exact():
    for prob, b in [
        (make_shaw(12), None),
        (make_picard_synthetic(12, severe(2.0), seed=1), "noisy"),
    ]:
        inst = add_noise(prob, 1e-3, 1) if b else noiseless_instance(prob)
        state, _ = bidiag_run(prob.A, inst.b, norm_A=float(prob.svd.sigma[0]))
        s1 = prob.svd.sigma[0]
        K = state.max_k - 1
        gks = gamma_via_Gk(state, K)
        assert gks == pytest.approx(gamma_exact(prob.A, state.Q_k(K)), abs=1e-10 * s1)
        # The gap dominates the next singular value.
        assert np.all(gks >= prob.svd.sigma[1 : K + 1] - 1e-10 * s1)
        assert np.all(np.diff(gks) <= 1e-12 * s1)


def test_gamma_via_Gk_last_step_closed_form():
    # At k = n-1 the trailing block is the single column (alpha_n, beta_{n+1}),
    # so the gap collapses to a hypotenuse; rectangular A keeps beta_{n+1} > 0.
    prob = make_prescribed(6, severe(2.0), seed=2, m=10)
    inst = noiseless_instance(prob)
    state, err = bidiag_run(prob.A, inst.b, norm_A=float(prob.svd.sigma[0]))
    assert err is None
    assert state.betas[-1] > 0.0
    expected = math.hypot(state.alphas[-1], state.betas[-1])
    assert gamma_via_Gk(state, 5)[-1] == pytest.approx(expected, rel=1e-13)
    assert gamma_via_Gk(state, 5)[-1] == pytest.approx(
        gamma_exact(prob.A, state.Q_k(5))[-1], rel=1e-10
    )


def test_gamma_via_Gk_rejects_bad_states():
    prob = make_picard_synthetic(8, severe(2.0), seed=3)
    partial, _ = bidiag_run(prob.A, prob.b_true, steps=3)
    with pytest.raises(ValueError, match="complete or broken-down"):
        gamma_via_Gk(partial, 1)
    full, _ = bidiag_run(prob.A, prob.b_true, norm_A=float(prob.svd.sigma[0]))
    with pytest.raises(ValueError, match="no trailing block"):
        gamma_via_Gk(full, 8)


# Both gamma routes against their dense oracles, on either side of the
# crossovers: n = 64 stays dense, n = 300 takes bisection and Lanczos.
def dense_gap(A, Q):
    return spectral_norm(A - (A @ Q) @ Q.T)


def _planted_rig(n, rank, alpha_breakdown):
    """Diagonal A with b supported on its first ``rank`` coordinates, so the
    recurrence breaks down after ``rank`` steps (exact zeros keep both bases
    inside those coordinates).  With ``alpha_breakdown`` A is singular and b
    gains a component in its null space, so the q basis runs out first and
    an alpha entry vanishes."""
    rng = np.random.default_rng(n + rank)
    s = 1.0 / (1.0 + np.arange(n))
    b = np.zeros(n)
    b[:rank] = 1.0 + rng.random(rank)
    if alpha_breakdown:
        s[rank:] = 0.0
        b[rank] = 1.0
    A = np.diag(s)
    state, err = bidiag_run(A, b, norm_A=1.0)
    assert err is not None
    assert err.entry == f"{'alpha' if alpha_breakdown else 'beta'}_{rank + 1}"
    return A, state


def _rigs(n):
    prob = make_deriv2(n)
    complete, err = bidiag_run(
        prob.A, add_noise(prob, 1e-3, 0).b, norm_A=float(prob.svd.sigma[0])
    )
    assert err is None
    rank = 2 * n // 3
    return [
        ("complete", prob.A, complete),
        ("beta breakdown", *_planted_rig(n, rank, alpha_breakdown=False)),
        ("alpha breakdown", *_planted_rig(n, rank, alpha_breakdown=True)),
    ]


@pytest.mark.parametrize("n", [64, 300])
def test_gamma_routes_match_dense_oracles(n):
    for name, A, state in _rigs(n):
        s1 = spectral_norm(A)
        tol = LANCZOS_RTOL * np.linalg.norm(A) + 1e-15 * s1
        K = state.steps
        assert K == (n - 1 if name == "complete" else 2 * n // 3 - 1)
        gks, exact = gamma_via_Gk(state, K), gamma_exact(A, state.Q_k(K))
        for k in (1, K // 4, K - 1, K):
            a, b = state.alphas[k:], state.betas[k + 1 :]
            block = spectral_norm(lower_bidiagonal(a, b))
            assert gks[k - 1] == pytest.approx(block, abs=1e-14 * s1), (name, k)
            Q = state.Q_k(k)
            assert exact[k - 1] == pytest.approx(dense_gap(A, Q), abs=tol), (name, k)


def test_max_proxy_k_is_the_last_step_with_both_coefficients():
    # alpha_{k+1} and beta_{k+2} both exist for k = max_proxy_k, not beyond.
    def has_pair(state, k):
        return k + 1 <= len(state.alphas) and k + 2 <= len(state.betas)

    n = 64
    rank = 2 * n // 3
    shaw = make_shaw(n)
    shaw_state, err = bidiag_run(
        shaw.A, add_noise(shaw, 1e-3, 0).b, norm_A=float(shaw.svd.sigma[0])
    )
    assert err.entry == "alpha_20"
    states = [(name, state) for name, _, state in _rigs(n)] + [("shaw", shaw_state)]
    expected = {"complete": n - 1, "beta breakdown": rank - 2,
                "alpha breakdown": rank - 1, "shaw": 18}
    for name, state in states:
        K = state.max_proxy_k
        assert K == expected[name], name
        assert has_pair(state, K) and not has_pair(state, K + 1), name
        assert [k for k, _ in decay_diagnostic(state)] == list(range(1, K + 1)), name


@pytest.mark.parametrize("n", [64, 300])
def test_gamma_exact_repeated_top_singular_value(n):
    # Deflating the top right singular vector of diag(10, 5, 5, 5, 1, ...)
    # leaves an operator whose top singular value 5 is triple.
    rng = np.random.default_rng(3)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.concatenate(([10.0, 5.0, 5.0, 5.0], 1.0 / np.arange(1, n - 3)))
    A = (U * s) @ V.T
    Q = V[:, :1]
    tol = LANCZOS_RTOL * np.linalg.norm(A)
    (gamma,) = gamma_exact(A, Q)
    assert gamma == pytest.approx(5.0, abs=tol)
    assert gamma == pytest.approx(dense_gap(A, Q), abs=tol)


def test_gamma_routes_last_step_closed_form_on_iterative_paths(monkeypatch):
    # Force both iterative routes onto the one-column case k = n-1.
    monkeypatch.setattr(analysis, "GK_BISECTION_MIN", 1)
    monkeypatch.setattr(analysis, "LANCZOS_MIN", 1)
    prob = make_prescribed(6, severe(2.0), seed=2, m=10)
    state, err = bidiag_run(
        prob.A, noiseless_instance(prob).b, norm_A=float(prob.svd.sigma[0])
    )
    assert err is None
    expected = math.hypot(state.alphas[-1], state.betas[-1])
    assert gamma_via_Gk(state, 5)[-1] == pytest.approx(expected, rel=1e-15)
    assert gamma_exact(prob.A, state.Q_k(5))[-1] == pytest.approx(expected, rel=1e-13)


def test_gamma_exact_full_space_on_iterative_path(monkeypatch):
    # With Q spanning R^n only rounding is left of the start vector; the
    # certified value stays within the tolerance of zero.
    monkeypatch.setattr(analysis, "LANCZOS_MIN", 0)
    prob = make_picard_synthetic(8, severe(2.0), seed=0)
    state, err = bidiag_run(prob.A, prob.b_true, norm_A=float(prob.svd.sigma[0]))
    assert err is None
    assert 0.0 <= gamma_exact(prob.A, state.Q_k(8))[-1] <= LANCZOS_RTOL * np.linalg.norm(prob.A)


def test_gamma_exact_dense_fallback_when_uncertified(monkeypatch):
    prob = make_deriv2(300)
    state, _ = bidiag_run(prob.A, prob.b_true, steps=5)
    Q = state.Q_k(5)
    certified = gamma_exact(prob.A, Q)[-1]
    monkeypatch.setattr(analysis, "LANCZOS_MAX_ITER", 1)
    assert analysis._lanczos_gaps(prob.A, Q, [5]) == [None]
    assert gamma_exact(prob.A, Q)[-1] == dense_gap(prob.A, Q)
    assert gamma_exact(prob.A, Q)[-1] == pytest.approx(
        certified, abs=LANCZOS_RTOL * np.linalg.norm(prob.A)
    )


# All gaps of one run: the lockstep Lanczos processes against the dense oracle.
def _rig(kind, n):
    if kind == "complete":
        prob = make_deriv2(n)
        state, err = bidiag_run(
            prob.A, add_noise(prob, 1e-3, 0).b, norm_A=float(prob.svd.sigma[0])
        )
        assert err is None
        return prob.A, state
    return _planted_rig(n, 2 * n // 3, alpha_breakdown=kind == "alpha breakdown")


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["complete", "beta breakdown", "alpha breakdown"]),
    n=st.integers(12, 60),
    split=st.integers(1, 39),
    max_iter=st.sampled_from([3, 6, analysis.LANCZOS_MAX_ITER]),
)
def test_all_k_gaps_match_dense_oracle(kind, n, split, max_iter):
    # k <= split iterates and the larger k take the dense route; a small
    # LANCZOS_MAX_ITER leaves some processes uncertified (dense fallback).
    A, state = _rig(kind, n)
    K = min(40, state.steps)
    split = min(split, K - 1)
    Q = state.Q_k(K)
    with mock.patch.object(analysis, "LANCZOS_MIN", n - split), \
            mock.patch.object(analysis, "LANCZOS_MAX_ITER", max_iter):
        gammas = gamma_exact(A, Q)
        lanczos = analysis._lanczos_gaps(A, Q, list(range(1, split + 1)))
    tol = LANCZOS_RTOL * np.linalg.norm(A)
    assert gammas.shape == (K,)
    for k in range(1, K + 1):
        oracle = dense_gap(A, Q[:, :k])
        assert gammas[k - 1] == pytest.approx(oracle, abs=tol), (kind, k)
        if k > split:
            assert gammas[k - 1] == oracle, (kind, k)
        elif lanczos[k - 1] is not None:
            assert lanczos[k - 1] == gammas[k - 1], (kind, k)


def test_uncertified_process_falls_back_while_the_others_certify(monkeypatch):
    # Process k deflates k columns of a 24 x 24 matrix, so for k = 21..23 its
    # operator has rank <= 3 and certifies within 3 iterations; k = 1 needs
    # more than that and leaves the block uncertified.
    A, state = _rig("complete", 24)
    Q = state.Q_k(23)
    ks = [1, 21, 22, 23]
    monkeypatch.setattr(analysis, "LANCZOS_MAX_ITER", 3)
    got = analysis._lanczos_gaps(A, Q, ks)
    assert got[0] is None and None not in got[1:]
    tol = LANCZOS_RTOL * np.linalg.norm(A)
    for k, gamma in zip(ks[1:], got[1:]):
        assert gamma == pytest.approx(dense_gap(A, Q[:, :k]), abs=tol), k
    monkeypatch.setattr(analysis, "LANCZOS_MIN", 1)
    gammas = gamma_exact(A, Q)
    assert gammas[0] == dense_gap(A, Q[:, :1])
    np.testing.assert_allclose(gammas[20:], got[1:], rtol=0, atol=tol)


# Route A for all k at once: the pruned bisection against the full one. -------
def _coefficient_state(alphas, betas):
    """A terminal state that holds only recurrence coefficients."""
    state = BidiagState(np.zeros((1, 1)), atol=0.0, reorth=True)
    state.alphas, state.betas, state.completed = list(alphas), list(betas), True
    return state


@st.composite
def _bidiagonal_states(draw):
    kind = draw(st.sampled_from(["complete", "beta breakdown", "alpha breakdown", "random"]))
    if kind != "random":
        return _rig(kind, draw(st.integers(12, 90)))[1]
    # Random positive coefficients; from index ``cut`` on every entry is
    # zero or scaled down to the roundoff floor (or near underflow).
    n = draw(st.integers(2, 90))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alphas = rng.random(n) + 0.01
    betas = rng.random(n + draw(st.sampled_from([0, 1]))) + 0.01
    cut = draw(st.integers(1, n))
    tail = draw(st.sampled_from([1.0, 0.0, 1e-16, 1e-300]))
    alphas[cut:] *= tail
    betas[cut + 1 :] *= tail
    return _coefficient_state(alphas, betas)


_ESTIMATE_MAPS = {
    "as is": lambda t: t,
    "zero": np.zeros_like,
    "inf": lambda t: np.full_like(t, math.inf),
    "nan": lambda t: np.full_like(t, math.nan),
    "low": lambda t: t * (1.0 - 1e-3),
    "high": lambda t: t * (1.0 + 1e-3),
}


@settings(max_examples=60, deadline=None)
@given(
    state=_bidiagonal_states(),
    estimate=st.sampled_from(sorted(_ESTIMATE_MAPS)),
    bisection_min=st.sampled_from([1, 8]),
)
def test_all_k_route_a_is_the_full_bisection_bit_for_bit(state, estimate, bisection_min):
    # The estimate only decides which midpoints get a Sturm count; every
    # skipped midpoint must take the outcome its own count would give.
    K = min(40, state.steps)
    a, b = np.array(state.alphas), np.array(state.betas)
    calls = []
    count = analysis._has_eigenvalue_above
    estimates = analysis._norm_estimates

    def recorded(e2, x):
        calls.append((len(e2), x, count(e2, x)))
        return calls[-1][2]

    with mock.patch.object(analysis, "GK_BISECTION_MIN", bisection_min), \
            mock.patch.object(analysis, "_has_eigenvalue_above", recorded), \
            mock.patch.object(analysis, "_norm_estimates",
                              lambda *args: _ESTIMATE_MAPS[estimate](estimates(*args))):
        gammas = gamma_via_Gk(state, K)
        pruned, calls[:] = calls[:], []
        assert gammas.shape == (K,)
        for k in range(1, K + 1):
            ak, bk = a[k:], b[k + 1 :]
            if ak.size < bisection_min:
                assert gammas[k - 1] == spectral_norm(lower_bidiagonal(ak, bk)), k
                continue
            assert gammas[k - 1] == analysis._bidiagonal_norm(ak, bk), (estimate, k)
            lane = ak.size + bk.size
            full, calls[:] = [(x, r) for _, x, r in calls], []
            counted = [(x, r) for size, x, r in pruned if size == lane]
            assert len(counted) <= len(full) + 2
            done = {x for x, _ in counted}
            for x, r in full:
                if x in done:
                    continue
                # A count at x' with outcome r' settles x on one side of x'.
                assert any((r2 and x <= x2) or (not r2 and x >= x2) for x2, r2 in counted)
                assert all(r2 == r for x2, r2 in counted if (x <= x2 if r2 else x >= x2))


def test_all_k_route_a_needs_few_counts():
    # With the lockstep estimate each gap takes a handful of Sturm counts
    # instead of the ~50 of the full bisection.
    _, state = _rig("complete", 300)
    calls = []
    count = analysis._has_eigenvalue_above

    def counted(e2, x):
        calls.append(x)
        return count(e2, x)

    with mock.patch.object(analysis, "_has_eigenvalue_above", counted):
        gamma_via_Gk(state, 40)
        pruned = len(calls)
        calls.clear()
        for k in range(1, 41):
            analysis._bidiagonal_norm(np.array(state.alphas[k:]), np.array(state.betas[k + 1 :]))
    assert len(calls) >= 40 * 45
    assert pruned <= 40 * 8


def test_gamma_via_Gk_reads_only_the_coefficients():
    prob = make_deriv2(300)
    state, err = bidiag_run(prob.A, prob.b_true, norm_A=float(prob.svd.sigma[0]))
    assert err is None
    expected = gamma_via_Gk(state, 200)
    bare = copy.copy(state)
    bare.A = bare._P = bare._Q = None
    assert np.array_equal(gamma_via_Gk(bare, 200), expected)


# Ritz values -----------------------------------------------------------------
def test_ritz_first_step_closed_form(severe4_small_rig):
    _, _, state = severe4_small_rig
    theta = ritz_values(state, 1)
    assert theta.shape == (1,)
    assert theta[0] == pytest.approx(
        math.hypot(state.alphas[0], state.betas[1]), rel=1e-14
    )


def test_ritz_full_factorization_recovers_spectrum():
    prob = make_prescribed(12, poly(0.6, beta=0.0), seed=4)
    inst = noiseless_instance(prob)
    state, err = bidiag_run(prob.A, inst.b, norm_A=float(prob.svd.sigma[0]))
    assert err is None
    np.testing.assert_allclose(
        ritz_values(state, 12), prob.svd.sigma, atol=1e-9 * prob.svd.sigma[0]
    )


def test_natural_order_check_cases():
    sigma = np.array([4.0, 2.0, 1.0])
    assert natural_order_check([3.0], sigma)
    assert not natural_order_check([5.0], sigma)
    assert not natural_order_check([1.5], sigma)
    # A converged Ritz value ties its singular value within the slack.
    assert natural_order_check([4.0 - 1e-15], sigma)
    assert not natural_order_check([4.0 + 1e-6], sigma, tol=0.0)
    with pytest.raises(ValueError, match="need sigma"):
        natural_order_check([3.0, 1.5, 0.5], sigma)


def test_interlace_is_weaker_than_natural_order():
    sigma = np.array([8.0, 4.0, 2.0, 1.0])
    theta = [6.0, 1.5]
    assert not natural_order_check(theta, sigma)
    assert cauchy_interlace_check(theta, sigma)
    assert natural_order_check([6.0, 3.0], sigma)
    assert cauchy_interlace_check([6.0, 3.0], sigma)
    with pytest.raises(ValueError, match="more Ritz"):
        cauchy_interlace_check([1.0] * 5, sigma)


def test_mirsky_gap_check_cases():
    sigma = np.array([4.0, 2.0, 1.0])
    assert mirsky_gap_check([3.5, 1.8], sigma, gamma=0.6)
    assert not mirsky_gap_check([3.5, 1.8], sigma, gamma=0.4)
    assert not mirsky_gap_check([4.2, 1.8], sigma, gamma=1.0)
    assert mirsky_gap_check([4.0, 2.0 - 1e-14], sigma, gamma=0.1)
    with pytest.raises(ValueError, match="at least k"):
        mirsky_gap_check([1.0] * 4, sigma, gamma=1.0)


# Subspace distance -----------------------------------------------------------
def test_delta_two_by_two_oracle():
    # A = diag(1, 1/2), b = (1, 1/2): the Krylov vector is (4, 1)/sqrt(17),
    # so sin(theta) = 1/sqrt(17) against e_1 and the tangent is exactly 1/4.
    A = np.diag([1.0, 0.5])
    b = np.array([1.0, 0.5])
    fact = svd(A)
    state, err = bidiag_run(A, b, steps=1)
    assert err is None
    Q = state.Q_k(1)
    np.testing.assert_allclose(np.abs(Q[:, 0]), np.array([4.0, 1.0]) / math.sqrt(17.0))
    VQ = fact.V.T @ Q
    sin_theta, dn = delta_norm_via_angles(fact.V, Q, VQ)
    assert sin_theta == pytest.approx(1.0 / math.sqrt(17.0), rel=1e-12)
    assert dn == pytest.approx(0.25, rel=1e-12)
    np.testing.assert_allclose(delta_matrix_via_projection(VQ, 1), [[0.25]], atol=1e-14)
    np.testing.assert_allclose(delta_direct(fact, b, 1), [[0.25]], rtol=1e-14)
    direct = spectral_norm(delta_direct(fact, b, 1) * fact.sigma[:1])
    assert direct == pytest.approx(0.25, rel=1e-13)
    assert sigma_delta_norm(VQ, fact.sigma, 1) == pytest.approx(0.25, rel=1e-12)


def test_delta_direct_first_column():
    # Column 1 of the defining formula is (sigma_i u_i'b)/(sigma_1 u_1'b).
    fact = svd(np.diag([4.0, 2.0, 1.0]))
    b = np.array([8.0, 2.0, 1.0])
    np.testing.assert_allclose(
        delta_direct(fact, b, 1), [[4.0 / 32.0], [1.0 / 32.0]], rtol=1e-14
    )


def test_delta_routes_agree(severe4_small_rig):
    prob, inst, state = severe4_small_rig
    fact = prob.svd
    for k in range(1, 4):
        VQ = fact.V.T @ state.Q_k(k)
        direct = delta_direct(fact, inst.b, k)
        proj = delta_matrix_via_projection(VQ, k)
        np.testing.assert_allclose(direct, proj, atol=1e-12)
        sd_direct = spectral_norm(direct * fact.sigma[:k])
        sd_proj = sigma_delta_norm(VQ, fact.sigma, k)
        assert sd_direct == pytest.approx(sd_proj, rel=1e-10)


def test_delta_amplification(severe4_small_rig):
    # Entrywise, the distance matrix never exceeds the rank-one coefficient
    # matrix scaled by the worst Lagrange factor.
    prob, inst, state = severe4_small_rig
    rigs = [(prob.svd, inst.b, state, 4)]
    prob2 = make_picard_synthetic(8, poly(2.0), seed=1)
    inst2 = noiseless_instance(prob2)
    state2, err2 = bidiag_run(prob2.A, inst2.b, norm_A=float(prob2.svd.sigma[0]))
    assert err2 is None
    rigs.append((prob2.svd, inst2.b, state2, 4))
    for fact, b, st, kmax in rigs:
        d = fact.sigma * fact.coefficients(b)
        for k in range(1, kmax + 1):
            delta = np.abs(delta_matrix_via_projection(fact.V.T @ st.Q_k(k), k))
            rank_one = np.abs(np.outer(d[k:], 1.0 / d[:k]))
            lag_max = lagrange_factor(fact.sigma, k)[1]
            assert np.all(delta <= lag_max * rank_one + 1e-12)


def test_delta_direct_refuses_ill_conditioned(severe4_small_rig):
    prob, inst, _ = severe4_small_rig
    with pytest.raises(IllConditionedError, match="cond"):
        delta_direct(prob.svd, inst.b, 5)


def test_delta_direct_zero_coefficient():
    fact = svd(np.diag([4.0, 2.0, 1.0]))
    with pytest.raises(ValueError, match="vanishes at j=1"):
        delta_direct(fact, np.array([0.0, 1.0, 1.0]), 1)
    fact2 = svd(np.diag([2.0, 1.0]))
    with pytest.raises(ValueError, match="outside"):
        delta_direct(fact2, np.array([1.0, 1.0]), 2)


def test_delta_saturated_angle_reports_infinity():
    # A Krylov basis orthogonal to V_1 puts the angle at 90 degrees: the
    # sine saturates, the tangent is infinite, and xi falls back to sqrt(5)/2.
    V = np.eye(3)
    Q = V[:, 2:]
    VQ = V.T @ Q
    sin_theta, dn = delta_norm_via_angles(V, Q, VQ)
    assert sin_theta == 1.0
    assert math.isinf(dn)
    assert delta_matrix_via_projection(VQ, 1) is None
    assert math.isinf(sigma_delta_norm(VQ, np.array([3.0, 2.0, 1.0]), 1))
    assert xi_factor(dn) == pytest.approx(math.sqrt(5.0) / 2.0, rel=1e-15)


def test_xi_factor_formula_and_continuity():
    assert xi_factor(0.0) == 1.0
    assert xi_factor(0.5) == pytest.approx(math.sqrt((0.5 / 1.25) ** 2 + 1.0), rel=1e-15)
    # Below 1 the formula applies and meets the sqrt(5)/2 branch continuously.
    assert xi_factor(1.0 - 1e-12) == pytest.approx(math.sqrt(5.0) / 2.0, abs=1e-9)
    for d in (1.0, 2.0, math.inf):
        assert xi_factor(d) == math.sqrt(5.0) / 2.0


def test_sigma_delta_sandwich(severe4_small_rig):
    # sigma_k ||Delta|| <= ||Delta Sigma_k|| <= sigma_1 ||Delta||.
    prob, _, state = severe4_small_rig
    s = prob.svd.sigma
    for k in range(1, 4):
        VQ = prob.svd.V.T @ state.Q_k(k)
        nd = spectral_norm(delta_matrix_via_projection(VQ, k))
        sd = sigma_delta_norm(VQ, s, k)
        assert s[k - 1] * nd - 1e-12 <= sd <= s[0] * nd + 1e-12
    VQ = prob.svd.V.T @ state.Q_k(1)
    k1 = sigma_delta_norm(VQ, s, 1)
    d1 = spectral_norm(delta_matrix_via_projection(VQ, 1))
    assert k1 == pytest.approx(s[0] * d1, rel=1e-13)


# Interpolation factors -------------------------------------------------------
def test_lagrange_factor_known_values():
    factors, mx = lagrange_factor(np.array([3.0, 1.0]), 1)
    np.testing.assert_allclose(factors, [1.0])
    assert mx == 1.0
    factors, mx = lagrange_factor(np.array([2.0, 1.0]), 2)
    np.testing.assert_allclose(factors, [1.0 / 3.0, 4.0 / 3.0], rtol=1e-15)
    assert mx == pytest.approx(4.0 / 3.0, rel=1e-15)


def test_lagrange_factor_blows_up_on_mild_decay():
    sigma = poly(0.6).sigma(8)
    _, mx = lagrange_factor(sigma, 8)
    assert mx > 10.0


def test_lagrange_factor_rejects_ties_and_bad_k():
    with pytest.raises(ValueError, match="coincide"):
        lagrange_factor(np.array([1.0, 1.0, 0.5]), 2)
    with pytest.raises(ValueError, match="outside"):
        lagrange_factor(np.array([2.0, 1.0]), 3)


# Predicates and bounds -------------------------------------------------------
def test_near_best_predicate_endpoints():
    assert near_best_predicate(1.0, 2.0, 1.0)
    assert not near_best_predicate(1.5, 2.0, 1.0)  # strict at the midpoint
    assert near_best_predicate(1.5 - 1e-9, 2.0, 1.0)
    assert not near_best_predicate(0.9, 2.0, 1.0)
    assert near_best_predicate(1.5, 2.0, 1.0, tol=1e-6)


def test_bound_report_severe_identities(severe3_rig):
    prob, inst, pic, state = severe3_rig
    s = prob.svd.sigma
    k0 = pic.k0
    assert k0 >= 4
    for k in list(range(1, k0 + 1)) + [k0 + 2]:
        rep = bound_report(prob.svd, pic, prob.spectrum, 0.3, k, lagrange_max(s, k))
        assert rep.regime == "severe"
        assert rep.k0_used == k0
        assert rep.xi_k == xi_factor(0.3)
        ratio = float(np.max(pic.coef[k:]) / np.min(pic.coef[:k]))
        assert rep.ratio_realized == pytest.approx(ratio, rel=1e-15)
        if k <= k0:
            assert rep.ratio_asymptotic == pytest.approx(
                (s[k] / s[k - 1]) ** 1.5, rel=1e-12
            )
            crowd = 1.0
        else:
            assert rep.ratio_asymptotic == 1.0
            crowd = math.sqrt(k - k0 + 1.0)
        assert rep.delta_bound == pytest.approx(
            (s[k] / s[k - 1]) * ratio, rel=1e-13
        )
        assert rep.sigma_delta_bound == pytest.approx(s[k] * ratio * crowd, rel=1e-13)
        assert rep.eta_k == pytest.approx(rep.xi_k * ratio * crowd, rel=1e-13)
        assert rep.epsilon_k_bound == pytest.approx(rep.eta_k * s[k], rel=1e-13)
        assert rep.natural_order_condition  # rho = 3 >= 1 + sqrt(2)


def test_bound_report_severe_realized_audit(severe3_rig):
    # Realized distances against the a-priori bounds, within the factor-2
    # window that absorbs the unbounded part of the severe-decay constants.
    prob, _, pic, state = severe3_rig
    s = prob.svd.sigma
    gks = gamma_via_Gk(state, pic.k0)
    for k in range(1, pic.k0 + 1):
        VQ = prob.svd.V.T @ state.Q_k(k)
        _, dn = delta_norm_via_angles(prob.svd.V, state.Q_k(k), VQ)
        rep = bound_report(prob.svd, pic, prob.spectrum, dn, k, lagrange_max(s, k))
        assert dn <= 2.0 * rep.delta_bound
        sd = sigma_delta_norm(VQ, s, k)
        assert sd <= 2.0 * rep.sigma_delta_bound
        gk = gks[k - 1]
        assert gk <= 2.0 * math.sqrt(1.0 + rep.eta_k**2) * s[k]
        assert rep.near_best_condition
        assert near_best_predicate(gk, s[k - 1], s[k], tol=1e-12 * s[0])
        assert natural_order_check(ritz_values(state, k), s)


def test_bound_report_severe_natural_order_threshold(severe3_rig):
    # The sufficient condition for natural ordering is exactly
    # rho >= 1 + sqrt(2); the report only consults the model for this flag.
    prob, _, pic, _ = severe3_rig
    lag = lagrange_max(prob.svd.sigma, 2)
    at = bound_report(prob.svd, pic, severe(1.0 + math.sqrt(2.0)), 0.3, 2, lag)
    below = bound_report(prob.svd, pic, severe(2.0), 0.3, 2, lag)
    assert at.natural_order_condition
    assert not below.natural_order_condition


def test_bound_report_moderate_identities(moderate_rig):
    prob, inst, pic, state = moderate_rig
    s = prob.svd.sigma
    k0 = pic.k0
    alpha = prob.spectrum.alpha
    for k in [1, 2, 3, k0, k0 + 1, k0 + 3]:
        rep = bound_report(prob.svd, pic, prob.spectrum, 0.3, k, lagrange_max(s, k))
        assert rep.regime == "moderate_or_mild"
        ratio = float(np.max(pic.coef[k:]) / np.min(pic.coef[:k]))
        assert rep.ratio_realized == pytest.approx(ratio, rel=1e-15)
        lag = 1.0 if k == 1 else lagrange_factor(s, k)[1]
        if k == 1:
            plain = math.sqrt(1.0 / (2.0 * alpha - 1.0))
            split = plain
        else:
            plain = math.sqrt(k**2 / (4.0 * alpha**2 - 1.0) + k / (2.0 * alpha - 1.0))
            if k <= k0:
                split = plain
            else:
                split = math.sqrt(
                    k * k0 / (4.0 * alpha**2 - 1.0)
                    + k * (k - k0 + 1.0) / (2.0 * alpha - 1.0)
                )
        assert rep.delta_bound == pytest.approx(ratio * plain * lag, rel=1e-12)
        assert rep.sigma_delta_bound == pytest.approx(
            s[k - 1] * ratio * split * lag, rel=1e-12
        )
        assert rep.eta_k == pytest.approx(
            rep.xi_k * (s[k - 1] / s[k]) * ratio * split * lag, rel=1e-12
        )
        assert rep.epsilon_k_bound == pytest.approx(rep.eta_k * s[k], rel=1e-12)
        assert rep.near_best_condition == (
            math.sqrt(1.0 + rep.eta_k**2) < 0.5 * (s[k - 1] / s[k]) + 0.5
        )
        assert rep.natural_order_condition == (
            1.0 + math.sqrt(1.0 + rep.eta_k**2) < ((k + 1.0) / k) ** alpha
        )


def test_bound_report_moderate_realized_audit(moderate_rig):
    prob, _, pic, state = moderate_rig
    s = prob.svd.sigma
    for k in range(1, 9):
        VQ = prob.svd.V.T @ state.Q_k(k)
        _, dn = delta_norm_via_angles(prob.svd.V, state.Q_k(k), VQ)
        if not math.isfinite(dn):
            continue
        rep = bound_report(prob.svd, pic, prob.spectrum, dn, k, lagrange_max(s, k))
        assert dn <= 2.0 * rep.delta_bound
        sd = sigma_delta_norm(VQ, s, k)
        assert sd <= 2.0 * rep.sigma_delta_bound


def test_bound_report_mild_has_no_natural_order_guarantee():
    prob = make_picard_synthetic(32, poly(0.6), seed=0)
    inst = add_noise(prob, 1e-3, 0)
    pic = picard_diagnostic(inst)
    for k in range(1, 5):
        rep = bound_report(prob.svd, pic, prob.spectrum, 0.3, k, lagrange_max(prob.svd.sigma, k))
        assert not rep.natural_order_condition


def test_bound_report_rejects_bad_inputs(severe3_rig):
    prob, _, pic, _ = severe3_rig
    lag = lagrange_max(prob.svd.sigma, 2)
    with pytest.raises(ValueError, match="decay model"):
        bound_report(prob.svd, pic, SpectrumModel(kind="empirical"), 0.3, 2, lag)
    with pytest.raises(ValueError, match="transition index"):
        bound_report(prob.svd, dataclasses.replace(pic, k0=0), prob.spectrum, 0.3, 2, lag)
    coef = pic.coef.copy()
    coef[0] = 0.0
    with pytest.raises(ValueError, match="vanishes at j=1"):
        bound_report(prob.svd, dataclasses.replace(pic, coef=coef), prob.spectrum, 0.3, 2, lag)
    with pytest.raises(ValueError, match="outside"):
        bound_report(prob.svd, pic, prob.spectrum, 0.3, 0, 1.0)
    with pytest.raises(ValueError, match="outside"):
        bound_report(prob.svd, pic, prob.spectrum, 0.3, prob.n, math.nan)


def test_bound_report_takes_the_callers_lagrange_factor(moderate_rig, severe3_rig, monkeypatch):
    # The polynomial bounds are linear in the factor the caller hands in; a
    # nan factor (tied values) is refused there and ignored by severe decay.
    prob, _, pic, _ = moderate_rig
    lags = {k: lagrange_factor(prob.svd.sigma, k)[1] for k in range(1, 12)}

    def recomputed(*args):
        raise AssertionError("lagrange_factor recomputed")

    monkeypatch.setattr(analysis, "lagrange_factor", recomputed)
    for k, lag in lags.items():
        rep = bound_report(prob.svd, pic, prob.spectrum, 0.3, k, lag)
        doubled = bound_report(prob.svd, pic, prob.spectrum, 0.3, k, 2.0 * lag)
        assert doubled.delta_bound == 2.0 * rep.delta_bound
        assert doubled.sigma_delta_bound == 2.0 * rep.sigma_delta_bound
    with pytest.raises(ValueError, match="tied singular values"):
        bound_report(prob.svd, pic, prob.spectrum, 0.3, 2, math.nan)
    prob, _, pic, _ = severe3_rig
    rep = bound_report(prob.svd, pic, prob.spectrum, 0.3, 2, 1.0)
    assert repr(bound_report(prob.svd, pic, prob.spectrum, 0.3, 2, math.nan)) == repr(rep)


def test_analysis_reports_match_bound_report_on_tied_sigma():
    # sigma_3 = sigma_4: the Lagrange factor is undefined from k = 4 on, so
    # the moderate-decay reports there are None, and the record says nan.
    n, spec = 24, poly(2.0)
    sig = spec.sigma(n)
    sig[3] = sig[2]
    rng = np.random.default_rng(0)
    U = _random_orthogonal(rng, n, n)
    V = _random_orthogonal(rng, n, n)
    prob = _finalize("tied", (U * sig) @ V.T, np.ones(n), spec)
    inst = add_noise(prob, 1e-3, 0)
    pic = picard_diagnostic(inst)
    state, _ = bidiag_run(prob.A, inst.b, norm_A=float(prob.svd.sigma[0]))
    records, reports, model, _ = experiment._analysis_records(prob, pic, state, 10)
    assert [r is None for r in reports] == [False] * 3 + [True] * 7
    for rec, rep in zip(records, reports):
        try:
            lag = lagrange_max(prob.svd.sigma, rec.k)
            expected = bound_report(prob.svd, pic, model, rec.delta_norm, rec.k, lag)
        except ValueError:
            expected = None
        assert repr(rep) == repr(expected)
        assert math.isnan(rec.lagrange_max) == (rep is None)


# Decay of the recurrence coefficients ----------------------------------------
def test_decay_diagnostic_rows():
    prob = make_picard_synthetic(12, severe(2.0), seed=5)
    inst = add_noise(prob, 1e-3, 5)
    state, err = bidiag_run(prob.A, inst.b, norm_A=float(prob.svd.sigma[0]))
    assert err is None
    rows = decay_diagnostic(state)
    assert [r[0] for r in rows] == list(range(1, 12))
    gks = gamma_via_Gk(state, 11)
    for k, coeff_sum in rows:
        assert coeff_sum == state.alphas[k] + state.betas[k + 1]
        gk = gks[k - 1]
        # The pair forms the first column of the trailing block, so the sum
        # can exceed its norm by at most sqrt(2).
        assert math.hypot(state.alphas[k], state.betas[k + 1]) <= gk * (1 + 1e-12)
        assert coeff_sum <= math.sqrt(2.0) * gk * (1 + 1e-12)
    # At k = n-1 the block is the single column itself.
    k, coeff_sum = rows[-1]
    assert 1.0 - 1e-12 <= coeff_sum / gks[k - 1] <= math.sqrt(2.0) + 1e-12
    assert len(decay_diagnostic(state, kmax=5)) == 5


def test_decay_diagnostic_on_running_state():
    prob = make_picard_synthetic(12, severe(2.0), seed=5)
    state, _ = bidiag_run(prob.A, prob.b_true, steps=4)
    rows = decay_diagnostic(state)
    assert len(rows) == 3


# CSV export ------------------------------------------------------------------
def _record(k):
    return AnalysisRecord(
        k=k,
        gamma=0.5,
        gamma_Gk=0.5,
        sigma_k1=0.4,
        ritz=np.array([1.5, 0.7][:k]),
        delta_norm=0.1,
        sin_theta=0.0995,
        sigma_delta=0.2,
        lagrange_max=1.0,
        near_best=True,
        natural_order=False,
        alpha_beta_sum=0.9,
    )


def _report(k):
    return BoundReport(
        k=k,
        regime="severe",
        k0_used=4,
        ratio_realized=0.2,
        ratio_asymptotic=0.19,
        xi_k=1.01,
        eta_k=0.21,
        eta_k_asymptotic=0.2,
        epsilon_k_bound=0.08,
        delta_bound=0.07,
        delta_bound_asymptotic=0.066,
        sigma_delta_bound=0.08,
        sigma_delta_bound_asymptotic=0.076,
        near_best_condition=True,
        natural_order_condition=True,
    )


def test_write_analysis_csv_round_trip(tmp_path):
    path = tmp_path / "analysis.csv"
    write_analysis_csv([_record(1), _record(2)], [None, _report(2)], path)
    kind, cols = read_csv(path)
    assert kind == "analysis"
    assert list(cols) == ANALYSIS_COLUMNS
    assert len(cols) == 25
    assert all(len(col) == 2 for col in cols.values())
    # Missing report: placeholder regime, sentinel k0, nan bounds and flags.
    assert cols["regime"][0] == "none"
    assert cols["k0_used"][0] == "-1"
    assert cols["ratio_realized"][0] == "nan"
    assert cols["near_best_condition"][0] == "nan"
    assert cols["natural_order_condition"][0] == "nan"
    # Present report: values round-trip, booleans become flags.
    assert cols["k"][1] == "2"
    assert float(cols["gamma"][1]) == 0.5
    assert cols["near_best"][1] == "1" and cols["natural_order"][1] == "0"
    assert cols["regime"][1] == "severe"
    assert float(cols["delta_bound"][1]) == 0.07
    assert cols["near_best_condition"][1] == "1"
    assert cols["natural_order_condition"][1] == "1"


def test_write_ritz_csv_long_format(tmp_path):
    recs = [_record(1), _record(2)]
    path = tmp_path / "ritz.csv"
    write_ritz_csv(recs, path)
    kind, cols = read_csv(path)
    assert kind == "ritz"
    assert list(cols) == ["k", "i", "theta"]
    assert list(zip(cols["k"], cols["i"])) == [("1", "1"), ("2", "1"), ("2", "2")]
    assert float(cols["theta"][0]) == 1.5
