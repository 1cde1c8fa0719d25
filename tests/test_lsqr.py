"""Unit tests for the projected iterative method.

The sweep only reports errors and residuals, so each test writes its iterate
out by another route: a closed form, an Arnoldi basis of the Krylov space,
a dense solve, or ``Q_k @ lstsq(B_k, beta_1 e_1)`` on the same factorization.
"""

import math

import numpy as np
import pytest

from conftest import poly, severe

from illposed.bidiag import bidiag_run
from illposed.csvio import read_csv
from illposed.experiment import write_lsqr_csv
from illposed.gallery import (
    IllPosedProblem,
    make_deriv2,
    make_gravity,
    make_heat,
    make_picard_synthetic,
    make_prescribed,
)
from illposed.linalg import svd
from illposed.sweeps import lsqr_sweep
from illposed.noise import NoisyInstance, add_noise, noiseless_instance


def _lstsq_oracle(inst, state, K):
    """Relative errors, residuals and numerical ranks of the projected
    solutions Q_k @ lstsq(B_k, beta_1 e_1) for k = 1..K, each solved afresh."""
    prob = inst.problem
    nx = np.linalg.norm(prob.x_true)
    rows = []
    for k in range(1, K + 1):
        B = state.B(k)
        rhs = np.zeros(B.shape[0])
        rhs[0] = state.betas[0]
        y, _, rank, _ = np.linalg.lstsq(B, rhs, rcond=None)
        x = state.Q_k(k) @ y
        rows.append((np.linalg.norm(x - prob.x_true) / nx, np.linalg.norm(prob.A @ x - inst.b), rank))
    return tuple(np.array(col) for col in zip(*rows))


def _diag_instance():
    """A = diag(2, 1) and x_true = (1, 1), so b = (2, 1), without noise."""
    A = np.diag([2.0, 1.0])
    x_true = np.array([1.0, 1.0])
    return noiseless_instance(IllPosedProblem("diag", A, x_true, A @ x_true, None, svd(A)))


def test_first_iterate_closed_form():
    # The k=1 iterate is the best multiple of A'b: x_1 = t A'b with
    # t = (A A'b)' b / ||A A'b||^2.  For A = diag(2, 1), b = (2, 1) that
    # gives t = 17/65 and x_1 = (68/65, 17/65), so x_1 - x_true =
    # (3, -48)/65 and A x_1 - b = (6, -48)/65.
    inst = _diag_instance()
    state = bidiag_run(inst.problem.A, inst.b)
    assert state.breakdown is None
    trace = lsqr_sweep(inst, state, 1)
    assert trace.rel_errors[0] == pytest.approx(math.sqrt(2313.0) / 65.0 / math.sqrt(2.0), rel=1e-14)
    assert trace.residuals[0] == pytest.approx(math.sqrt(2340.0) / 65.0, rel=1e-14)


def test_iterate_matches_explicit_krylov_basis():
    # x_k must equal the least-squares minimizer over the Krylov space
    # span{A'b, (A'A) A'b, ...}.  The reference basis comes from a plain
    # Arnoldi process on A'A (double Gram-Schmidt), built independently
    # of the bidiagonalization.
    prob = make_picard_synthetic(64, severe(2.0), seed=3)
    inst = add_noise(prob, 1e-3, 3)
    state = bidiag_run(prob.A, inst.b, steps=10)
    assert state.breakdown is None
    M = prob.A.T @ prob.A
    q = prob.A.T @ inst.b
    basis = [q / np.linalg.norm(q)]
    for _ in range(9):
        z = M @ basis[-1]
        for _pass in range(2):
            for qj in basis:
                z = z - (qj @ z) * qj
        basis.append(z / np.linalg.norm(z))
    trace = lsqr_sweep(inst, state, 10)
    nx = np.linalg.norm(prob.x_true)
    for k in range(1, 11):
        W = np.column_stack(basis[:k])
        x_ref = W @ np.linalg.lstsq(prob.A @ W, inst.b, rcond=None)[0]
        assert trace.rel_errors[k - 1] == pytest.approx(np.linalg.norm(x_ref - prob.x_true) / nx, rel=1e-8)
        assert trace.residuals[k - 1] == pytest.approx(np.linalg.norm(prob.A @ x_ref - inst.b), rel=1e-8)


def _sweep(inst, kmax):
    """The sweep over a fresh factorization of the instance's (A, b)."""
    prob = inst.problem
    state = bidiag_run(prob.A, inst.b, norm_A=float(prob.svd.sigma[0]))
    return lsqr_sweep(inst, state, kmax)


def test_sweep_refuses_a_state_without_a_step():
    # A factorization stopped before its first step has no B_1 (kmax < 1 is
    # refused in test_sweep_respects_kmax).  Stopped by steps=0, it has no
    # breakdown to name.
    inst = _diag_instance()
    state = bidiag_run(inst.problem.A, inst.b, steps=0)
    assert state.max_k == 0 and state.breakdown is None
    with pytest.raises(ValueError, match="the recurrence stopped before its first step"):
        lsqr_sweep(inst, state, 1)


def test_sweep_names_the_breakdown_before_the_first_step():
    # A' b = 0: the state records alpha_1, and the sweep names it.
    inst = _diag_instance()
    state = bidiag_run(np.zeros_like(inst.problem.A), inst.b, norm_A=1.0)
    assert state.breakdown == "alpha_1"
    with pytest.raises(ValueError, match="alpha_1 before its first step"):
        lsqr_sweep(inst, state, 1)


def test_sweep_residuals_strictly_decrease():
    prob = make_picard_synthetic(32, severe(2.0), seed=4)
    inst = add_noise(prob, 1e-3, 4)
    trace = _sweep(inst, 20)
    assert np.all(np.diff(trace.residuals) < 1e-12)


def test_sweep_noiseless_converges_without_semi_convergence():
    # Mildly decaying spectrum, clean data: the full sweep reaches the
    # true solution and the error never turns upward.
    prob = make_prescribed(24, poly(0.6, beta=0.0), seed=5)
    inst = noiseless_instance(prob)
    state = bidiag_run(prob.A, inst.b, norm_A=float(prob.svd.sigma[0]))
    trace = lsqr_sweep(inst, state, 24)
    assert trace.rel_errors[-1] < 1e-8
    assert not trace.semi_convergent
    # The last iterate is the dense solution of the square system.
    x_dense = np.linalg.solve(prob.A, inst.b)
    dense_error = np.linalg.norm(x_dense - prob.x_true) / np.linalg.norm(prob.x_true)
    assert abs(trace.rel_errors[-1] - dense_error) < 1e-8
    assert trace.residuals[-1] < 1e-8 * np.linalg.norm(inst.b)


def test_sweep_noisy_is_semi_convergent():
    prob = make_picard_synthetic(32, severe(2.0, beta=0.0), seed=0)
    inst = add_noise(prob, 1e-3, 0)
    trace = _sweep(inst, 25)
    assert trace.semi_convergent
    assert 1 < trace.best_k < 25
    assert trace.rel_errors[trace.best_k - 1] == np.min(trace.rel_errors)
    # Errors fall to kstar, then end above the minimum.
    assert trace.rel_errors[-1] > trace.rel_errors[trace.best_k - 1]


def test_sweep_reuses_supplied_state():
    # A partial factorization is swept as it is: its 12 steps bound the
    # trace, and every row is the iterate of that state.
    prob = make_picard_synthetic(24, severe(2.0), seed=6)
    inst = add_noise(prob, 1e-3, 6)
    state = bidiag_run(prob.A, inst.b, steps=12, norm_A=float(prob.svd.sigma[0]))
    trace = lsqr_sweep(inst, state, 20)
    assert list(trace.ks) == list(range(1, 13))
    errors, residuals, _ = _lstsq_oracle(inst, state, 12)
    np.testing.assert_allclose(trace.rel_errors, errors, rtol=1e-10)
    np.testing.assert_allclose(trace.residuals, residuals, rtol=1e-10)


@pytest.mark.parametrize("make", [make_deriv2, make_gravity, make_picard_synthetic])
def test_sweep_without_reorthogonalization_is_the_projected_minimizer(make):
    # Without reorthogonalization Q_k loses orthogonality within a few
    # steps; the recurrence never assumes it, so each row is still the
    # iterate Q_k B_k^+ beta_1 e_1 of the computed factorization.
    prob = make(64, severe(2.0), seed=3) if make is make_picard_synthetic else make(64)
    inst = add_noise(prob, 1e-3, 3)
    state = bidiag_run(prob.A, inst.b, steps=40, reorth=False, norm_A=float(prob.svd.sigma[0]))
    Q = state.Q_k(40)
    assert np.linalg.norm(Q.T @ Q - np.eye(40), 2) > 1.0
    trace = lsqr_sweep(inst, state, 40)
    errors, residuals, rank = _lstsq_oracle(inst, state, 40)
    assert np.all(rank == trace.ks)
    np.testing.assert_allclose(trace.rel_errors, errors, rtol=1e-10)
    np.testing.assert_allclose(trace.residuals, residuals, rtol=1e-10)


@pytest.mark.parametrize("seed", [0, 1])
def test_sweep_to_full_depth_past_the_numerical_rank(seed):
    # heat-256 at kmax = n: B_k loses numerical rank near k = 249, where
    # lstsq would truncate its tiny singular values.  The recurrence keeps
    # inverting them, as the Krylov minimizer does; every row stays finite
    # and, wherever lstsq keeps full rank, equals its projected solution.
    prob = make_heat(256)
    inst = add_noise(prob, 1e-3, seed)
    state = bidiag_run(prob.A, inst.b, norm_A=float(prob.svd.sigma[0]))
    trace = lsqr_sweep(inst, state, 256)
    assert np.all(np.isfinite(trace.rel_errors)) and np.all(np.isfinite(trace.residuals))
    assert trace.best_k == 19
    errors, residuals, rank = _lstsq_oracle(inst, state, trace.ks.size)
    full = rank == trace.ks
    assert 0 < np.count_nonzero(~full) < 10
    np.testing.assert_allclose(trace.rel_errors[full], errors[full], rtol=1e-9)
    np.testing.assert_allclose(
        trace.residuals[full], residuals[full], rtol=0.0, atol=1e-12 * np.linalg.norm(inst.b)
    )


def test_sweep_respects_kmax():
    prob = make_picard_synthetic(16, severe(2.0), seed=7)
    inst = add_noise(prob, 1e-2, 7)
    state = bidiag_run(prob.A, inst.b, norm_A=float(prob.svd.sigma[0]))
    trace = lsqr_sweep(inst, state, 5)
    assert list(trace.ks) == [1, 2, 3, 4, 5]
    with pytest.raises(ValueError, match="kmax"):
        lsqr_sweep(inst, state, 0)


def test_sweep_records_breakdown():
    # b spanning two singular directions exhausts the Krylov space after
    # one step; the state names the vanished entry and the sweep truncates.
    prob = make_prescribed(6, severe(2.0), seed=9)
    U = prob.svd.U
    b = U[:, 0] + U[:, 1]
    inst = NoisyInstance(
        problem=prob, epsilon=0.0, seed=None, e=np.zeros(6), b=b, eta=0.0
    )
    state = bidiag_run(prob.A, b, steps=6, norm_A=float(prob.svd.sigma[0]))
    assert state.breakdown == "beta_3"
    trace = lsqr_sweep(inst, state, 6)
    assert list(trace.ks) == [1]


def test_write_lsqr_csv(tmp_path):
    prob = make_picard_synthetic(16, severe(2.0), seed=0)
    inst = add_noise(prob, 1e-3, 0)
    trace = _sweep(inst, 10)
    path = tmp_path / "lsqr.csv"
    write_lsqr_csv(trace, path)
    kind, cols = read_csv(path)
    assert kind == "lsqr"
    assert list(cols) == ["k", "rel_error", "residual", "is_kstar"]
    assert cols["k"] == [str(k) for k in range(1, 11)]
    flags = cols["is_kstar"]
    assert flags.count("1") == 1 and flags.count("0") == 9
    assert int(cols["k"][flags.index("1")]) == trace.best_k
    assert [float(v) for v in cols["residual"]] == trace.residuals.tolist()
