"""Unit tests for the projected iterative method."""

import numpy as np
import pytest

from conftest import poly, severe

from illposed.bidiag import bidiag_run
from illposed.csvio import read_csv
from illposed.experiment import write_lsqr_csv
from illposed.gallery import make_picard_synthetic, make_prescribed
from illposed.lsqr import lsqr_iterate, lsqr_sweep
from illposed.noise import NoisyInstance, add_noise, noiseless_instance


def test_first_iterate_closed_form():
    # The k=1 iterate is the best multiple of A'b: x_1 = t A'b with
    # t = (A A'b)' b / ||A A'b||^2.  For A = diag(2, 1), b = (2, 1) that
    # gives t = 17/65 and x_1 = (68/65, 17/65).
    A = np.diag([2.0, 1.0])
    b = np.array([2.0, 1.0])
    state, err = bidiag_run(A, b)
    assert err is None
    x1 = lsqr_iterate(state, 1)
    np.testing.assert_allclose(x1, [68.0 / 65.0, 17.0 / 65.0], rtol=1e-14)


def test_iterate_matches_explicit_krylov_basis():
    # x_k must equal the least-squares minimizer over the Krylov space
    # span{A'b, (A'A) A'b, ...}.  The reference basis comes from a plain
    # Arnoldi process on A'A (double Gram-Schmidt), built independently
    # of the bidiagonalization.
    prob = make_picard_synthetic(64, severe(2.0), seed=3)
    inst = add_noise(prob, 1e-3, 3)
    state, err = bidiag_run(prob.A, inst.b, steps=10)
    assert err is None
    M = prob.A.T @ prob.A
    q = prob.A.T @ inst.b
    basis = [q / np.linalg.norm(q)]
    for _ in range(9):
        z = M @ basis[-1]
        for _pass in range(2):
            for qj in basis:
                z = z - (qj @ z) * qj
        basis.append(z / np.linalg.norm(z))
    for k in range(1, 11):
        W = np.column_stack(basis[:k])
        x_ref = W @ np.linalg.lstsq(prob.A @ W, inst.b, rcond=None)[0]
        np.testing.assert_allclose(lsqr_iterate(state, k), x_ref, atol=1e-8)


def _sweep(inst, kmax):
    """The sweep over a fresh factorization of the instance's (A, b)."""
    prob = inst.problem
    state, _ = bidiag_run(prob.A, inst.b, norm_A=float(prob.svd.sigma[0]))
    return lsqr_sweep(inst, state, kmax)


def test_iterate_validates_k():
    A = np.diag([2.0, 1.0])
    state, _ = bidiag_run(A, np.array([2.0, 1.0]))
    with pytest.raises(ValueError, match="outside"):
        lsqr_iterate(state, 0)
    with pytest.raises(ValueError, match="outside"):
        lsqr_iterate(state, state.max_k + 1)


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
    state, _ = bidiag_run(prob.A, inst.b, norm_A=float(prob.svd.sigma[0]))
    trace = lsqr_sweep(inst, state, 24)
    assert trace.rel_errors[-1] < 1e-8
    assert not trace.semi_convergent
    x_full = lsqr_iterate(state, 24)
    np.testing.assert_allclose(
        x_full, np.linalg.solve(prob.A, inst.b), atol=1e-8
    )


def test_sweep_noisy_is_semi_convergent():
    prob = make_picard_synthetic(32, severe(2.0, beta=0.0), seed=0)
    inst = add_noise(prob, 1e-3, 0)
    trace = _sweep(inst, 25)
    assert trace.semi_convergent
    assert 1 < trace.kstar < 25
    assert trace.rel_errors[trace.kstar - 1] == np.min(trace.rel_errors)
    # Errors fall to kstar, then end above the minimum.
    assert trace.rel_errors[-1] > trace.rel_errors[trace.kstar - 1]


def test_sweep_reuses_supplied_state():
    # A partial factorization is swept as it is: its 12 steps bound the
    # trace, and every row is the iterate of that state.
    prob = make_picard_synthetic(24, severe(2.0), seed=6)
    inst = add_noise(prob, 1e-3, 6)
    state, _ = bidiag_run(prob.A, inst.b, steps=12, norm_A=float(prob.svd.sigma[0]))
    trace = lsqr_sweep(inst, state, 20)
    assert list(trace.ks) == list(range(1, 13))
    nx = np.linalg.norm(prob.x_true)
    for k in trace.ks:
        x = lsqr_iterate(state, int(k))
        assert trace.rel_errors[k - 1] == np.linalg.norm(x - prob.x_true) / nx
        assert trace.residuals[k - 1] == np.linalg.norm(prob.A @ x - inst.b)


def test_sweep_respects_kmax():
    prob = make_picard_synthetic(16, severe(2.0), seed=7)
    inst = add_noise(prob, 1e-2, 7)
    state, _ = bidiag_run(prob.A, inst.b, norm_A=float(prob.svd.sigma[0]))
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
    state, err = bidiag_run(prob.A, b, steps=6, norm_A=float(prob.svd.sigma[0]))
    assert err is not None and err.entry == "beta_3"
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
    assert int(cols["k"][flags.index("1")]) == trace.kstar
    assert [float(v) for v in cols["residual"]] == trace.residuals.tolist()
