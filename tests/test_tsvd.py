"""Unit tests for the truncated-SVD reference method."""

import numpy as np
import pytest

from conftest import severe

from illposed.csvio import read_csv
from illposed.experiment import write_tsvd_csv
from illposed.gallery import IllPosedProblem, make_picard_synthetic
from illposed.linalg import svd
from illposed.noise import add_noise, noiseless_instance
from illposed.sweeps import tsvd_sweep


def test_sweep_diagonal_oracle():
    # For A = diag(4, 2, 1) and exact data b = A x_true, x_k keeps the first
    # k entries of x_true = (2, 1, 1) and zeroes the rest, so the error is
    # the norm of the dropped entries and the residual the norm of the
    # dropped entries of b = (8, 2, 1).
    A = np.diag([4.0, 2.0, 1.0])
    x_true = np.array([2.0, 1.0, 1.0])
    prob = IllPosedProblem("diag", A, x_true, A @ x_true, None, svd(A))
    sweep = tsvd_sweep(noiseless_instance(prob))
    np.testing.assert_array_equal(sweep.ks, [1, 2, 3])
    np.testing.assert_allclose(
        sweep.rel_errors, np.array([np.sqrt(2.0), 1.0, 0.0]) / np.sqrt(6.0), atol=1e-15
    )
    np.testing.assert_allclose(sweep.residuals, [np.sqrt(5.0), 1.0, 0.0], atol=1e-15)
    assert (sweep.best_k, sweep.best_error) == (3, sweep.rel_errors[2])


def test_sweep_matches_per_k_solutions():
    # x_k = V_k (c_k / sigma_k) formed directly; its residual A x_k - b is
    # checked to that product's own rounding, 16 eps (sigma_1 ||x_k|| + ||b||).
    prob = make_picard_synthetic(16, severe(2.0), seed=0)
    inst = add_noise(prob, 1e-3, 0)
    sweep = tsvd_sweep(inst)
    fact = prob.svd
    c = fact.coefficients(inst.b)
    nx = np.linalg.norm(prob.x_true)
    eps = np.finfo(float).eps
    for i, k in enumerate(sweep.ks):
        x = fact.V[:, :k] @ (c[:k] / fact.sigma[:k])
        assert sweep.rel_errors[i] == pytest.approx(
            np.linalg.norm(x - prob.x_true) / nx, rel=1e-12
        )
        rounding = 16 * eps * (fact.sigma[0] * np.linalg.norm(x) + np.linalg.norm(inst.b))
        assert sweep.residuals[i] == pytest.approx(
            np.linalg.norm(prob.A @ x - inst.b), rel=1e-12, abs=rounding
        )


def test_sweep_residuals_decrease():
    prob = make_picard_synthetic(16, severe(2.0), seed=1)
    inst = add_noise(prob, 1e-2, 1)
    sweep = tsvd_sweep(inst)
    assert np.all(np.diff(sweep.residuals) <= 1e-12)


def test_sweep_best_k_near_transition():
    # With sigma_i = 2^-i the coefficients cross the noise floor eta at
    # k = log2(1/eta); the realized best truncation lands nearby.
    prob = make_picard_synthetic(32, severe(2.0, beta=0.0), seed=0)
    inst = add_noise(prob, 1e-3, 0)
    sweep = tsvd_sweep(inst)
    crossing = int(np.floor(np.log2(1.0 / inst.eta)))
    assert abs(sweep.best_k - crossing) <= 3
    assert sweep.best_error == float(np.min(sweep.rel_errors))
    assert sweep.best_error == sweep.rel_errors[sweep.best_k - 1]


def test_sweep_noiseless_prefers_full_rank():
    prob = make_picard_synthetic(12, severe(2.0), seed=2)
    sweep = tsvd_sweep(noiseless_instance(prob))
    assert sweep.best_k == 12
    assert sweep.best_error < 1e-8


def test_sweep_caps_at_rank_floor():
    # sigma falls below 1e-14 * sigma_1 at k = 24 for rho = 4: the sweep
    # must stop at the numerical rank.
    prob = make_picard_synthetic(40, severe(4.0), seed=0)
    sweep = tsvd_sweep(noiseless_instance(prob))
    sigma = prob.svd.sigma
    rank = int(np.sum(sigma > 1e-14 * sigma[0]))
    assert sweep.ks[-1] == rank < 40


def test_write_tsvd_csv(tmp_path):
    prob = make_picard_synthetic(8, severe(2.0), seed=0)
    inst = add_noise(prob, 1e-2, 0)
    sweep = tsvd_sweep(inst)
    path = tmp_path / "tsvd.csv"
    write_tsvd_csv(sweep, path)
    kind, cols = read_csv(path)
    assert kind == "tsvd"
    assert list(cols) == ["k", "rel_error", "residual"]
    assert cols["k"] == ["1", "2", "3", "4", "5", "6", "7", "8"]
    assert [float(v) for v in cols["rel_error"]] == sweep.rel_errors.tolist()
    assert [float(v) for v in cols["residual"]] == sweep.residuals.tolist()
