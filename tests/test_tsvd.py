"""Unit tests for the truncated-SVD reference method."""

import numpy as np
import pytest

from conftest import severe

from illposed.csvio import read_csv
from illposed.gallery import make_picard_synthetic
from illposed.linalg import svd
from illposed.noise import add_noise, noiseless_instance
from illposed.tsvd import tsvd_solution, tsvd_sweep, write_tsvd_csv


def test_solution_diagonal_oracle():
    # For a diagonal matrix the truncated solution is b_i / a_i on the
    # kept components and 0 elsewhere (up to the V sign convention).
    A = np.diag([4.0, 2.0, 1.0])
    b = np.array([8.0, 2.0, 1.0])
    fact = svd(A)
    np.testing.assert_allclose(tsvd_solution(fact, b, 1), [2.0, 0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(tsvd_solution(fact, b, 2), [2.0, 1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(tsvd_solution(fact, b, 3), [2.0, 1.0, 1.0], atol=1e-14)


def test_solution_validates_k():
    fact = svd(np.diag([2.0, 1.0]))
    with pytest.raises(ValueError, match="outside"):
        tsvd_solution(fact, [1.0, 1.0], 0)
    with pytest.raises(ValueError, match="outside"):
        tsvd_solution(fact, [1.0, 1.0], 3)


def test_solution_refuses_rank_floor():
    fact = svd(np.diag([1.0, 1e-15]))
    with pytest.raises(ValueError, match="rank floor"):
        tsvd_solution(fact, [1.0, 1.0], 2)


def test_sweep_matches_per_k_solutions():
    prob = make_picard_synthetic(16, severe(2.0), seed=0)
    inst = add_noise(prob, 1e-3, 0)
    sweep = tsvd_sweep(inst)
    nx = np.linalg.norm(prob.x_true)
    for i, k in enumerate(sweep.ks):
        x = tsvd_solution(prob.svd, inst.b, int(k))
        assert sweep.rel_errors[i] == pytest.approx(
            np.linalg.norm(x - prob.x_true) / nx, rel=1e-12
        )
        assert sweep.residuals[i] == pytest.approx(
            np.linalg.norm(prob.A @ x - inst.b), rel=1e-12, abs=1e-15
        )


def test_sweep_is_the_norm_formula_bit_for_bit():
    # The sweep squares and sums its two n x rank arrays in place; the
    # result must be np.linalg.norm(axis=0) of fresh arrays, bit for bit.
    prob = make_picard_synthetic(24, severe(1.5), seed=3)
    inst = add_noise(prob, 1e-3, 3)
    sweep = tsvd_sweep(inst)
    fact, k = prob.svd, sweep.ks.size
    c = fact.coefficients(inst.b)[:k]
    X = np.cumsum(fact.V[:, :k] * (c / fact.sigma[:k]), axis=1)
    errors = np.linalg.norm(X - prob.x_true[:, None], axis=0) / np.linalg.norm(prob.x_true)
    residuals = np.linalg.norm(prob.A @ X - inst.b[:, None], axis=0)
    assert sweep.rel_errors.tobytes() == errors.tobytes()
    assert sweep.residuals.tobytes() == residuals.tobytes()


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
