"""The one record both regularization sweeps return."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import severe

from illposed.bidiag import bidiag_run
from illposed.experiment import ExperimentConfig, build_problem
from illposed.gallery import IllPosedProblem, make_deriv2, make_picard_synthetic
from illposed.linalg import svd
from illposed.noise import add_noise, noiseless_instance
from illposed.sweeps import Sweep, lsqr_sweep, tsvd_sweep


def test_best_k_takes_the_first_of_tied_minima():
    sweep = Sweep(rel_errors=np.array([3.0, 1.0, 2.0, 1.0, 1.5]), residuals=np.ones(5))
    np.testing.assert_array_equal(sweep.ks, [1, 2, 3, 4, 5])
    assert (sweep.best_k, sweep.best_error, sweep.semi_convergent) == (2, 1.0, True)
    flat = Sweep(rel_errors=np.array([2.0, 1.0, 1.0]), residuals=np.ones(3))
    assert (flat.best_k, flat.semi_convergent) == (2, False)


def test_tsvd_sweep_ties_at_exact_recovery():
    # A = diag(4, 2, 1) and x_true = (2, 1, 0): x_2 and x_3 both equal
    # x_true, so the errors at k = 2 and 3 are both zero.
    A = np.diag([4.0, 2.0, 1.0])
    x_true = np.array([2.0, 1.0, 0.0])
    prob = IllPosedProblem("diag", A, x_true, A @ x_true, None, svd(A))
    sweep = tsvd_sweep(noiseless_instance(prob))
    assert sweep.rel_errors[1] == sweep.rel_errors[2] == 0.0
    assert sweep.best_k == 2


def test_both_sweeps_return_the_record_over_k_from_one():
    prob = make_picard_synthetic(24, severe(2.0), seed=0)
    inst = add_noise(prob, 1e-3, 0)
    state = bidiag_run(prob.A, inst.b, norm_A=float(prob.svd.sigma[0]))
    for sweep in (tsvd_sweep(inst), lsqr_sweep(inst, state, 10)):
        assert type(sweep) is Sweep
        np.testing.assert_array_equal(sweep.ks, np.arange(1, len(sweep.rel_errors) + 1))
        assert sweep.residuals.shape == sweep.rel_errors.shape
        assert sweep.best_error == np.min(sweep.rel_errors)


def test_residuals_keep_their_digits_at_tiny_scale():
    # prescribed n = 16 at zeta = 2^-520 is the zeta = 1 problem scaled by a
    # power of two, b and every residual with it; but the squares of those
    # residuals go subnormal.  Scaled back, both sweeps' residuals equal the
    # zeta = 1 run's, down to the last rows near 1e-16 ||b||.
    runs = []
    for zeta in (1.0, 2.0**-520):
        prob = build_problem(ExperimentConfig(problem="prescribed", n=16, zeta=zeta))
        inst = add_noise(prob, 1e-3, 0)
        state = bidiag_run(prob.A, inst.b, norm_A=float(prob.svd.sigma[0]))
        runs.append((np.linalg.norm(inst.b), tsvd_sweep(inst), lsqr_sweep(inst, state, 16)))
    (nb, *ref), (_, *tiny) = runs
    for r, t in zip(ref, tiny):
        assert t.residuals[-1] > 0.0
        np.testing.assert_allclose(t.residuals * 2.0**520, r.residuals, rtol=0.0, atol=1e-13 * nb)


def test_tsvd_errors_keep_their_digits_at_tiny_scale():
    # deriv2 n = 64 with x_true, b_true and b scaled by 2^-600 and A as it
    # is: the relative errors are those of the unscaled instance, although
    # the squares of x_true and of every error underflow.
    prob = make_deriv2(64)
    inst = add_noise(prob, 1e-3, 0)
    scale = 2.0**-600
    tiny = replace(
        inst,
        problem=replace(prob, x_true=prob.x_true * scale, b_true=prob.b_true * scale),
        e=inst.e * scale,
        b=inst.b * scale,
    )
    assert np.linalg.norm(tiny.problem.x_true) == 0.0
    ref = tsvd_sweep(inst).rel_errors
    np.testing.assert_allclose(tsvd_sweep(tiny).rel_errors, ref, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("p", [-700, -300, 300])
def test_tsvd_sweep_is_scale_free(p):
    # deriv2 n = 64 with x_true, b_true, e, b and eta scaled by 2^p and A and
    # its SVD as they are: the relative errors keep their bits and the
    # residuals scale by exactly 2^p, also at p = -700, where the squares of
    # b and x_true underflow.
    prob = make_deriv2(64)
    inst = add_noise(prob, 1e-3, 0)
    scale = 2.0**p
    scaled = replace(
        inst,
        problem=replace(prob, x_true=prob.x_true * scale, b_true=prob.b_true * scale),
        e=inst.e * scale,
        b=inst.b * scale,
        eta=inst.eta * scale,
    )
    assert (np.linalg.norm(scaled.b) == 0.0) == (p == -700)
    ref, got = tsvd_sweep(inst), tsvd_sweep(scaled)
    np.testing.assert_array_equal(got.rel_errors, ref.rel_errors)
    np.testing.assert_array_equal(got.residuals, ref.residuals * scale)
