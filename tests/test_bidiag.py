"""Unit tests for the Lanczos lower-bidiagonalization recurrence."""

import ctypes
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import severe

from illposed import bidiag
from illposed.csvio import read_csv
from illposed.gallery import make_deriv2, make_picard_synthetic, make_shaw
from illposed.noise import add_noise
from illposed.bidiag import (
    bidiag_run,
    bidiag_start,
    bidiag_step,
    lower_bidiagonal,
    recurrence_residuals,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import env  # noqa: E402


def test_two_by_two_invariant_oracle():
    # A = diag(2, 1), b = (1, 1).  Independently of the recurrence, the
    # complete B_2 = [[a1, 0], [b2, a2]] must satisfy: beta_1 = ||b||,
    # alpha_1 = ||A'b|| / ||b||, orthogonal invariance of the Frobenius
    # norm (a1^2 + b2^2 + a2^2 = ||A||_F^2 = 5), and |det B| = |det A| = 2.
    A = np.diag([2.0, 1.0])
    b = np.array([1.0, 1.0])
    state = bidiag_run(A, b)
    assert state.breakdown is None
    a1 = math.sqrt(5.0 / 2.0)
    a2 = 2.0 / a1
    b2 = math.sqrt(5.0 - a1**2 - a2**2)
    np.testing.assert_allclose(state.alphas, [a1, a2], rtol=1e-14)
    np.testing.assert_allclose(state.betas, [math.sqrt(2.0), b2, 0.0], rtol=1e-14)
    assert state.completed and state.terminal and state.breakdown is None


def test_start_state_contents():
    A = np.diag([2.0, 1.0])
    state = bidiag_start(A, [1.0, 1.0])
    assert state.steps == 0 and state.max_k == 0
    assert not state.terminal
    np.testing.assert_allclose(state.P_k(1)[:, 0], [1, 1] / np.sqrt(2.0))
    np.testing.assert_allclose(state.Q_k(1)[:, 0], [2, 1] / np.sqrt(5.0))
    with pytest.raises(ValueError, match="B_1"):
        state.B(1)  # beta_2 not yet computed
    bidiag_step(state)
    assert state.max_k == 1
    np.testing.assert_allclose(state.B(1), [[math.sqrt(2.5)], [0.9**0.5]], rtol=1e-14)


def test_factorization_identity_per_step():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((10, 6))
    b = rng.standard_normal(10)
    state = bidiag_start(A, b)
    sigma1 = np.linalg.norm(A, 2)
    while state.steps < state.n - 1:
        bidiag_step(state)
        k = state.max_k
        resid = recurrence_residuals(state, k)
        assert resid["forward"] <= 1e-13 * sigma1
        assert resid["ortho_P"] <= 1e-13
        assert resid["ortho_Q"] <= 1e-13
        # The adjoint identity A' P_{k+1} = Q_k B_k' + alpha_{k+1} q_{k+1} e_{k+1}'.
        adjoint = A.T @ state.P_k(k + 1) - state.Q_k(k) @ state.B(k).T
        adjoint[:, -1] -= state.alphas[k] * state.Q_k(k + 1)[:, k]
        assert np.linalg.norm(adjoint, 2) <= 1e-13 * sigma1


def test_bidiag_run_advances_through_module_bidiag_step(monkeypatch):
    # The benchmark's tracer counts bidiag.steps by wrapping the module-level
    # bidiag_step, so bidiag_run must call it by that name once per step.
    calls = []
    step = bidiag.bidiag_step

    def counted(state):
        calls.append(state.steps)
        return step(state)

    monkeypatch.setattr(bidiag, "bidiag_step", counted)
    prob = make_deriv2(12)
    state = bidiag_run(prob.A, prob.b_true)
    assert state.breakdown is None and state.completed
    assert calls == list(range(state.steps)) and state.steps == 11
    calls.clear()
    state = bidiag_run(prob.A, prob.b_true, steps=4)
    assert state.breakdown is None and calls == [0, 1, 2, 3]


def test_complete_square_forces_zero_trailing_beta():
    prob = make_shaw(12)
    state = bidiag_run(prob.A, prob.b_true + 1e-3)
    assert state.breakdown is None and state.completed
    assert state.betas[-1] == 0.0
    assert len(state.alphas) == 12 and len(state.betas) == 13


def test_square_completion_above_its_limit_is_refused(monkeypatch):
    # With a limit of zero no computed beta_{n+1} vanishes within it: the
    # run refuses the input as a ValueError that names sigma_1 and the entry.
    monkeypatch.setattr(bidiag, "FINAL_BETA_REL", 0.0)
    prob = make_shaw(12)
    with pytest.raises(ValueError, match=r"cannot complete at sigma_1 = \S+: "
                                         r"square factorization ended with beta_13 = "):
        bidiag_run(prob.A, prob.b_true + 1e-3)


def test_complete_square_without_reorthogonalization_keeps_computed_beta():
    # The plain recurrence loses orthogonality, so beta_{n+1} of a square
    # factorization need not vanish: it is recorded, and no (n+1)-th left
    # vector is kept.  With reorthogonalization it is still exactly zero.
    prob = make_deriv2(16)
    b = prob.b_true + 1e-3
    plain = bidiag_run(prob.A, b, reorth=False)
    assert plain.breakdown is None and plain.completed
    assert len(plain.alphas) == 16 and len(plain.betas) == 17
    assert plain.betas[-1] > 0.0
    plain.P_k(16)
    with pytest.raises(ValueError, match="have 16 columns"):
        plain.P_k(17)
    reo = bidiag_run(prob.A, b)
    assert reo.breakdown is None and reo.betas[-1] == 0.0


def test_complete_rectangular_keeps_trailing_beta():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((9, 5))
    b = rng.standard_normal(9)
    state = bidiag_run(A, b)
    assert state.breakdown is None and state.completed
    assert state.betas[-1] > 0.0
    # Full identity A Q_n = P_{n+1} B_n including the trailing row.
    B = lower_bidiagonal(state.alphas, state.betas[1:])
    np.testing.assert_allclose(
        A @ state.Q_k(5), state.P_k(6) @ B, atol=1e-13 * np.linalg.norm(A, 2)
    )


def test_full_ritz_values_match_spectrum():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((12, 12)) + 6.0 * np.eye(12)
    b = rng.standard_normal(12)
    state = bidiag_run(A, b)
    assert state.breakdown is None and state.completed
    B = lower_bidiagonal(state.alphas, state.betas[1:-1])  # square completion
    theta = np.linalg.svd(B, compute_uv=False)
    sigma = np.linalg.svd(A, compute_uv=False)
    np.testing.assert_allclose(theta, sigma, rtol=1e-9)


def test_krylov_span():
    # span(Q_k) must equal span{A'b, (A'A)A'b, ...}: compare projectors.
    rng = np.random.default_rng(3)
    A = rng.standard_normal((8, 8)) + 4.0 * np.eye(8)
    b = rng.standard_normal(8)
    state = bidiag_run(A, b, steps=2)
    assert state.breakdown is None and state.steps == 2 and state.max_k == 2
    v = A.T @ b
    K = np.column_stack([v, (A.T @ A) @ v, (A.T @ A) @ ((A.T @ A) @ v)])
    Qk, _ = np.linalg.qr(K)
    Q = state.Q_k(3)
    np.testing.assert_allclose(Q @ Q.T, Qk @ Qk.T, atol=1e-8)


def test_reorthogonalization_restores_orthogonality():
    # On a severely ill-posed kernel the plain recurrence loses
    # orthogonality; two-pass reorthogonalization keeps it at roundoff.
    prob = make_shaw(64)
    b = prob.b_true
    plain = bidiag_run(prob.A, b, steps=20, reorth=False)
    reo = bidiag_run(prob.A, b, steps=20, reorth=True)
    k = min(plain.max_k, reo.max_k)
    loose = recurrence_residuals(plain, k)
    tight = recurrence_residuals(reo, k)
    assert tight["ortho_Q"] <= 1e-12
    assert tight["ortho_P"] <= 1e-12
    assert loose["ortho_Q"] > 1e3 * tight["ortho_Q"]
    # The three-term recurrence itself holds either way.
    sigma1 = float(prob.svd.sigma[0])
    assert loose["forward"] <= 1e-12 * sigma1
    assert tight["forward"] <= 1e-12 * sigma1


def test_breakdown_on_invariant_subspace():
    # b proportional to u_1 spans an exactly invariant singular subspace,
    # so the second left vector vanishes: breakdown at beta_2.
    prob = make_picard_synthetic(8, severe(2.0), seed=0)
    b = prob.svd.U[:, 0]
    state = bidiag_run(prob.A, b)
    assert state.breakdown == "beta_2" and state.steps == 0  # zero complete steps
    assert state.terminal and not state.completed
    assert state.max_k == 0  # the vanished beta_2 is not recorded
    with pytest.raises(RuntimeError, match="terminal"):
        bidiag_step(state)


def test_bidiag_step_records_the_breakdown():
    # bidiag_step records the same vanished entry that bidiag_run reports.
    prob = make_picard_synthetic(8, severe(2.0), seed=0)
    state = bidiag_start(prob.A, prob.svd.U[:, 0])
    assert state.breakdown is None
    assert bidiag_step(state) is state
    assert state.breakdown == "beta_2" and state.terminal
    assert len(state.betas) == 1 and len(state.alphas) == 1
    assert state.P_k(1).shape == (8, 1)
    with pytest.raises(ValueError, match="have 1 columns"):
        state.P_k(2)


def test_vanishing_start_is_recorded_in_run():
    # b = 0 stops at beta_1 before any vector is kept; b in the null space
    # of A' keeps p_1 and beta_1 and stops at alpha_1.  Either state is
    # terminal and bidiag_run returns it without stepping.
    A = np.diag([1.0, 1.0, 0.0])
    zero = bidiag_run(A, np.zeros(3))
    assert zero.breakdown == "beta_1" and zero.terminal and not zero.completed
    assert zero.betas == [] and zero.alphas == [] and zero.max_k == -1
    null = bidiag_run(A, [0.0, 0.0, 2.0])
    assert null.breakdown == "alpha_1" and null.terminal and not null.completed
    assert null.betas == [2.0] and null.alphas == [] and null.max_k == 0
    np.testing.assert_array_equal(null.P_k(1)[:, 0], [0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="have 0 columns"):
        null.Q_k(1)


def test_partial_run_is_not_terminal():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((7, 7)) + 4.0 * np.eye(7)
    state = bidiag_run(A, rng.standard_normal(7), steps=3)
    assert state.breakdown is None
    assert state.steps == 3 and not state.terminal
    full = bidiag_run(A, A @ np.ones(7))
    assert full.breakdown is None and full.terminal and full.completed


def test_b_length_validated():
    with pytest.raises(ValueError, match="length"):
        bidiag_start(np.eye(3), np.ones(4))


def test_breakdown_tolerance_below_the_normal_floats_is_refused():
    # 1e-14 * 1e-300 is subnormal: a zero vector could pass as unbroken.
    with pytest.raises(ValueError, match=r"sigma_1 = \S+ lies below 2\.225e-294"):
        bidiag_run(np.eye(3), np.ones(3), norm_A=1e-300)


def test_lower_bidiagonal_shapes():
    B = lower_bidiagonal([1.0, 2.0], [3.0, 4.0])
    np.testing.assert_array_equal(B, [[1, 0], [3, 2], [0, 4]])
    Bsq = lower_bidiagonal([1.0, 2.0], [3.0])
    np.testing.assert_array_equal(Bsq, [[1, 0], [3, 2]])
    with pytest.raises(ValueError, match="entries"):
        lower_bidiagonal([1.0, 2.0], [1.0, 2.0, 3.0])


def test_write_bidiag_csv(tmp_path):
    A = np.diag([2.0, 1.0])
    state = bidiag_run(A, [1.0, 1.0])
    assert state.breakdown is None
    path = tmp_path / "bidiag.csv"
    from illposed.experiment import write_bidiag_csv

    write_bidiag_csv(state, path)
    kind, cols = read_csv(path)
    assert kind == "bidiag"
    assert list(cols) == ["index", "alpha", "beta_next"]
    assert cols["index"] == ["1", "2"]
    assert float(cols["alpha"][0]) == state.alphas[0]
    assert float(cols["beta_next"][0]) == state.betas[1]
    assert float(cols["beta_next"][1]) == 0.0


def _openblas_threads():
    """(set, get) of the loaded OpenBLAS's thread count, probed under the
    names ``env.blas_info`` reads; None without such a library."""
    try:
        lib = env._openblas()
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            set_threads = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if set_threads is not None and get_threads is not None:
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


@pytest.mark.parametrize("name, seed", [("heat", 0), ("heat", 1), ("deriv2", 0),
                                        ("shaw", 0), ("gravity", 0)])
def test_recurrence_keeps_its_bits_at_one_and_two_blas_threads(name, seed, cache):
    # At n = 256 no product of the recurrence is large enough for OpenBLAS
    # to split it by thread count, so the bits, and heat's alpha_252
    # breakdowns with their margins of 4.1 and 9.5, do not depend on it.
    # (At n = 1024 some widths of V' w do: see README, Tests.)
    threads = _openblas_threads()
    if threads is None:
        pytest.skip("BLAS is not an OpenBLAS with a thread-count setter")
    set_threads, get_threads = threads
    problem = cache.problem(name, 256)
    instance = add_noise(problem, 1e-3, seed)
    original = get_threads()
    runs = []
    try:
        for count in (1, 2):
            set_threads(count)
            if get_threads() != count:
                pytest.skip(f"this OpenBLAS does not run on {count} threads")
            runs.append(bidiag_run(problem.A, instance.b, norm_A=problem.svd.sigma[0]))
    finally:
        set_threads(original)
    one, two = runs
    assert one.breakdown == two.breakdown
    assert one.alphas == two.alphas and one.betas == two.betas
    np.testing.assert_array_equal(one._P.view(), two._P.view())
    np.testing.assert_array_equal(one._Q.view(), two._Q.view())
