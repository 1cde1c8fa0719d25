"""Unit tests for the noise model and the coefficient-decay diagnostic."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import severe

from illposed.csvio import read_csv
from illposed.experiment import write_picard_csv
from illposed.gallery import make_picard_synthetic, make_shaw
from illposed.noise import (
    FLOOR_FACTOR,
    WINDOW_HALF,
    _window_medians,
    add_noise,
    noiseless_instance,
    picard_diagnostic,
)


def test_add_noise_exact_scaling():
    prob = make_shaw(32)
    inst = add_noise(prob, 1e-3, 11)
    assert np.linalg.norm(inst.e) == pytest.approx(
        1e-3 * np.linalg.norm(prob.b_true), rel=1e-14
    )
    np.testing.assert_array_equal(inst.b, prob.b_true + inst.e)
    assert inst.eta == pytest.approx(np.linalg.norm(inst.e) / math.sqrt(prob.m), rel=1e-14)
    assert inst.generator == "numpy-pcg64"
    assert inst.seed == 11 and inst.epsilon == 1e-3


@pytest.mark.parametrize("epsilon", [1e-200, 1e-300])
def test_add_noise_floor_survives_underflowing_squares(epsilon):
    # The squares of entries below ~1e-162 underflow, so ||e|| is formed
    # from the rescaled draw; it still matches the requested level.
    prob = make_shaw(32)
    inst = add_noise(prob, epsilon, 11)
    assert np.linalg.norm(inst.e) == 0.0
    top = np.max(np.abs(inst.e))
    assert inst.eta == pytest.approx(
        top * np.linalg.norm(inst.e / top) / math.sqrt(prob.m), rel=1e-14
    )
    assert inst.eta == pytest.approx(
        epsilon * np.linalg.norm(prob.b_true) / math.sqrt(prob.m), rel=1e-12
    )


def test_add_noise_deterministic_by_seed():
    prob = make_shaw(16)
    a = add_noise(prob, 1e-2, 3)
    b = add_noise(prob, 1e-2, 3)
    np.testing.assert_array_equal(a.e, b.e)
    c = add_noise(prob, 1e-2, 4)
    assert np.any(c.e != a.e)


def test_add_noise_validates_epsilon():
    prob = make_shaw(8)
    for eps in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="epsilon"):
            add_noise(prob, eps, 0)


def test_noiseless_instance():
    prob = make_shaw(8)
    inst = noiseless_instance(prob)
    assert inst.eta == 0.0 and inst.epsilon == 0.0
    np.testing.assert_array_equal(inst.b, prob.b_true)
    assert inst.generator == "none"


def test_noise_coefficients_match_half_normal_mean():
    # |u_i' e| has mean eta * sqrt(2/pi) when e is white Gaussian; at n=256
    # the sample mean over one draw should sit within 20% of it.
    prob = make_shaw(256)
    inst = add_noise(prob, 1e-3, 0)
    coef = np.abs(prob.svd.U.T @ inst.e)
    expected = inst.eta * math.sqrt(2.0 / math.pi)
    assert 0.8 * expected < float(np.mean(coef)) < 1.2 * expected


def test_transition_indices_analytic_floor():
    # sigma_i = 2^-i with exact coefficients and floor 1e-3: the last
    # coefficient above the floor is 2^-9, while the windowed rule's
    # 2x-floor threshold moves the transition to 8.
    prob = make_picard_synthetic(16, severe(2.0, beta=0.0, zeta=1.0), seed=0)
    diag = picard_diagnostic(replace(noiseless_instance(prob), eta=1e-3))
    assert diag.k0_naive == 9
    assert diag.k0 == 8
    assert diag.eta == 1e-3


def test_picard_diagnostic_defaults_to_eta():
    prob = make_picard_synthetic(24, severe(2.0), seed=1)
    inst = add_noise(prob, 1e-3, 1)
    diag = picard_diagnostic(inst)
    assert diag.eta == inst.eta
    assert 1 <= diag.k0 <= 24
    np.testing.assert_allclose(
        diag.coef, np.abs(prob.svd.U.T @ inst.b), rtol=1e-13
    )
    np.testing.assert_allclose(
        diag.coef_true, np.abs(prob.svd.U.T @ prob.b_true), rtol=1e-13
    )


def test_picard_diagnostic_requires_positive_floor():
    prob = make_picard_synthetic(8, severe(2.0), seed=0)
    with pytest.raises(ValueError, match="floor"):
        picard_diagnostic(noiseless_instance(prob))


def test_k0_zero_warns_when_floor_swamps_signal():
    prob = make_picard_synthetic(8, severe(2.0), seed=0)
    diag = picard_diagnostic(replace(noiseless_instance(prob), eta=10.0))
    assert diag.k0 == 0
    assert math.isnan(diag.beta_fit)


def test_beta_fit_recovers_model_exponent():
    beta = 0.5
    prob = make_picard_synthetic(20, severe(2.0, beta=beta), seed=2)
    diag = picard_diagnostic(replace(noiseless_instance(prob), eta=1e-5))
    assert diag.beta_fit == pytest.approx(beta, abs=1e-6)


def _loop_window_medians(coef):
    """The windowed medians one np.median call at a time (the reference)."""
    n = coef.size
    return np.array([
        np.median(coef[max(1, k - WINDOW_HALF) - 1 : min(n, k + WINDOW_HALF)])
        for k in range(1, n + 1)
    ])


def _loop_k0(coef, floor):
    medians = _loop_window_medians(coef)
    above = [k for k in range(1, coef.size + 1) if medians[k - 1] > FLOOR_FACTOR * floor]
    return max(above, default=0)


def test_window_medians_match_the_per_window_loop():
    rng = np.random.default_rng(7)
    inputs = [np.array([x]) for x in (0.0, 3.0)]
    inputs += [rng.random(n) for n in range(1, 5) for _ in range(20)]  # every window clamped
    inputs += [rng.integers(0, 3, size=n).astype(float) for n in range(1, 12) for _ in range(10)]
    inputs += [np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-8, 8, size=n)
               for n in (5, 6, 7, 50, 257)]
    for coef in inputs:
        assert np.array_equal(_window_medians(coef), _loop_window_medians(coef)), coef


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 64])
def test_picard_k0_matches_the_per_window_loop(n):
    prob = make_picard_synthetic(n, severe(2.0), seed=n)
    for seed in range(3):
        inst = add_noise(prob, 1e-2, seed)
        for floor in (None, 1e-4, 1e-2, 0.1, 10.0):
            diag = picard_diagnostic(inst if floor is None else replace(inst, eta=floor))
            assert diag.k0 == _loop_k0(diag.coef, diag.eta), (seed, floor)


def test_write_picard_csv(tmp_path):
    prob = make_picard_synthetic(6, severe(2.0), seed=0)
    inst = add_noise(prob, 1e-2, 0)
    diag = picard_diagnostic(inst)
    path = tmp_path / "picard.csv"
    write_picard_csv(diag, path)
    kind, cols = read_csv(path)
    assert kind == "picard"
    assert list(cols) == ["i", "sigma_i", "abs_uiTb", "abs_uiTbtrue", "eta"]
    assert cols["i"] == ["1", "2", "3", "4", "5", "6"]
    assert [float(v) for v in cols["sigma_i"]] == diag.sigma.tolist()
    assert [float(v) for v in cols["abs_uiTb"]] == diag.coef.tolist()
    assert [float(v) for v in cols["abs_uiTbtrue"]] == diag.coef_true.tolist()
    assert [float(v) for v in cols["eta"]] == [diag.eta] * 6
