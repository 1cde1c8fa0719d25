"""Scale equivariance of a whole run: the metamorphic oracle of every problem.

Multiplying a spectrum by zeta = 2^p (a synthetic problem), or a kernel's
matrix A by 2^p, is exact in float64 as long as nothing overflows or goes
subnormal, and so is every operation of the pipeline on the scaled data:
products, quotients and rescaled norms shift exponents only.  A run at scale
2^p must therefore reproduce the run at scale 1 bit for bit in every
scale-free cell, and multiply every dimensional cell by exactly 2^p.
"""

import os

import pytest

from illposed import gallery
from illposed.csvio import format_value, read_csv
from illposed.experiment import ARTIFACT_CSVS, ExperimentConfig, run

#: The exponents p of the scaled runs, compared against p = 0.
EXPONENTS = (300, -300)
#: The cells that carry the spectrum's unit: sigma, the data and its noise
#: level, the recurrence coefficients, residuals, gaps, Ritz values and the
#: bounds on them.  Every other cell and summary value is scale-free.
DIMENSIONAL = {
    "picard.csv": {"sigma_i", "abs_uiTb", "abs_uiTbtrue", "eta"},
    "bidiag.csv": {"alpha", "beta_next"},
    "tsvd.csv": {"residual"},
    "lsqr.csv": {"residual"},
    "analysis.csv": {"gamma", "gamma_Gk", "sigma_k1", "sigma_delta", "alpha_beta_sum",
                     "epsilon_k_bound", "sigma_delta_bound", "sigma_delta_bound_asymptotic"},
    "ritz.csv": {"theta"},
    "summary.txt": {"eta"},
}


def _cells(outdir) -> dict:
    """(file, column) -> cells of every CSV artifact and summary key of a run."""
    cells = {}
    for name in ARTIFACT_CSVS:
        _, columns = read_csv(os.path.join(outdir, name))
        cells.update({(name, column): values for column, values in columns.items()})
    with open(os.path.join(outdir, "summary.txt"), encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.rstrip("\n").partition("=")
            cells["summary.txt", key] = [value]
    return cells


def _assert_scales_exactly(cells):
    """``cells(p)``, the cells of the run at scale 2^p, against ``cells(0)``."""
    base = cells(0)
    for p in EXPONENTS:
        scaled = cells(p)
        assert scaled.keys() == base.keys()
        for (name, column), values in base.items():
            if column in DIMENSIONAL[name]:
                values = [format_value(float(v) * 2.0**p) for v in values]
            assert scaled[name, column] == values, (p, name, column)


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("decay", ["severe", "moderate", "mild"])
@pytest.mark.parametrize("problem", ["prescribed", "picard_synthetic"])
def test_a_spectrum_scaled_by_a_power_of_two_scales_the_run_exactly(problem, decay, n, tmp_path):
    def cells(p):
        config = ExperimentConfig(problem=problem, decay=decay, n=n, noise=1e-3, seed=1,
                                  zeta=2.0**p, panels="none", out=str(tmp_path / f"p{p}"))
        run(config)
        return _cells(config.out)

    _assert_scales_exactly(cells)


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("problem", ["shaw", "gravity", "deriv2", "heat"])
def test_a_kernel_scaled_by_a_power_of_two_scales_the_run_exactly(problem, n, tmp_path, monkeypatch):
    finalize = gallery._finalize  # every constructor hands its A, b_true unset, to it

    def cells(p):
        monkeypatch.setattr(gallery, "_finalize",
                            lambda name, A, *rest: finalize(name, A * 2.0**p, *rest))
        config = ExperimentConfig(problem=problem, n=n, noise=1e-3, seed=1, panels="none",
                                  out=str(tmp_path / f"p{p}"))
        run(config)
        return _cells(config.out)

    _assert_scales_exactly(cells)
