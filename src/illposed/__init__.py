"""Regularization laboratory for linear discrete ill-posed problems.

The package builds classical ill-posed test problems, perturbs them with
seeded white noise, regularizes them by spectral truncation and by projected
(Krylov) iteration, and quantifies -- per step k -- how well the Krylov space
tracks the dominant right singular subspace: the low-rank gap gamma_k, the
Ritz-value ordering, the subspace-distance norms, and the a-priori bounds
tying all of them to the decay regime of the spectrum.

Typical flow::

    from illposed import make_shaw, add_noise, bidiag_run, tsvd_sweep, lsqr_sweep

    problem = make_shaw(256)
    instance = add_noise(problem, 1e-3, seed=42)
    state, _ = bidiag_run(problem.A, instance.b, norm_A=problem.svd.sigma[0])
    reference = tsvd_sweep(instance)
    trace = lsqr_sweep(instance, state, kmax=40)
    assert trace.kstar <= reference.best_k

The same pipeline, with CSV/SVG artifacts and an invariant audit, runs from
the command line as ``illposed run`` / ``illposed compare``.
"""

import types as _types

from .analysis import (
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
from .bidiag import (
    BidiagState,
    BreakdownError,
    bidiag_run,
    bidiag_start,
    bidiag_step,
    lower_bidiagonal,
    recurrence_residuals,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    InvariantViolation,
    build_problem,
    compare,
    load_config,
    render_panels,
    run,
)
from .gallery import (
    IllPosedProblem,
    SpectrumModel,
    fit_spectrum_model,
    make_deriv2,
    make_gravity,
    make_heat,
    make_picard_synthetic,
    make_prescribed,
    make_shaw,
)
from .linalg import (
    RankDeficientError,
    SvdFactorization,
    least_squares,
    orthonormalize,
    spectral_norm,
    svd,
)
from .lsqr import LsqrTrace, lsqr_iterate, lsqr_sweep
from .noise import (
    NoisyInstance,
    PicardDiagnostic,
    add_noise,
    noiseless_instance,
    picard_diagnostic,
)
from .tsvd import TsvdSweep, tsvd_solution, tsvd_sweep

__version__ = "0.1.0"

#: Every name imported above; the submodules the imports load are left out.
__all__ = sorted(
    name
    for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, _types.ModuleType)
) + ["__version__"]
