"""Configuration-driven experiment runner and artifact comparison.

One run turns a configuration into a directory of artifacts:

    config.txt      echo of the effective configuration (key=value lines)
    picard.csv      coefficient-decay diagnostic
    bidiag.csv      recurrence coefficients alpha_k, beta_{k+1}
    tsvd.csv        truncation sweep (relative errors, residuals)
    lsqr.csv        projected-iteration sweep with the kstar flag
    analysis.csv    per-step gap/subspace/bound report
    ritz.csv        Ritz values in long format
    summary.txt     headline indices and errors (key=value lines)
    panel_[abcd].svg  figure panels, rendered purely from the CSVs

The numbers behind every panel exist in CSV before any SVG is drawn, and a
rerun of the same configuration reproduces every file byte for byte.  After
writing the artifacts the runner audits the universal inequalities (gap
monotonicity, interlacing, ...) and raises :class:`InvariantViolation` if
any fails beyond slack; the comparison tool diffs two artifact directories
column by column with optional per-column tolerances.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .analysis import (
    AUDIT_SLACK,
    AnalysisRecord,
    BoundReport,
    bound_report,
    cauchy_interlace_check,
    decay_diagnostic,
    delta_norm_via_angles,
    gamma_exact,
    gamma_via_Gk,
    lagrange_factor,
    mirsky_gap_check,
    natural_order_check,
    near_best_predicate,
    ritz_values,
    sigma_delta_norm,
)
from .bidiag import BreakdownError, bidiag_run, recurrence_residuals
from .csvio import format_value, read_csv, write_csv
from .gallery import (
    SpectrumModel,
    fit_spectrum_model,
    make_deriv2,
    make_gravity,
    make_heat,
    make_picard_synthetic,
    make_prescribed,
    make_shaw,
)
from .lsqr import lsqr_sweep
from .noise import add_noise, picard_diagnostic
from .svgplot import Chart
from .tsvd import tsvd_sweep

__all__ = [
    "ConfigError",
    "InvariantViolation",
    "ExperimentConfig",
    "RunResult",
    "CompareReport",
    "ColumnDiff",
    "parse_config_file",
    "load_config",
    "build_problem",
    "run",
    "summary_lines",
    "render_panels",
    "compare",
    "ARTIFACT_CSVS",
    "NOISE_INDEPENDENT_COLUMNS",
]


class ConfigError(ValueError):
    """Invalid configuration; the CLI maps this to exit code 2."""


class InvariantViolation(RuntimeError):
    """A universal inequality failed beyond slack; CLI exit code 1."""


PROBLEMS = ("shaw", "gravity", "deriv2", "heat", "prescribed", "picard_synthetic")
DECAYS = ("severe", "moderate", "mild")
MAX_N = 4096


# Configuration ===============================================================
def _key(default, text):
    """A config key with its default and the help text of its ``--flag``."""
    return field(default=default, metadata={"help": text})


@dataclass(frozen=True)
class ExperimentConfig:
    """Effective settings of one run: each field is a config-file key and an
    ``illposed run`` flag, read as the type it is annotated with."""

    problem: str = _key("shaw", f"test problem ({', '.join(PROBLEMS)})")
    n: int = _key(256, "problem size")
    noise: float = _key(1e-3, "relative noise level in (0, 1)")
    seed: int = _key(0, "noise / construction seed")
    kmax: int | None = _key(None, "largest analyzed step (default min(n, 40); 'none' for the default)")
    out: str = _key("results", "artifact directory")
    panels: str = _key("abcd", "figure panels to render, subset of abcd ('none' to skip)")
    scale: float = _key(1.0, "multiplier applied to n")
    depth: float = _key(0.25, "observation depth (gravity)")
    kappa: float = _key(1.0, "conductivity (heat)")
    rho: float = _key(2.0, "geometric decay ratio (severe spectra)")
    alpha: float = _key(2.0, "power-law decay exponent (moderate/mild spectra)")
    zeta: float = _key(1.0, "spectrum scale factor")
    beta: float = _key(0.0, "coefficient decay exponent (synthetic data)")
    decay: str = _key("severe", f"spectrum family for synthetic problems ({', '.join(DECAYS)})")
    reorth: bool = _key(True, "full reorthogonalization (true/false)")

    @property
    def effective_n(self) -> int:
        """Problem size after the scale multiplier."""
        return int(round(self.n * self.scale))

    def effective_kmax(self, n: int) -> int:
        return min(n, 40) if self.kmax is None else min(self.kmax, n)

    def panel_set(self) -> str:
        return "" if self.panels in ("", "none") else self.panels

    def validate(self) -> None:
        if self.problem not in PROBLEMS:
            raise ConfigError(
                f"unknown problem {self.problem!r}; choose from {', '.join(PROBLEMS)}"
            )
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        if self.scale <= 0.0:
            raise ConfigError("scale must be positive")
        try:
            n = self.effective_n
        except OverflowError as err:  # n * scale is not a finite float
            raise ConfigError(f"effective n = n * scale overflows: {err}") from err
        if not 2 <= n <= MAX_N:
            raise ConfigError(f"effective n = {n} outside 2..{MAX_N}")
        if not 0.0 < self.noise < 1.0:
            raise ConfigError(f"noise must lie in (0, 1), got {self.noise}")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.kmax is not None and not 1 <= self.kmax <= n:
            raise ConfigError(f"kmax = {self.kmax} outside 1..{n}")
        bad = set(self.panel_set()) - set("abcd")
        if bad:
            raise ConfigError(f"panels must be a subset of abcd, got {self.panels!r}")
        if self.decay not in DECAYS:
            raise ConfigError(f"decay must be one of {', '.join(DECAYS)}")
        for key, lo in (("depth", 0.0), ("kappa", 0.0), ("zeta", 0.0)):
            if getattr(self, key) <= lo:
                raise ConfigError(f"{key} must be positive")
        if self.rho <= 1.0:
            raise ConfigError("rho must exceed 1")
        if self.alpha <= 0.5:
            raise ConfigError("alpha must exceed 1/2")
        if self.beta < 0.0:
            raise ConfigError("beta must be nonnegative")

    def echo_lines(self) -> list:
        """The configuration as re-parseable key=value lines."""
        out = []
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None:
                text = "none"
            elif isinstance(v, bool):
                text = "true" if v else "false"
            elif isinstance(v, float):
                text = repr(v)
            else:
                text = str(v)
            out.append(f"{f.name}={text}")
        return out


_BOOL_WORDS = {
    "true": True, "1": True, "yes": True, "on": True,
    "false": False, "0": False, "no": False, "off": False,
}


def _coerce(key: str, value):
    """Turn one raw config value, read as its text, into its field type."""
    kind = next((f.type for f in fields(ExperimentConfig) if f.name == key), None)
    if kind is None:
        raise ConfigError(f"unknown config key {key!r}")
    v = str(value).strip()
    try:
        if kind == "int":
            return int(v)
        if kind == "float":
            return float(v)
        if kind == "int | None":
            return None if v.lower() in ("none", "") else int(v)
        if kind == "bool":
            word = v.lower()
            if word not in _BOOL_WORDS:
                raise ValueError(f"not a boolean: {v!r}")
            return _BOOL_WORDS[word]
    except ValueError as err:
        raise ConfigError(f"bad value for {key}: {err}") from err
    return v


def parse_config_file(path) -> dict:
    """Read a flat key=value file (# comments and blank lines ignored)."""
    raw = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read {path}: {err}") from err
    for lineno, ln in enumerate(lines, start=1):
        text = ln.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, _, value = text.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def load_config(path=None, overrides=None) -> ExperimentConfig:
    """Build a validated config from an optional file plus overrides."""
    merged = {}
    if path is not None:
        merged.update(parse_config_file(path))
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    config = ExperimentConfig(**{k: _coerce(k, v) for k, v in merged.items()})
    config.validate()
    return config


# Problem construction ========================================================
def build_problem(config: ExperimentConfig):
    """Instantiate the configured problem (constructor errors are config errors)."""
    n = config.effective_n
    try:
        if config.problem == "shaw":
            return make_shaw(n)
        if config.problem == "gravity":
            return make_gravity(n, depth=config.depth)
        if config.problem == "deriv2":
            return make_deriv2(n)
        if config.problem == "heat":
            return make_heat(n, kappa=config.kappa)
        if config.decay == "severe":
            spectrum = SpectrumModel(
                kind="severe", rho=config.rho, zeta=config.zeta, beta_picard=config.beta
            )
        else:
            spectrum = SpectrumModel(
                kind="moderate_or_mild",
                alpha=config.alpha,
                zeta=config.zeta,
                beta_picard=config.beta,
            )
        maker = make_prescribed if config.problem == "prescribed" else make_picard_synthetic
        return maker(n, spectrum, seed=config.seed)
    except ValueError as err:
        raise ConfigError(str(err)) from err


# The run pipeline ============================================================
@dataclass(frozen=True)
class RunResult:
    """What one run produced that its callers read, and where it wrote."""

    config: ExperimentConfig
    records: tuple
    summary: dict
    outdir: str


def _spectrum_for_bounds(problem):
    """The decay model the bound evaluators use: given, else fitted."""
    if problem.spectrum.kind != "empirical":
        return problem.spectrum, "given"
    try:
        return fit_spectrum_model(problem.svd.sigma), "fitted"
    except ValueError:
        return None, "none"


def _analysis_records(problem, instance, picard, state, kmax):
    """Per-step diagnostics and bound reports for k = 1..kmax."""
    fact = problem.svd
    sigma = fact.sigma
    slack = AUDIT_SLACK * sigma[0]
    model, source = _spectrum_for_bounds(problem)
    # alpha_{k+1}, the first entry of the trailing block, exists for k <= steps.
    K = min(kmax, state.steps)
    proxy = dict(decay_diagnostic(state, K))
    records, reports = [], []
    if K:
        QK = state.Q_k(K)
        gammas = gamma_exact(problem.A, QK)
        gammas_gk = gamma_via_Gk(state, K)
        VQ = fact.V.T @ QK
    for k in range(1, K + 1):
        Q = state.Q_k(k)
        gamma = float(gammas[k - 1])
        theta = ritz_values(state, k)
        sin_theta, delta = delta_norm_via_angles(fact.V, Q, VQ=VQ)
        sd = sigma_delta_norm(fact, instance.b, k, Q=Q, VQ=VQ)
        try:
            lag = lagrange_factor(sigma, k)[1]
        except ValueError:  # tied values: undefined, and bound_report says so
            lag = None
        records.append(
            AnalysisRecord(
                k=k,
                gamma=gamma,
                gamma_Gk=float(gammas_gk[k - 1]),
                sigma_k1=float(sigma[k]),
                ritz=theta,
                delta_norm=delta,
                sin_theta=sin_theta,
                sigma_delta=sd,
                lagrange_max=math.nan if lag is None else lag,
                near_best=near_best_predicate(gamma, sigma[k - 1], sigma[k], tol=slack),
                natural_order=natural_order_check(theta, sigma),
                alpha_beta_sum=proxy.get(k, math.nan),
            )
        )
        report = None
        if model is not None:
            try:
                report = bound_report(fact, picard, model, delta, k, lagrange_max=lag)
            except ValueError:
                report = None
        reports.append(report)
    return records, reports, model, source


def _check_invariants(records, sigma, state, lsqr, tsvd, reorth):
    """Audit the universal inequalities; returns human-readable violations."""
    sigma1 = float(sigma[0])
    slack = AUDIT_SLACK * sigma1
    viol = []
    for prev, rec in zip(records, records[1:]):
        if not rec.gamma < prev.gamma + slack:
            viol.append(
                f"gap not strictly decreasing at k={rec.k}: "
                f"{rec.gamma!r} vs {prev.gamma!r}"
            )
    for rec in records:
        k = rec.k
        if not rec.gamma >= rec.sigma_k1 - slack:
            viol.append(f"gap below sigma_{k + 1} at k={k}")
        if k <= state.max_proxy_k:
            a, b = state.alphas[k], state.betas[k + 1]
            if not a < rec.gamma + slack:
                viol.append(f"alpha_{k + 1} = {a!r} not below gap {rec.gamma!r}")
            if not b < rec.gamma + slack:
                viol.append(f"beta_{k + 2} = {b!r} not below gap {rec.gamma!r}")
            if not 2.0 * a * b <= rec.gamma**2 + AUDIT_SLACK * sigma1**2:
                viol.append(f"2 alpha beta above gap^2 at k={k}")
        if not cauchy_interlace_check(rec.ritz, sigma):
            viol.append(f"interlacing fails at k={k}")
        if not mirsky_gap_check(rec.ritz, sigma, rec.gamma):
            viol.append(f"Ritz gap bound fails at k={k}")
    # One index of slack: near-flat error curves around the minimum can move
    # either argmin by one, so only a gap of two or more is a real violation.
    if lsqr.kstar > tsvd.best_k + 1:
        viol.append(
            f"semi-convergence index {lsqr.kstar} exceeds realized "
            f"transition index {tsvd.best_k} by more than one"
        )
    if reorth and records:
        resid = recurrence_residuals(state, records[-1].k)
        for key in ("ortho_P", "ortho_Q"):
            if resid[key] > 1e-10:
                viol.append(f"basis orthogonality lost: {key} = {resid[key]:.3e}")
        if resid["forward"] > 1e-10 * sigma1:
            viol.append(f"recurrence residual too large: {resid['forward']:.3e}")
    return viol


def _first_failure(records, attr) -> int | None:
    for rec in records:
        if not getattr(rec, attr):
            return rec.k
    return None


def _summary_dict(config, problem, instance, picard, state, tsvd, lsqr,
                  records, model, source, violations) -> dict:
    breakdown = state.breakdown
    nat_fail = _first_failure(records, "natural_order")
    near_fail = _first_failure(records, "near_best")
    if model is None:
        model_text = "none"
    elif model.kind == "severe":
        model_text = f"severe rho={model.rho!r}"
    else:
        model_text = f"moderate_or_mild alpha={model.alpha!r}"
    return {
        "problem": problem.name,
        "m": problem.m,
        "n": problem.n,
        "epsilon": instance.epsilon,
        "seed": instance.seed,
        "generator": instance.generator,
        "eta": instance.eta,
        "reorth": config.reorth,
        "kmax": config.effective_kmax(problem.n),
        "analysis_rows": len(records),
        "breakdown": breakdown if breakdown is not None else "none",
        "breakdown_step": state.steps if breakdown is not None else "none",
        "kstar": lsqr.kstar,
        "semi_convergent": lsqr.semi_convergent,
        "k0_windowed": picard.k0,
        "k0_naive": picard.k0_naive,
        "k0_realized": tsvd.best_k,
        "best_lsqr_error": float(lsqr.rel_errors[lsqr.kstar - 1]),
        "best_tsvd_error": tsvd.best_error,
        "first_natural_order_failure": nat_fail if nat_fail is not None else "none",
        "first_near_best_failure": near_fail if near_fail is not None else "none",
        "bound_model": model_text,
        "bound_model_source": source,
        "invariant_violations": len(violations),
        "invariant_detail": "; ".join(violations) if violations else "none",
    }


def summary_lines(summary) -> list:
    """The summary as the key=value lines of ``summary.txt``."""
    return [f"{key}={format_value(value)}" for key, value in summary.items()]


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def run(config: ExperimentConfig) -> RunResult:
    """Execute one configured experiment and write its artifact directory.

    Raises :class:`ConfigError` on an invalid configuration, an output
    directory that cannot be created, a noise level so small that the
    noise draw underflows to zero, noisy data whose ||b||^2 overflows or a
    recurrence that breaks down before its first step, all before any
    artifact is written, and
    :class:`InvariantViolation` -- after all artifacts are written -- when
    a universal inequality fails beyond slack.
    A later breakdown of the recurrence is not an error: the sweeps and
    analysis are truncated at the breakdown step, which the summary records.
    """
    config.validate()
    outdir = config.out
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {outdir}: {err}") from err
    problem = build_problem(config)
    instance = add_noise(problem, config.noise, config.seed)
    if instance.eta == 0.0:
        raise ConfigError(f"noise = {config.noise!r} underflows to a zero noise draw")
    with np.errstate(over="ignore"):  # an overflow is reported here
        if not np.isfinite(np.linalg.norm(instance.b)):
            raise ConfigError(f"||b||^2 of the noisy data overflows float64 (noise = {config.noise!r})")
    picard = picard_diagnostic(instance)
    sigma1 = float(problem.svd.sigma[0])
    kmax = config.effective_kmax(problem.n)

    try:
        state, _ = bidiag_run(
            problem.A, instance.b, steps=None, reorth=config.reorth, norm_A=sigma1
        )
    except BreakdownError as err:  # at beta_1 or alpha_1, in bidiag_start
        raise ConfigError(f"the recurrence broke down at its start: {err}") from err
    if state.max_k < 1:
        raise ConfigError(
            f"the recurrence broke down at {state.breakdown} before its first step "
            "(A A' maps b onto itself, as for a spectrum flat to rounding)"
        )
    tsvd = tsvd_sweep(instance)
    lsqr = lsqr_sweep(instance, state, kmax)
    records, reports, model, source = _analysis_records(
        problem, instance, picard, state, kmax
    )
    violations = _check_invariants(
        records, problem.svd.sigma, state, lsqr, tsvd, config.reorth
    )

    def path(name):
        return os.path.join(outdir, name)

    _write_lines(path("config.txt"), config.echo_lines())
    write_picard_csv(picard, path("picard.csv"))
    write_bidiag_csv(state, path("bidiag.csv"))
    write_tsvd_csv(tsvd, path("tsvd.csv"))
    write_lsqr_csv(lsqr, path("lsqr.csv"))
    write_analysis_csv(records, reports, path("analysis.csv"))
    write_ritz_csv(records, path("ritz.csv"))
    summary = _summary_dict(
        config, problem, instance, picard, state, tsvd, lsqr,
        records, model, source, violations,
    )
    _write_lines(path("summary.txt"), summary_lines(summary))
    render_panels(outdir, config.panel_set())

    if violations:
        raise InvariantViolation(
            f"{len(violations)} invariant violation(s); see {path('summary.txt')}: "
            + "; ".join(violations)
        )
    return RunResult(config=config, records=tuple(records), summary=summary, outdir=outdir)


# CSV artifacts ===============================================================
# Every byte of a run's CSVs is decided here: the file list, each writer's
# columns, and the classification ``compare`` applies to them.

#: CSV artifacts of one run, in pipeline order.
ARTIFACT_CSVS = (
    "picard.csv",
    "bidiag.csv",
    "tsvd.csv",
    "lsqr.csv",
    "analysis.csv",
    "ritz.csv",
)

#: CSV columns and summary keys that must agree between two runs differing
#: only in the noise seed; every other name is noise-dependent.
NOISE_INDEPENDENT_COLUMNS = frozenset(
    {"i", "k", "index", "sigma_i", "abs_uiTbtrue", "sigma_k1", "lagrange_max", "regime",
     "problem", "m", "n", "generator", "reorth", "kmax", "bound_model", "bound_model_source"}
)
#: Summary ``problem`` names of the synthetic problems (prescribed and
#: picard_synthetic), whose singular vectors the config seed draws together
#: with the noise: for them the computed spectrum columns depend on the seed.
SEEDED_PROBLEM_PREFIXES = ("prescribed-", "picard-")
SPECTRUM_COLUMNS = frozenset({"sigma_i", "abs_uiTbtrue", "sigma_k1", "lagrange_max"})

_RECORD_COLUMNS = [f.name for f in fields(AnalysisRecord) if f.name != "ritz"]
_BOUND_COLUMNS = [f.name for f in fields(BoundReport) if f.name != "k"]
ANALYSIS_COLUMNS = _RECORD_COLUMNS + _BOUND_COLUMNS
#: Bound columns of a step without a bound report.
_NO_BOUNDS = dict.fromkeys(_BOUND_COLUMNS, math.nan) | {"regime": "none", "k0_used": -1}


def write_picard_csv(diag, path) -> None:
    """Export the coefficient-decay diagnostic as CSV (kind ``picard``)."""
    n = diag.sigma.size
    write_csv(path, "picard", {
        "i": range(1, n + 1), "sigma_i": diag.sigma, "abs_uiTb": diag.coef,
        "abs_uiTbtrue": diag.coef_true, "eta": np.full(n, diag.eta),
    })


def write_bidiag_csv(state, path) -> None:
    """Export the recurrence coefficients as CSV (kind ``bidiag``)."""
    K = len(state.alphas)
    beta_next = state.betas[1 : K + 1]
    beta_next += [float("nan")] * (K - len(beta_next))
    columns = {"index": range(1, K + 1), "alpha": state.alphas, "beta_next": beta_next}
    write_csv(path, "bidiag", columns)


def write_tsvd_csv(sweep, path) -> None:
    """Export the truncation sweep as CSV (kind ``tsvd``)."""
    columns = {"k": sweep.ks, "rel_error": sweep.rel_errors, "residual": sweep.residuals}
    write_csv(path, "tsvd", columns)


def write_lsqr_csv(trace, path) -> None:
    """Export the projected-iteration trace as CSV (kind ``lsqr``); flags the kstar row."""
    write_csv(path, "lsqr", {
        "k": trace.ks, "rel_error": trace.rel_errors,
        "residual": trace.residuals, "is_kstar": trace.ks == trace.kstar,
    })


def write_analysis_csv(records, reports, path) -> None:
    """Export per-step records (and bound reports, where present) as CSV.

    ``reports`` aligns with ``records``; entries may be ``None`` when no
    decay model was available, in which case the bound columns are nan.
    """
    steps = [
        {**(_NO_BOUNDS if rep is None else vars(rep)), **vars(rec)}
        for rec, rep in zip(records, reports)
    ]
    write_csv(path, "analysis", {name: [s[name] for s in steps] for name in ANALYSIS_COLUMNS})


def write_ritz_csv(records, path) -> None:
    """Export Ritz values in long format (columns k, i, theta)."""
    write_csv(path, "ritz", {
        "k": [rec.k for rec in records for _ in rec.ritz],
        "i": [i for rec in records for i in range(1, len(rec.ritz) + 1)],
        "theta": np.concatenate([np.empty(0), *(rec.ritz for rec in records)]),
    })


# Figure panels (pure functions of the CSV artifacts) ========================
def render_panels(outdir, panels: str = "abcd") -> list:
    """Render the requested figure panels by reading the CSVs in ``outdir``.

    The CSVs are the only input -- rendering twice from the same files
    produces identical SVGs.  Returns the list of files written.
    """

    def path(name):
        return os.path.join(outdir, name)

    def columns(name):
        return read_csv(path(name))[1]

    written = []

    def emit(letter, chart):
        name = f"panel_{letter}.svg"
        with open(path(name), "w", encoding="ascii", newline="\n") as fh:
            fh.write(chart.render())
        written.append(name)

    # Chart converts its inputs to float, so columns go in as read.
    if "a" in panels or "c" in panels:
        analysis = columns("analysis.csv")
        ks, gamma = analysis["k"], analysis["gamma"]
    if "a" in panels:
        chart = Chart("Rank-k gap vs trailing singular value", "k", "value (log)", ylog=True)
        chart.add_series("gamma_k", ks, gamma, marker=True)
        chart.add_series("sigma_{k+1}", ks, analysis["sigma_k1"], dashed=True)
        emit("a", chart)
    if "b" in panels:
        ritz, picard = columns("ritz.csv"), columns("picard.csv")
        top = int(max(map(float, ritz["k"]))) + 1 if ritz["k"] else len(picard["i"])
        chart = Chart("Ritz values against the spectrum", "index", "value (log)", ylog=True)
        chart.add_series("theta_i(k) at x=k", ritz["k"], ritz["theta"], scatter=True)
        chart.add_series(
            "sigma_i at x=i", picard["i"][:top], picard["sigma_i"][:top], dashed=True
        )
        emit("b", chart)
    if "c" in panels:
        chart = Chart("Gap decay vs recurrence coefficients", "k", "value (log)", ylog=True)
        chart.add_series("alpha_{k+1}+beta_{k+2}", ks, analysis["alpha_beta_sum"], marker=True)
        chart.add_series("gamma_k", ks, gamma, dashed=True)
        emit("c", chart)
    if "d" in panels:
        lsqr, tsvd = columns("lsqr.csv"), columns("tsvd.csv")
        lk, tk = lsqr["k"], tsvd["k"]
        terr = [float(e) for e in tsvd["rel_error"]]
        best = min(range(len(terr)), key=terr.__getitem__) if terr else 0
        span = max(int(lk[-1]) if lk else 0, (best + 1) + 5)
        keep = [j for j, k in enumerate(tk) if int(k) <= span]
        chart = Chart("Semi-convergence of the iterates", "k", "relative error (log)", ylog=True)
        chart.add_series("lsqr", lk, lsqr["rel_error"], marker=True)
        chart.add_series("tsvd", [tk[j] for j in keep], [terr[j] for j in keep])
        if "1" in lsqr["is_kstar"]:
            chart.add_vline(lk[lsqr["is_kstar"].index("1")], "k*")
        if terr:
            chart.add_vline(tk[best], "k0")
        emit("d", chart)
    return written


# Artifact comparison =========================================================
@dataclass(frozen=True)
class ColumnDiff:
    """One differing column (or structural mismatch) between two artifacts."""

    file: str
    column: str
    count: int
    max_rel: float
    tolerance: float
    noise_dependent: bool


@dataclass(frozen=True)
class CompareReport:
    """Outcome of comparing two artifact directories."""

    ok: bool
    diffs: tuple
    notes: tuple

    def lines(self) -> list:
        out = []
        for d in self.diffs:
            kind = "noise-dependent" if d.noise_dependent else "noise-independent"
            out.append(
                f"DIFF {d.file} column {d.column}: {d.count} cell(s), "
                f"max relative {d.max_rel:.3e}, tolerance {d.tolerance:g} ({kind})"
            )
        out.extend(f"NOTE {n}" for n in self.notes)
        out.append("RESULT " + ("match" if self.ok else "mismatch"))
        return out


def _cells_differ(a: str, b: str, tol: float):
    """(differs, relative difference) for two CSV cells."""
    if a == b:
        return False, 0.0
    try:
        fa, fb = float(a), float(b)
    except ValueError:
        return True, math.inf
    if math.isnan(fa) and math.isnan(fb):
        return False, 0.0
    if fa == fb:
        return False, 0.0
    scale = max(abs(fa), abs(fb))
    if not math.isfinite(scale):
        return True, math.inf
    rel = abs(fa - fb) / scale
    return rel > tol, rel


def compare(dir_a, dir_b, tolerances: dict | None = None) -> CompareReport:
    """Column-wise diff of two artifact directories.

    ``tolerances`` maps column names to relative tolerances (default exact).
    A tolerance of ``inf`` ignores its column.  Returns a
    :class:`CompareReport`; raises :class:`ConfigError` on a nan or negative
    tolerance, when a path is not a directory, when neither directory holds
    an artifact, or when an artifact is unreadable or the schemas disagree.
    """
    for column, tol in (tolerances or {}).items():
        if not tol >= 0.0:  # also catches nan, which no difference exceeds
            raise ConfigError(f"tolerance for {column} must be nonnegative, got {tol!r}")
    for d in (dir_a, dir_b):
        if not os.path.isdir(d):
            raise ConfigError(f"not a directory: {d}")
    names = ARTIFACT_CSVS + ("summary.txt",)
    if not any(os.path.exists(os.path.join(d, n)) for d in (dir_a, dir_b) for n in names):
        raise ConfigError(f"no artifacts in {dir_a} or {dir_b}")
    tolerances = dict(tolerances or {})
    diffs, notes = [], []
    summaries = []
    for d in (dir_a, dir_b):
        path = os.path.join(d, "summary.txt")
        summaries.append(parse_config_file(path) if os.path.exists(path) else None)
    independent = NOISE_INDEPENDENT_COLUMNS
    if any(kv and kv.get("problem", "").startswith(SEEDED_PROBLEM_PREFIXES) for kv in summaries):
        independent = independent - SPECTRUM_COLUMNS

    def column_diffs(file, cols_a, cols_b):
        for column, cells_a in cols_a.items():
            tol = tolerances.get(column, 0.0)
            outcomes = [_cells_differ(a, b, tol) for a, b in zip(cells_a, cols_b[column])]
            rels = [rel for differs, rel in outcomes if differs]
            if rels:
                yield ColumnDiff(file, column, len(rels), max(rels), tol, column not in independent)

    for name in ARTIFACT_CSVS:
        pa, pb = os.path.join(dir_a, name), os.path.join(dir_b, name)
        have_a, have_b = os.path.exists(pa), os.path.exists(pb)
        if not have_a and not have_b:
            continue
        if have_a != have_b:
            diffs.append(ColumnDiff(name, "<file>", 1, math.inf, 0.0, True))
            continue
        try:
            kind_a, cols_a = read_csv(pa)
            kind_b, cols_b = read_csv(pb)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        if kind_a != kind_b or list(cols_a) != list(cols_b):
            raise ConfigError(f"{name}: artifact schemas disagree")
        rows_a, rows_b = (len(next(iter(cols.values()))) for cols in (cols_a, cols_b))
        if rows_a != rows_b:
            diffs.append(ColumnDiff(name, "<rows>", abs(rows_a - rows_b), math.inf, 0.0, True))
        diffs.extend(column_diffs(name, cols_a, cols_b))
    kva, kvb = summaries
    if (kva is None) != (kvb is None):
        diffs.append(ColumnDiff("summary.txt", "<file>", 1, math.inf, 0.0, True))
    elif kva is not None:  # a one-row table with a column per key
        keys = sorted(set(kva) | set(kvb))
        tables = ({key: [kv.get(key, "")] for key in keys} for kv in (kva, kvb))
        diffs.extend(column_diffs("summary.txt", *tables))
    for column, tol in sorted(tolerances.items()):
        notes.append(f"column {column}: tolerance relaxed to {tol:g}")
    notes.append("config echo and SVG panels are derived inputs/outputs; not compared")
    return CompareReport(ok=not diffs, diffs=tuple(diffs), notes=tuple(notes))
