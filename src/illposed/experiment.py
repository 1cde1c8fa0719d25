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
    panel_[abcd].svg  figure panels of values the CSVs hold

Every panel plots values the CSVs hold, drawn from the run's results in
memory after the CSVs are written, and a rerun of the same configuration
reproduces every file byte for byte.  After writing the artifacts the runner
audits the universal inequalities (gap monotonicity, interlacing, ...) and
raises :class:`InvariantViolation` if any fails beyond slack; the comparison
tool diffs two artifact directories column by column with optional
per-column tolerances.
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
from .bidiag import bidiag_run, recurrence_residuals
from .csvio import format_value, read_csv, write_csv, write_lines
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
from .noise import add_noise, picard_diagnostic
from .svgplot import Chart
from .sweeps import lsqr_sweep, tsvd_sweep

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


# Problem construction ========================================================
#: The key that sets the rate of each decay family of a synthetic spectrum.
_DECAY_RATE = {"severe": "rho", "moderate": "alpha", "mild": "alpha"}
DECAYS = tuple(_DECAY_RATE)
MAX_N = 4096


def _spectrum(c) -> SpectrumModel:
    rate = _DECAY_RATE[c.decay]
    # prescribed reads no beta, so this is 0.0: None would make its bounds fit one.
    return SpectrumModel("severe" if rate == "rho" else "moderate_or_mild", zeta=c.zeta,
                         beta_picard=c.beta, **{rate: getattr(c, rate)})


#: Each problem's builder of (config, effective n) and the problem-specific keys
#: it reads; "decay" also reads the rate key of its family.
_PROBLEM_TABLE = {
    "shaw": (lambda c, n: make_shaw(n), ()),
    "gravity": (lambda c, n: make_gravity(n, depth=c.depth), ("depth",)),
    "deriv2": (lambda c, n: make_deriv2(n), ()),
    "heat": (lambda c, n: make_heat(n, kappa=c.kappa), ("kappa",)),
    "prescribed": (lambda c, n: make_prescribed(n, _spectrum(c), c.seed), ("decay", "zeta")),
    "picard_synthetic": (lambda c, n: make_picard_synthetic(n, _spectrum(c), c.seed),
                         ("decay", "zeta", "beta")),
}
PROBLEMS = tuple(_PROBLEM_TABLE)
#: A problem that does not read one of these keys requires its default.
_PROBLEM_KEYS = {k for _, keys in _PROBLEM_TABLE.values() for k in keys} | set(_DECAY_RATE.values())


def build_problem(config: ExperimentConfig):
    """Instantiate the configured problem; the constructor's ``ValueError``
    (shaw's odd n, gravity's depth, ...) propagates."""
    return _PROBLEM_TABLE[config.problem][0](config, config.effective_n)


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
    rho: float = _key(2.0, "geometric decay ratio (prescribed, picard_synthetic; decay=severe)")
    alpha: float = _key(2.0, "power-law exponent (prescribed, picard_synthetic; decay=moderate/mild)")
    zeta: float = _key(1.0, "spectrum scale factor (prescribed, picard_synthetic)")
    beta: float = _key(0.0, "coefficient decay exponent of the data (picard_synthetic)")
    decay: str = _key("severe", f"spectrum family ({', '.join(DECAYS)}) of prescribed, picard_synthetic")
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
        # config.txt echoes out on an ASCII key=value line that must re-parse
        # to the same value, and parsing strips it.
        if not (self.out.isascii() and self.out.isprintable() and self.out == self.out.strip()):
            raise ConfigError(
                f"out must be printable ASCII without surrounding whitespace, got {self.out!r}"
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
        # The constructors check the range of each key they read.
        keys = _PROBLEM_TABLE[self.problem][1]
        reads = keys + (_DECAY_RATE[self.decay],) if "decay" in keys else keys
        for f in fields(self):
            if f.name in _PROBLEM_KEYS and f.name not in reads and getattr(self, f.name) != f.default:
                raise ConfigError(
                    f"{f.name}={getattr(self, f.name)!r} builds nothing: problem {self.problem} "
                    f"reads {', '.join(reads) or 'no problem-specific key'}"
                )

    def echo_lines(self) -> list:
        """The configuration as re-parseable key=value lines."""
        def text(v):  # str of a float is its shortest round-trip repr
            return "none" if v is None else str(v).lower() if isinstance(v, bool) else str(v)

        return [f"{f.name}={text(getattr(self, f.name))}" for f in fields(self)]


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
    """Read a flat key=value file (# comments and blank lines ignored); a
    key given twice is an error."""
    raw, first = {}, {}
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
        key = key.strip()
        if key in first:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {first[key]}")
        first[key] = lineno
        raw[key] = value.strip()
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


# The run pipeline ============================================================
@dataclass(frozen=True)
class RunResult:
    """What one run produced that its callers read, and where it wrote.

    ``records`` holds every ``analysis.csv`` row, bounds included."""

    config: ExperimentConfig
    records: tuple
    summary: dict
    outdir: str


def _analysis_records(problem, picard, state, kmax):
    """Per-step diagnostics with their bounds for k = 1..kmax, the decay
    model the bounds use (the problem's, else one fitted to its spectrum)
    and its source."""
    fact = problem.svd
    sigma = fact.sigma
    model, source = problem.spectrum, "given"
    if model is None:
        try:
            model, source = fit_spectrum_model(sigma), "fitted"
        except ValueError:
            source = "none"
    # alpha_{k+1}, the first entry of the trailing block, exists for k <= steps.
    K = min(kmax, state.steps)
    proxy = dict(decay_diagnostic(state, K))
    records = []
    if K:
        QK = state.Q_k(K)
        gammas = gamma_exact(problem.A, QK)
        gammas_gk = gamma_via_Gk(state, K)
        VQ = fact.V.T @ QK
    for k in range(1, K + 1):
        gamma = float(gammas[k - 1])
        theta = ritz_values(state, k)
        sin_theta, delta = delta_norm_via_angles(VQ, k)
        sd = sigma_delta_norm(VQ, sigma, k)
        lag = lagrange_factor(sigma, k)[1]
        bounds = None
        if model is not None:
            try:
                bounds = bound_report(fact, picard, model, delta, k, lag)
            except ValueError:  # undefined at this step; bound_report names why
                pass
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
                lagrange_max=lag,
                near_best=near_best_predicate(gamma, sigma, k),
                natural_order=natural_order_check(theta, sigma),
                alpha_beta_sum=proxy.get(k, math.nan),
                bounds=bounds,
            )
        )
    return records, model, source


def _check_invariants(records, sigma, state, lsqr, tsvd):
    """Audit the universal inequalities to ``AUDIT_SLACK`` (times sigma_1, or
    sigma_1^2, on sigma's scale); returns human-readable violations."""
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
    if lsqr.best_k > tsvd.best_k + 1:
        viol.append(
            f"semi-convergence index {lsqr.best_k} exceeds realized "
            f"transition index {tsvd.best_k} by more than one"
        )
    if state.reorth and records:
        resid = recurrence_residuals(state, records[-1].k)
        for key in ("ortho_P", "ortho_Q"):
            if resid[key] > AUDIT_SLACK:
                viol.append(f"basis orthogonality lost: {key} = {resid[key]:.3e}")
        if resid["forward"] > slack:
            viol.append(f"recurrence residual too large: {resid['forward']:.3e}")
    return viol


def _first_failure(records, attr):
    """The first step whose flag ``attr`` is false, else ``"none"``."""
    return next((rec.k for rec in records if not getattr(rec, attr)), "none")


def _summary_dict(config, instance, picard, state, tsvd, lsqr,
                  records, model, source, violations) -> dict:
    problem, breakdown = instance.problem, state.breakdown
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
        "reorth": state.reorth,
        "kmax": config.effective_kmax(problem.n),
        "analysis_rows": len(records),
        "breakdown": breakdown if breakdown is not None else "none",
        "breakdown_step": state.steps if breakdown is not None else "none",
        "kstar": lsqr.best_k,
        "semi_convergent": lsqr.semi_convergent,
        "k0_windowed": picard.k0,
        "k0_naive": picard.k0_naive,
        "k0_realized": tsvd.best_k,
        "best_lsqr_error": lsqr.best_error,
        "best_tsvd_error": tsvd.best_error,
        "first_natural_order_failure": _first_failure(records, "natural_order"),
        "first_near_best_failure": _first_failure(records, "near_best"),
        "bound_model": model_text,
        "bound_model_source": source,
        "invariant_violations": len(violations),
        "invariant_detail": "; ".join(violations) if violations else "none",
    }


def summary_lines(summary) -> list:
    """The summary as the key=value lines of ``summary.txt``."""
    return [f"{key}={format_value(value)}" for key, value in summary.items()]


def run(config: ExperimentConfig) -> RunResult:
    """Execute one configured experiment and write its artifact directory.

    Raises :class:`ConfigError`, before any artifact is written, on an
    invalid configuration, an output directory that cannot be created, or a
    ``ValueError`` of ``build_problem`` (shaw's odd n, ...), ``add_noise`` (a
    draw that underflows to zero, a noisy ||b||^2 that overflows),
    ``bidiag_run`` (a sigma_1 below about 2.2e-294, where the breakdown
    tolerance 1e-14 * sigma_1 is not a normal float; a square factorization
    whose beta_{n+1} does not vanish) or ``lsqr_sweep`` (a recurrence that
    breaks down before its first step); and :class:`InvariantViolation`, after
    all artifacts are written, when a universal inequality fails beyond slack.
    A later breakdown of the recurrence is not an error: the sweeps and
    analysis are truncated at the breakdown step, which the summary records.
    """
    config.validate()
    outdir = config.out
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {outdir}: {err}") from err
    kmax = config.effective_kmax(config.effective_n)
    try:
        problem = build_problem(config)
        instance = add_noise(problem, config.noise, config.seed)
        state = bidiag_run(problem.A, instance.b, reorth=config.reorth, norm_A=problem.svd.sigma[0])
        lsqr = lsqr_sweep(instance, state, kmax)
    except ValueError as err:  # a producer refuses the configured problem or data
        raise ConfigError(str(err)) from err
    picard = picard_diagnostic(instance)
    tsvd = tsvd_sweep(instance)
    records, model, source = _analysis_records(problem, picard, state, kmax)
    violations = _check_invariants(records, problem.svd.sigma, state, lsqr, tsvd)

    def path(name):
        return os.path.join(outdir, name)

    write_lines(path("config.txt"), config.echo_lines())
    write_picard_csv(picard, path("picard.csv"))
    write_bidiag_csv(state, path("bidiag.csv"))
    write_tsvd_csv(tsvd, path("tsvd.csv"))
    write_lsqr_csv(lsqr, path("lsqr.csv"))
    write_analysis_csv(records, path("analysis.csv"))
    write_ritz_csv(records, path("ritz.csv"))
    summary = _summary_dict(
        config, instance, picard, state, tsvd, lsqr, records, model, source, violations
    )
    write_lines(path("summary.txt"), summary_lines(summary))
    render_panels(outdir, config.panel_set(), records, problem.svd.sigma, lsqr, tsvd)

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

_RECORD_COLUMNS = [f.name for f in fields(AnalysisRecord) if f.name not in ("ritz", "bounds")]
_BOUND_COLUMNS = [f.name for f in fields(BoundReport)]
ANALYSIS_COLUMNS = _RECORD_COLUMNS + _BOUND_COLUMNS
#: Bound columns of a step without bounds.
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


def write_lsqr_csv(sweep, path) -> None:
    """Export the projected-iteration sweep as CSV (kind ``lsqr``); flags the kstar row."""
    write_csv(path, "lsqr", {
        "k": sweep.ks, "rel_error": sweep.rel_errors,
        "residual": sweep.residuals, "is_kstar": sweep.ks == sweep.best_k,
    })


def write_analysis_csv(records, path) -> None:
    """Export per-step records with their bounds as CSV; a record without
    bounds gets ``_NO_BOUNDS`` in the bound columns."""
    steps = [
        {**(_NO_BOUNDS if rec.bounds is None else vars(rec.bounds)), **vars(rec)}
        for rec in records
    ]
    write_csv(path, "analysis", {name: [s[name] for s in steps] for name in ANALYSIS_COLUMNS})


def write_ritz_csv(records, path) -> None:
    """Export Ritz values in long format (columns k, i, theta)."""
    write_csv(path, "ritz", {
        "k": [rec.k for rec in records for _ in rec.ritz],
        "i": [i for rec in records for i in range(1, len(rec.ritz) + 1)],
        "theta": np.concatenate([np.empty(0), *(rec.ritz for rec in records)]),
    })


# Figure panels (the run's own results) ======================================
def render_panels(outdir, panels, records, sigma, lsqr, tsvd) -> list:
    """Render the requested figure panels into ``outdir`` from a run's
    analysis records, the problem's singular values and the two sweeps.

    Each panel plots values its CSVs hold, and the k* and k0 lines sit at
    ``lsqr.best_k`` and ``tsvd.best_k``, the summary's ``kstar`` and
    ``k0_realized``.  Returns the list of files written.
    """
    charts = {}

    def chart(letter, title, xlabel="k", ylabel="value (log)"):
        charts[letter] = Chart(title, xlabel, ylabel, ylog=True)
        return charts[letter]

    ks = [rec.k for rec in records]
    gamma = [rec.gamma for rec in records]
    if "a" in panels:
        a = chart("a", "Rank-k gap vs trailing singular value")
        a.add_series("gamma_k", ks, gamma, marker=True)
        a.add_series("sigma_{k+1}", ks, [rec.sigma_k1 for rec in records], dashed=True)
    if "b" in panels:
        b = chart("b", "Ritz values against the spectrum", xlabel="index")
        b.add_series(
            "theta_i(k) at x=k",
            [rec.k for rec in records for _ in rec.ritz],
            [theta for rec in records for theta in rec.ritz],
            scatter=True,
        )
        head = sigma[: ks[-1] + 1] if ks else sigma
        b.add_series("sigma_i at x=i", range(1, head.size + 1), head, dashed=True)
    if "c" in panels:
        c = chart("c", "Gap decay vs recurrence coefficients")
        proxy = [rec.alpha_beta_sum for rec in records]
        c.add_series("alpha_{k+1}+beta_{k+2}", ks, proxy, marker=True)
        c.add_series("gamma_k", ks, gamma, dashed=True)
    if "d" in panels:
        d = chart("d", "Semi-convergence of the iterates", ylabel="relative error (log)")
        d.add_series("lsqr", lsqr.ks, lsqr.rel_errors, marker=True)
        keep = tsvd.ks <= max(lsqr.ks[-1], tsvd.best_k + 5)
        d.add_series("tsvd", tsvd.ks[keep], tsvd.rel_errors[keep])
        d.add_vline(lsqr.best_k, "k*")
        d.add_vline(tsvd.best_k, "k0")
    names = [f"panel_{letter}.svg" for letter in charts]
    for name, panel in zip(names, charts.values()):
        write_lines(os.path.join(outdir, name), panel.lines())
    return names


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
        return math.inf > tol, math.inf
    if fa == fb or (math.isnan(fa) and math.isnan(fb)):
        return False, 0.0
    if not (math.isfinite(fa) and math.isfinite(fb)):  # nan against a number too
        return math.inf > tol, math.inf
    rel = abs(fa - fb) / max(abs(fa), abs(fb))
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
        except (OSError, ValueError) as err:
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
