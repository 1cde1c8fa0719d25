"""Unit tests for the experiment runner, artifact comparison, and CLI."""

import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import textwrap
from dataclasses import field, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import illposed

from illposed import experiment
from illposed.analysis import (
    AnalysisRecord,
    delta_norm_via_angles,
    lagrange_factor,
    sigma_delta_norm,
)
from illposed.bidiag import bidiag_run
from illposed.cli import main as cli_main
from illposed.csvio import format_value, read_csv
from illposed.experiment import (
    _NO_BOUNDS,
    ANALYSIS_COLUMNS,
    ARTIFACT_CSVS,
    NOISE_INDEPENDENT_COLUMNS,
    SPECTRUM_COLUMNS,
    ConfigError,
    ExperimentConfig,
    InvariantViolation,
    build_problem,
    compare,
    load_config,
    parse_config_file,
    render_panels,
    run,
)
from illposed.gallery import make_deriv2
from illposed.noise import add_noise
from illposed.sweeps import lsqr_sweep, tsvd_sweep

ALL_ARTIFACTS = ("config.txt",) + ARTIFACT_CSVS + (
    "summary.txt",
    "panel_a.svg",
    "panel_b.svg",
    "panel_c.svg",
    "panel_d.svg",
)

SUMMARY_KEYS = [
    "problem", "m", "n", "epsilon", "seed", "generator", "eta", "reorth",
    "kmax", "analysis_rows", "breakdown", "breakdown_step", "kstar",
    "semi_convergent", "k0_windowed", "k0_naive", "k0_realized",
    "best_lsqr_error", "best_tsvd_error", "first_natural_order_failure",
    "first_near_best_failure", "bound_model", "bound_model_source",
    "invariant_violations", "invariant_detail",
]


def small_config(outdir, **overrides):
    raw = {"problem": "deriv2", "n": "32", "kmax": "8", "out": str(outdir)}
    raw.update({k: str(v) for k, v in overrides.items()})
    return load_config(None, raw)


def read_summary(outdir):
    out = {}
    with open(os.path.join(outdir, "summary.txt"), encoding="ascii") as fh:
        for ln in fh:
            key, _, value = ln.rstrip("\n").partition("=")
            out[key] = value
    return out


@pytest.fixture(scope="module")
def base_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("experiment") / "base"
    result = run(small_config(outdir))
    return result


_SYNTHETIC = ("prescribed", "picard_synthetic")
#: Every (problem, decay) family a config can name; a kernel reads no decay.
_FAMILIES = [(p, "severe") for p in ("shaw", "gravity", "deriv2", "heat")] + [
    (p, d) for p in _SYNTHETIC for d in experiment.DECAYS
]
#: The problems that read each problem-specific key; of rho and alpha, a
#: spectrum reads rho under severe decay and alpha under the others.
_READERS = {"depth": ("gravity",), "kappa": ("heat",), "rho": _SYNTHETIC, "alpha": _SYNTHETIC,
            "zeta": _SYNTHETIC, "beta": ("picard_synthetic",), "decay": _SYNTHETIC}


# Configuration ----------------------------------------------------------------
def test_load_config_coerces_types(tmp_path):
    cfg = load_config(
        None,
        {"problem": "shaw", "n": "64", "noise": "1e-2", "seed": "3",
         "kmax": "none", "reorth": "false", "scale": "0.5"},
    )
    assert cfg.problem == "shaw"
    assert cfg.n == 64 and isinstance(cfg.n, int)
    assert cfg.noise == 0.01
    assert cfg.seed == 3
    assert cfg.kmax is None
    assert cfg.reorth is False
    assert cfg.effective_n == 32
    assert cfg.effective_kmax(256) == 40
    assert cfg.effective_kmax(24) == 24


def test_load_config_rejects_bad_values():
    cases = [
        ({"problem": "nope"}, "unknown problem"),
        ({"noise": "2"}, "noise"),
        ({"seed": "-1"}, "seed"),
        ({"n": "32", "kmax": "100"}, "kmax"),
        ({"panels": "xz"}, "panels"),
        ({"decay": "fast"}, "decay"),
        ({"rho": "1.0"}, "rho"),
        ({"alpha": "0.5"}, "alpha"),
        ({"beta": "-1"}, "beta"),
        ({"scale": "0"}, "scale"),
        ({"scale": "nan"}, "scale must be finite"),
        ({"scale": "inf"}, "scale must be finite"),
        ({"depth": "nan"}, "depth must be finite"),
        ({"n": "1"}, "outside"),
        ({"bogus_key": "1"}, "unknown config key"),
        ({"reorth": "maybe"}, "bad value for reorth"),
        ({"n": "abc"}, "bad value for n"),
    ]
    for overrides, needle in cases:
        with pytest.raises(ConfigError, match=needle):
            load_config(None, overrides)


def test_load_config_rejects_an_out_that_config_txt_cannot_echo():
    # config.txt is ASCII key=value lines: a non-ASCII out cannot be written
    # there, and a line break or NUL would not re-parse.
    for out in ("r\u00e9sultats", "a\nb", "a\rb", "a\x00b"):
        with pytest.raises(ConfigError, match="out must be printable ASCII"):
            load_config(None, {"problem": "deriv2", "n": "16", "out": out})
    assert load_config(None, {"out": "runs/deriv2 n=16_#1"}).out == "runs/deriv2 n=16_#1"


def test_run_rejects_an_out_that_config_txt_would_strip(tmp_path, monkeypatch):
    # Reading config.txt strips each value, so its echo of "ws_out " would
    # name another directory; the run stops before making any.
    monkeypatch.chdir(tmp_path)
    for out in (str(tmp_path / "ws_out "), " ws_out"):
        with pytest.raises(ConfigError, match="without surrounding whitespace"):
            run(ExperimentConfig(problem="deriv2", n=16, out=out))
    assert os.listdir(tmp_path) == []


def test_load_config_reads_a_non_string_value_from_its_text():
    # A library caller may pass numbers; a float is not an int setting.
    for key, value in (("seed", 1.5), ("n", 32.5), ("kmax", 3.5)):
        with pytest.raises(ConfigError, match=f"bad value for {key}"):
            load_config(None, {"problem": "deriv2", "n": 32, key: value})
    cfg = load_config(None, {"n": 32, "noise": 0.01, "scale": 1, "reorth": False})
    assert (cfg.n, cfg.noise, cfg.scale, cfg.reorth) == (32, 0.01, 1.0, False)
    assert isinstance(cfg.scale, float)


@pytest.mark.parametrize(
    "key, value",
    [("seed", 1.5), ("seed", -0.0), ("n", 32.5), ("n", 16.0), ("n", True), ("kmax", 3.5),
     ("kmax", True), ("panels", None), ("out", None)],
)
def test_a_library_config_refuses_what_the_cli_refuses(key, value):
    # ExperimentConfig(...) reads its values as a --flag or a config file is
    # read: a float or a bool is not an int setting, and a text setting takes
    # text only.
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig(**{"problem": "deriv2", "n": 32, key: value})


@pytest.mark.parametrize(
    "key, text, want",
    [("noise", "0.001", 0.001), ("scale", "1", 1.0), ("depth", "1", 1.0), ("n", "16", 16),
     ("reorth", "false", False)],
)
def test_a_library_config_reads_text_as_its_field_type(key, text, want):
    value = getattr(ExperimentConfig(problem="gravity", **{key: text}), key)  # gravity reads depth
    assert value == want and type(value) is type(want)


def test_a_reorth_false_text_runs_without_reorthogonalization(tmp_path):
    # The text "false" used to reach the recurrence as a true value: the run
    # reorthogonalized while config.txt said reorth=false.
    config = ExperimentConfig(problem="deriv2", n=16, reorth="false", out=str(tmp_path))
    try:
        run(config)
    except InvariantViolation:  # the artifacts are written first
        pass
    assert read_summary(tmp_path)["reorth"] == "0"
    assert "reorth=false" in (tmp_path / "config.txt").read_text(encoding="ascii").splitlines()


def test_every_config_field_has_a_reader():
    # The reader matches annotation strings, which this module's postponed
    # annotations give; any other annotation, a type object included, must
    # fail loudly rather than keep its value unread.
    kinds = {f.type for f in fields(ExperimentConfig)}
    assert kinds <= {"str", "int", "float", "int | None", "bool"}
    for f in fields(ExperimentConfig):
        assert experiment._coerce(f, f.default) == f.default, f.name
    for annotation in ("tuple", "float | None", float):
        odd = field()
        odd.name, odd.type = "odd", annotation
        with pytest.raises(TypeError, match="no reader for config field odd"):
            experiment._coerce(odd, "1.5")


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\n\nproblem = gravity\nn=24\n", encoding="ascii")
    assert parse_config_file(path) == {"problem": "gravity", "n": "24"}
    cfg = load_config(path, {"seed": "5"})
    assert cfg.problem == "gravity" and cfg.n == 24 and cfg.seed == 5
    bad = tmp_path / "bad.cfg"
    bad.write_text("problem gravity\n", encoding="ascii")
    with pytest.raises(ConfigError, match="expected key=value"):
        parse_config_file(bad)
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file(tmp_path / "missing.cfg")


@pytest.mark.parametrize("problem, decay", _FAMILIES)
def test_config_echo_reparses_identically(problem, decay, tmp_path):
    # config.txt echoes every key, the defaults of those the problem does not read too.
    rate = {"rho": "1.5"} if decay == "severe" else {"alpha": "1.5"}
    cfg = load_config(
        None,
        {"problem": problem, "decay": decay, **(rate if problem in _SYNTHETIC else {}),
         "n": "48", "noise": "0.001", "kmax": "none", "out": "results/x"},
    )
    path = tmp_path / "echo.cfg"
    path.write_text("\n".join(cfg.echo_lines()) + "\n", encoding="ascii")
    assert load_config(path) == cfg


def test_readme_key_table_matches_the_config_fields():
    # One row per ExperimentConfig field, in field order, under "Command
    # line"; each default cell, read as a config value, is the field default.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n")[1].split("\n#")[0]  # to the next heading
    rows = [ln.split("|") for ln in section.splitlines() if ln.startswith("| `")]
    table = {cells[1].strip().strip("`"): cells[-2].strip() for cells in rows}
    assert len(rows) == len(table), "a key has two rows"
    assert list(table) == [f.name for f in fields(ExperimentConfig)]
    for f in fields(ExperimentConfig):
        assert getattr(load_config(None, {f.name: table[f.name]}), f.name) == f.default, f.name


def test_readme_library_tour_runs_as_documented(capsys):
    # The tour's first print is documented as "7 7 7"; its last, the
    # near-best verdict at the semi-convergence index, as True.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text.split("\n## Library tour\n")[1]
    code = section.split("```python\n")[1].split("```")[0]
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert (lines[0], lines[-1]) == ("7 7 7", "True")


def test_package_docstring_flow_runs_as_documented():
    # The "Typical flow::" literal block of the package docstring, which
    # ends in an assert of its own.
    after = illposed.__doc__.split("Typical flow::\n")[1]
    block = re.match(r"(?:(?: {4}.*)?\n)*", after).group(0)
    code = textwrap.dedent(block)
    assert "tsvd_sweep(instance)" in code
    exec(compile(code, "illposed/__init__.py", "exec"), {})


def test_build_problem_dispatch_and_errors(tmp_path):
    cfg = load_config(None, {"problem": "picard_synthetic", "decay": "moderate",
                             "alpha": "1.5", "n": "16"})
    prob = build_problem(cfg)
    assert prob.spectrum.kind == "moderate_or_mild"
    assert prob.spectrum.alpha == 1.5
    cfg_severe = load_config(None, {"problem": "prescribed", "rho": "3.0", "n": "16"})
    assert build_problem(cfg_severe).spectrum.rho == 3.0
    # A constructor's requirement is its ValueError; run() maps it to a
    # configuration error before writing anything.
    odd = load_config(None, {"problem": "shaw", "n": "33"})
    with pytest.raises(ValueError, match="even"):
        build_problem(odd)
    with pytest.raises(ConfigError, match="even"):
        run(replace(odd, out=str(tmp_path)))
    assert os.listdir(tmp_path) == []


#: A value other than the default of each problem-specific key, in the range
#: of every problem that reads it.
_KEY_VALUES = {"depth": "0.5", "kappa": "2.0", "rho": "3.0", "alpha": "1.5", "zeta": "2.0",
               "beta": "1.0", "decay": "mild"}


@pytest.mark.parametrize("key", list(_KEY_VALUES))
@pytest.mark.parametrize("problem", experiment.PROBLEMS)
def test_a_problem_specific_key_is_set_only_for_a_problem_that_reads_it(
    problem, key, tmp_path, capsys
):
    # A key the problem does not read would build nothing, yet bounds could
    # read it: prescribed's asymptotic bound columns used to follow beta.
    decay = ["--decay", "mild"] if key == "alpha" and problem in _SYNTHETIC else []
    out = tmp_path / "x"
    rc = cli_main(["run", "--problem", problem, "--n", "8", "--kmax", "2", "--panels", "none",
                   f"--{key}", _KEY_VALUES[key], *decay, "--out", str(out)])
    err = capsys.readouterr().err
    if problem in _READERS[key]:
        assert rc in (0, 1), err
    else:
        assert rc == 2
        assert err.startswith(f"config error: {key}=") and f" problem {problem} " in err
        assert not out.exists()


@pytest.mark.parametrize("problem, decay, key", [
    ("prescribed", "mild", "rho"),
    ("picard_synthetic", "moderate", "rho"),
    ("prescribed", "severe", "alpha"),
    ("picard_synthetic", "severe", "alpha"),
])
def test_the_decay_picks_the_rate_key_a_spectrum_reads(problem, decay, key, tmp_path, capsys):
    value = _KEY_VALUES[key]
    rc = cli_main(["run", "--problem", problem, "--decay", decay, f"--{key}", value,
                   "--n", "8", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}={value} builds nothing")


def test_cli_beta_of_prescribed_exits_2(tmp_path):
    # prescribed's x_true is ones(n) whatever beta is: this run used to exit 0
    # with the data cells of beta = 0 and 14 cells of each asymptotic bound
    # column moved by up to 87.5%.
    out = tmp_path / "x"
    proc = _cli("run", "--problem", "prescribed", "--n", "64", "--beta", "3", "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: beta=3.0 builds nothing: problem prescribed ")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["--problem", "gravity", "--depth", "-1"], "depth must be positive"),
    (["--problem", "heat", "--kappa", "0"], "kappa must be positive"),
    (["--problem", "prescribed", "--zeta", "0"], "zeta must be positive"),
    (["--problem", "prescribed", "--rho", "1.0"], "severe decay requires rho > 1"),
    (["--problem", "picard_synthetic", "--decay", "mild", "--alpha", "0.5"],
     "moderate_or_mild decay requires alpha > 1/2"),
    (["--problem", "picard_synthetic", "--beta", "-1"],
     "make_picard_synthetic requires spectrum.beta_picard >= 0"),
], ids=["depth", "kappa", "zeta", "rho", "alpha", "beta"])
def test_cli_key_outside_its_constructors_range_exits_2(args, message, tmp_path, capsys):
    # The constructors alone check these ranges; their ValueError is a config error.
    rc = cli_main(["run", *args, "--n", "16", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


# The run pipeline ---------------------------------------------------------------
def test_run_writes_all_artifacts(base_run):
    assert sorted(os.listdir(base_run.outdir)) == sorted(ALL_ARTIFACTS)
    assert base_run.summary["invariant_violations"] == 0
    assert len(base_run.records) == base_run.summary["analysis_rows"] == 8


def test_run_summary_is_consistent_with_csvs(base_run):
    outdir = base_run.outdir
    summary = read_summary(outdir)
    assert list(summary) == SUMMARY_KEYS

    _, cols = read_csv(os.path.join(outdir, "lsqr.csv"))
    flags = cols["is_kstar"]
    assert flags.count("1") == 1
    assert summary["kstar"] == cols["k"][flags.index("1")]

    _, cols = read_csv(os.path.join(outdir, "tsvd.csv"))
    errs = [float(e) for e in cols["rel_error"]]
    best_row = min(range(len(errs)), key=errs.__getitem__)
    assert summary["k0_realized"] == cols["k"][best_row]
    assert float(summary["best_tsvd_error"]) == errs[best_row]

    _, cols = read_csv(os.path.join(outdir, "analysis.csv"))
    assert len(cols["k"]) == int(summary["analysis_rows"])
    for column, key in [("natural_order", "first_natural_order_failure"),
                        ("near_best", "first_near_best_failure")]:
        fails = [k for k, flag in zip(cols["k"], cols[column]) if flag == "0"]
        assert summary[key] == (fails[0] if fails else "none")

    assert summary["problem"] == "deriv2"
    assert summary["bound_model_source"] == "fitted"
    assert summary["bound_model"].startswith("moderate_or_mild alpha=")
    assert summary["invariant_violations"] == "0"
    assert summary["invariant_detail"] == "none"


@pytest.mark.parametrize("overrides", [{"n": 64, "kmax": 40}, {"problem": "shaw"}])
def test_analysis_csv_holds_the_delta_routes_on_the_runs_projection(overrides, tmp_path):
    # Rebuild the run's state from its config and form V'Q_K once, as the
    # pipeline does; deriv2-64 saturates the angle at some k, shaw breaks down.
    config = small_config(tmp_path / "oracle", **overrides)
    run(config)
    _, cols = read_csv(tmp_path / "oracle" / "analysis.csv")
    problem = build_problem(config)
    fact = problem.svd
    instance = add_noise(problem, config.noise, config.seed)
    state = bidiag_run(problem.A, instance.b, norm_A=float(fact.sigma[0]))
    K = len(cols["k"])
    VQ = fact.V.T @ state.Q_k(K)
    for k in range(1, K + 1):
        sin_theta, delta = delta_norm_via_angles(VQ, k)
        row = {
            "k": k,
            "sin_theta": sin_theta,
            "delta_norm": delta,
            "sigma_delta": sigma_delta_norm(VQ, fact.sigma, k),
            "lagrange_max": lagrange_factor(fact.sigma, k)[1],
        }
        assert {name: cols[name][k - 1] for name in row} == {
            name: format_value(v) for name, v in row.items()
        }


def test_run_records_hold_every_analysis_csv_cell(tmp_path, monkeypatch):
    # A kernel has no spectrum model, so its bounds come from a fitted one;
    # a prescribed spectrum gives its own.  A step whose bounds are undefined
    # (here: bound_report refuses every odd k) writes the _NO_BOUNDS cells.
    assert make_deriv2(16).spectrum is None
    original = experiment.bound_report

    def bound_report(fact, picard, model, delta, k, lag):
        if k % 2:
            raise ValueError("refused")
        return original(fact, picard, model, delta, k, lag)

    record_columns = {f.name for f in fields(AnalysisRecord)}
    cases = [({"problem": "deriv2"}, "fitted", False),
             ({"problem": "prescribed", "decay": "moderate", "alpha": 1.5}, "given", False),
             ({"problem": "deriv2"}, "fitted", True)]
    for i, (overrides, source, refuse) in enumerate(cases):
        if refuse:
            monkeypatch.setattr(experiment, "bound_report", bound_report)
        result = run(small_config(tmp_path / str(i), n=16, kmax=16, **overrides))
        assert result.summary["bound_model_source"] == source
        _, cols = read_csv(tmp_path / str(i) / "analysis.csv")
        assert list(cols) == ANALYSIS_COLUMNS and len(cols["k"]) == len(result.records) == 15
        assert [rec.bounds is None for rec in result.records] == [
            refuse and k % 2 == 1 for k in range(1, 16)
        ]
        for row, rec in enumerate(result.records):
            for name in ANALYSIS_COLUMNS:
                if name in record_columns:
                    value = getattr(rec, name)
                else:
                    value = _NO_BOUNDS[name] if rec.bounds is None else getattr(rec.bounds, name)
                assert cols[name][row] == format_value(value), (i, rec.k, name)
    assert read_summary(tmp_path / "0")["bound_model_source"] == "fitted"


def test_run_config_echo_reloads(base_run):
    cfg = load_config(os.path.join(base_run.outdir, "config.txt"))
    assert cfg == base_run.config


def test_rerun_reproduces_artifacts_byte_for_byte(base_run, tmp_path):
    other = tmp_path / "again"
    run(small_config(other))
    for name in ALL_ARTIFACTS:
        if name == "config.txt":  # differs in the out= line by construction
            continue
        a = open(os.path.join(base_run.outdir, name), "rb").read()
        b = open(other / name, "rb").read()
        assert a == b, f"{name} differs between identical runs"


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("problem", ["prescribed", "picard_synthetic"])
def test_mild_and_moderate_decay_build_the_same_run(problem, seed, tmp_path):
    # Both power-law families read alpha alone, so a config that names one
    # repeats the config that names the other (ROADMAP item 14).
    outs = []
    for decay in ("mild", "moderate"):
        outs.append(tmp_path / decay)
        run(ExperimentConfig(problem=problem, decay=decay, n=16, noise=1e-3, seed=seed,
                             out=str(outs[-1])))
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    assert "panel_a.svg" in names and "analysis.csv" in names
    for name in names:
        if name != "config.txt":
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_run_respects_panel_subset(tmp_path):
    outdir = tmp_path / "subset"
    run(small_config(outdir, panels="ad"))
    names = set(os.listdir(outdir))
    assert "panel_a.svg" in names and "panel_d.svg" in names
    assert "panel_b.svg" not in names and "panel_c.svg" not in names
    outdir2 = tmp_path / "nopanels"
    run(small_config(outdir2, panels="none"))
    assert not any(n.endswith(".svg") for n in os.listdir(outdir2))


def _run_results(config):
    """The spectrum and both sweeps ``run(config)`` computes, recomputed."""
    problem = build_problem(config)
    instance = add_noise(problem, config.noise, config.seed)
    sigma = problem.svd.sigma
    state = bidiag_run(problem.A, instance.b, reorth=config.reorth, norm_A=float(sigma[0]))
    lsqr = lsqr_sweep(instance, state, config.effective_kmax(problem.n))
    return sigma, lsqr, tsvd_sweep(instance)


def test_panels_redraw_from_the_runs_results(base_run, tmp_path):
    # Drawn into an empty directory: the panels read no CSV back.
    sigma, lsqr, tsvd = _run_results(base_run.config)
    written = render_panels(str(tmp_path), "abcd", base_run.records, sigma, lsqr, tsvd)
    assert written == ["panel_a.svg", "panel_b.svg", "panel_c.svg", "panel_d.svg"]
    assert sorted(os.listdir(tmp_path)) == written
    for name in written:
        assert (tmp_path / name).read_bytes() == Path(base_run.outdir, name).read_bytes()


def _x_pixel_map(svg):
    """The x axis of a panel, read from its labelled vertical grid lines."""
    ticks = re.findall(
        r'<line x1="([-\d.]+)" y1="\d+" x2="[-\d.]+" y2="\d+" stroke="#dddddd"[^\n]*\n'
        r'<text [^>]*>([^<]+)</text>',
        svg,
    )
    (p0, t0), (p1, t1) = [(float(p), float(t)) for p, t in (ticks[0], ticks[-1])]
    return lambda x: p0 + (x - t0) * (p1 - p0) / (t1 - t0)


@pytest.mark.parametrize("overrides", [{}, {"problem": "shaw", "n": 64, "kmax": 40}])
def test_panel_d_marks_the_summarys_kstar_and_k0(overrides, tmp_path):
    result = run(small_config(tmp_path, **overrides))
    svg = (tmp_path / "panel_d.svg").read_text()
    vline = r'<line x1="([-\d.]+)" [^\n]*stroke-dasharray="2,3"/>\n<text [^>]*>([^<]+)</text>'
    lines = {label: float(px) for px, label in re.findall(vline, svg)}
    assert sorted(lines) == ["k*", "k0"]
    pixel = _x_pixel_map(svg)
    summary = result.summary
    assert lines["k*"] == pytest.approx(pixel(summary["kstar"]), abs=0.01)
    assert lines["k0"] == pytest.approx(pixel(summary["k0_realized"]), abs=0.01)


def test_run_raises_after_writing_artifacts_on_violation(tmp_path, monkeypatch):
    import illposed.experiment as experiment

    monkeypatch.setattr(
        experiment, "_check_invariants", lambda *a, **k: ["fabricated violation"]
    )
    outdir = tmp_path / "violated"
    with pytest.raises(InvariantViolation, match="fabricated violation"):
        run(small_config(outdir))
    assert sorted(os.listdir(outdir)) == sorted(ALL_ARTIFACTS)
    summary = read_summary(outdir)
    assert summary["invariant_violations"] == "1"
    assert "fabricated violation" in summary["invariant_detail"]


# Artifact comparison ------------------------------------------------------------
def test_compare_identical_directories(base_run, tmp_path):
    other = tmp_path / "twin"
    run(small_config(other))
    report = compare(base_run.outdir, str(other))
    assert report.ok and report.diffs == ()
    lines = report.lines()
    assert lines[-1] == "RESULT match"
    assert any("not compared" in ln for ln in lines)


def test_compare_flags_only_noise_dependent_columns(base_run, tmp_path):
    other = tmp_path / "reseeded"
    run(small_config(other, seed=1))
    report = compare(base_run.outdir, str(other))
    assert not report.ok
    assert report.diffs
    assert all(d.noise_dependent for d in report.diffs)
    assert report.lines()[-1] == "RESULT mismatch"


def test_compare_tolerance_override(base_run, tmp_path):
    other = tmp_path / "reseeded2"
    run(small_config(other, seed=1))
    loose = {c: 1e9 for c in
             ["abs_uiTb", "eta", "alpha", "beta_next", "rel_error", "residual",
              "gamma", "gamma_Gk", "delta_norm", "sin_theta", "sigma_delta",
              "near_best", "alpha_beta_sum", "k0_used", "ratio_realized",
              "ratio_asymptotic", "xi_k", "eta_k", "eta_k_asymptotic",
              "epsilon_k_bound", "delta_bound", "delta_bound_asymptotic",
              "sigma_delta_bound", "sigma_delta_bound_asymptotic", "theta",
              "is_kstar", "natural_order", "near_best_condition",
              "natural_order_condition", "best_lsqr_error", "best_tsvd_error",
              "kstar", "k0_realized", "first_near_best_failure"]}
    report = compare(base_run.outdir, str(other), loose)
    csv_diffs = [d for d in report.diffs if d.file != "summary.txt"]
    assert csv_diffs == []
    assert any("tolerance relaxed" in ln for ln in report.lines())


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_compare_rejects_a_nan_or_negative_tolerance(tol, base_run):
    # No relative difference exceeds nan, so a nan tolerance hid every
    # difference of its column while the report called it relaxed.
    with pytest.raises(ConfigError, match="tolerance for gamma"):
        compare(base_run.outdir, base_run.outdir, {"gamma": float(tol)})
    proc = _cli("compare", base_run.outdir, base_run.outdir, "--tol", f"gamma={tol}")
    assert proc.returncode == 2, proc.stdout
    assert proc.stderr.startswith("config error:")
    assert "RESULT" not in proc.stdout


def test_compare_accepts_an_infinite_tolerance(base_run):
    report = compare(base_run.outdir, base_run.outdir, {"gamma": float("inf")})
    assert report.ok
    assert "NOTE column gamma: tolerance relaxed to inf" in report.lines()


def test_compare_flags_a_nan_cell_in_either_order(base_run, tmp_path):
    # nan against a number is a difference of inf, whichever side holds it;
    # only a tolerance of inf ignores it.
    edited = tmp_path / "nan-cell"
    shutil.copytree(base_run.outdir, edited)
    tsvd = edited / "tsvd.csv"
    lines = tsvd.read_text(encoding="ascii").splitlines()
    cells = lines[2].split(",")  # k, rel_error, residual of the first row
    lines[2] = ",".join([cells[0], "nan", cells[2]])
    tsvd.write_text("\n".join(lines) + "\n", encoding="ascii")
    for a, b in ((base_run.outdir, str(edited)), (str(edited), base_run.outdir)):
        report = compare(a, b)
        assert [(d.file, d.column, d.count, d.max_rel) for d in report.diffs] == [
            ("tsvd.csv", "rel_error", 1, math.inf)
        ]
        assert report.lines()[-1] == "RESULT mismatch"
        assert compare(a, b, {"rel_error": math.inf}).ok


def test_compare_infinite_tolerance_ignores_a_string_key(base_run, tmp_path):
    # Two different strings differ by inf, which only a tolerance of inf
    # does not exceed.
    edited = tmp_path / "edited"
    shutil.copytree(base_run.outdir, edited)
    path = edited / "summary.txt"
    lines = path.read_text(encoding="ascii").splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("bound_model="))
    lines[at] = "bound_model=edited"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    assert compare(base_run.outdir, str(edited)).lines()[-1] == "RESULT mismatch"
    relaxed = compare(base_run.outdir, str(edited), {"bound_model": math.inf})
    assert relaxed.lines()[-1] == "RESULT match"


def test_compare_rejects_tampered_schema(base_run, tmp_path):
    copy_a = tmp_path / "a"
    copy_b = tmp_path / "b"
    shutil.copytree(base_run.outdir, copy_a)
    shutil.copytree(base_run.outdir, copy_b)
    tsvd = copy_b / "tsvd.csv"
    lines = tsvd.read_text(encoding="ascii").splitlines()
    lines[1] = lines[1].replace("rel_error", "relerr")
    tsvd.write_text("\n".join(lines) + "\n", encoding="ascii")
    with pytest.raises(ConfigError, match="schemas disagree"):
        compare(str(copy_a), str(copy_b))
    lines[0] = "# schema=unknown.v9 kind=tsvd"
    tsvd.write_text("\n".join(lines) + "\n", encoding="ascii")
    with pytest.raises(ConfigError, match="unsupported schema"):
        compare(str(copy_a), str(copy_b))


def test_compare_missing_file_is_a_diff(base_run, tmp_path):
    partial = tmp_path / "partial"
    shutil.copytree(base_run.outdir, partial)
    os.remove(partial / "ritz.csv")
    report = compare(base_run.outdir, str(partial))
    assert not report.ok
    assert any(d.file == "ritz.csv" and d.column == "<file>" for d in report.diffs)


def test_compare_missing_summary_is_a_diff(base_run, tmp_path):
    partial = tmp_path / "no-summary"
    shutil.copytree(base_run.outdir, partial)
    os.remove(partial / "summary.txt")
    for a, b in ((base_run.outdir, str(partial)), (str(partial), base_run.outdir)):
        report = compare(a, b)
        assert not report.ok
        assert [(d.file, d.column) for d in report.diffs] == [("summary.txt", "<file>")]
        assert report.lines()[-1] == "RESULT mismatch"
    assert compare(str(partial), str(partial)).ok


@pytest.mark.parametrize("problem", ["prescribed", "picard_synthetic"])
def test_compare_spectrum_columns_follow_the_seed_of_synthetic_problems(problem, tmp_path):
    # The seed draws the singular vectors of the synthetic problems, so the
    # computed singular values move with it (at roundoff).
    runs = [tmp_path / f"seed{seed}" for seed in (0, 1)]
    for out, seed in zip(runs, (0, 1)):
        run(small_config(out, problem=problem, seed=seed))
    report = compare(str(runs[0]), str(runs[1]))
    spectrum = {"sigma_i", "abs_uiTbtrue", "sigma_k1", "lagrange_max"}
    moved = {d.column for d in report.diffs} & spectrum
    assert "sigma_i" in moved
    assert all(d.noise_dependent for d in report.diffs)
    assert all("(noise-dependent)" in ln for ln in report.lines() if ln.startswith("DIFF"))


def test_compare_classifies_only_names_a_run_writes(base_run, tmp_path):
    # Every classified name is a CSV header or a summary key, so a renamed
    # column cannot silently drop out of the noise classification.
    prescribed = run(small_config(tmp_path / "prescribed", problem="prescribed"))
    written = set()
    for result in (base_run, prescribed):
        written |= set(result.summary)
        for name in ARTIFACT_CSVS:
            written |= set(read_csv(os.path.join(result.outdir, name))[1])
    assert NOISE_INDEPENDENT_COLUMNS | SPECTRUM_COLUMNS <= written


def test_compare_kernel_spectrum_stays_noise_independent(base_run, tmp_path):
    # A kernel problem's spectrum ignores the seed; a doctored singular
    # value is reported as a noise-independent difference.
    other = tmp_path / "doctored"
    shutil.copytree(base_run.outdir, other)
    picard = other / "picard.csv"
    lines = picard.read_text(encoding="ascii").splitlines()
    cells = lines[2].split(",")
    cells[1] = repr(float(cells[1]) * 2.0)
    lines[2] = ",".join(cells)
    picard.write_text("\n".join(lines) + "\n", encoding="ascii")
    report = compare(base_run.outdir, str(other))
    assert [(d.file, d.column, d.noise_dependent) for d in report.diffs] == [
        ("picard.csv", "sigma_i", False)
    ]


# Command-line interface ---------------------------------------------------------
def _cli(*args):
    """Run ``python -m illposed`` on this package, installed or not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(illposed.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "illposed", *args], capture_output=True, text=True, env=env
    )


def test_cli_run_and_compare_subprocess(tmp_path):
    out1 = tmp_path / "c1"
    out2 = tmp_path / "c2"
    for out in (out1, out2):
        proc = _cli("run", "--problem", "deriv2", "--n", "32", "--kmax", "8", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert f"artifacts written to {out}" in proc.stdout
        assert "kstar=" in proc.stdout
    cmp_ok = _cli("compare", str(out1), str(out2))
    assert cmp_ok.returncode == 0
    assert "RESULT match" in cmp_ok.stdout


def test_cli_bad_config_exits_2(tmp_path):
    proc = _cli("run", "--noise", "2", "--out", str(tmp_path / "x"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error:")
    assert not (tmp_path / "x").exists()


def test_cli_non_ascii_config_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# noise level \u03c3\nproblem=deriv2\n", encoding="utf-8")
    proc = _cli("run", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error:")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "x").exists()


def test_cli_config_file_that_repeats_a_key_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem=deriv2\nn=16\n# size\nn=32\n", encoding="ascii")
    proc = _cli("run", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error:")
    assert f"{cfg}:4: key 'n' repeats line 2" in proc.stderr
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("name", ["r\u00e9sultats", "a\nb"])
def test_cli_out_that_config_txt_cannot_echo_exits_2(name, tmp_path):
    # Rejected before any directory is made, not after the whole run.
    proc = _cli("run", "--problem", "deriv2", "--n", "16", "--out", str(tmp_path / name))
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: out must be printable ASCII")
    assert "Traceback" not in proc.stderr
    assert os.listdir(tmp_path) == []


def test_cli_compare_unreadable_artifact_exits_2(base_run, tmp_path):
    other = tmp_path / "other"
    shutil.copytree(base_run.outdir, other)
    os.remove(other / "lsqr.csv")
    os.mkdir(other / "lsqr.csv")
    with pytest.raises(ConfigError, match="lsqr.csv"):
        compare(base_run.outdir, str(other))
    proc = _cli("compare", base_run.outdir, str(other))
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error:")
    assert "RESULT" not in proc.stdout and "Traceback" not in proc.stderr


def test_cli_compare_non_ascii_summary_exits_2(base_run, tmp_path):
    other = tmp_path / "other"
    shutil.copytree(base_run.outdir, other)
    with open(other / "summary.txt", "ab") as fh:
        fh.write("note=\u03c3\n".encode("utf-8"))
    proc = _cli("compare", base_run.outdir, str(other))
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("noise", ["1e-200", "1e-300"])
def test_cli_noise_below_the_square_underflow_runs(noise, tmp_path):
    # ||e|| of entries below ~1e-162 underflows when squared; the floor
    # eta must stay positive and the run must write its artifacts.
    out = tmp_path / "tiny"
    proc = _cli("run", "--problem", "shaw", "--n", "32", "--noise", noise, "--out", str(out))
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr
    assert float(read_summary(out)["eta"]) > 0.0


def test_cli_noise_draw_that_underflows_to_zero_exits_2(tmp_path):
    # deriv2's ||b_true|| is small enough that 5e-324 times it rounds to 0.
    proc = _cli("run", "--problem", "deriv2", "--n", "16", "--noise", "5e-324",
                "--out", str(tmp_path / "zero"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("problem", ["prescribed", "picard_synthetic"])
@pytest.mark.parametrize("zeta, code", [("1e150", 0), ("1e160", 2), ("1e200", 2)])
def test_cli_zeta_whose_square_overflows_exits_2(problem, zeta, code, tmp_path):
    # ||b_true||^2 overflows from zeta ~1e155 on; 1e150 still runs.
    proc = _cli("run", "--problem", problem, "--n", "16", "--decay", "mild",
                "--zeta", zeta, "--out", str(tmp_path / "big"))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 2:
        assert proc.stderr.startswith("config error:")
        assert "overflows" in proc.stderr


@pytest.mark.parametrize("args", [["--scale", "nan"], ["--scale", "inf"]])
def test_cli_non_finite_scale_exits_2(args, tmp_path):
    proc = _cli("run", *args, "--out", str(tmp_path / "x"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [
    ["--problem", "gravity", "--depth", "1e160"],
    ["--problem", "gravity", "--depth", "1e150"],
    ["--problem", "heat", "--kappa", "1e160"],
    ["--scale", "1e308"],
])
def test_cli_float_setting_that_overflows_exits_2(args, tmp_path):
    # depth^2 and kappa^2 overflow a Python float, depth^3 the kernel's
    # power (numpy warned of it), n * scale is infinite.
    proc = _cli("run", *args, "--out", str(tmp_path / "x"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:")
    assert "overflows" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [
    ["--problem", "gravity", "--depth", "1e-200"],
    ["--problem", "gravity", "--depth", "1e-150", "--n", "8"],
    ["--problem", "heat", "--kappa", "1e-200"],
])
def test_cli_float_setting_that_underflows_exits_2(args, tmp_path):
    # depth^3 underflows to zero, and 1/(4 kappa^2 t) overflows; both are
    # rejected before the kernel is evaluated, so numpy has nothing to warn of.
    proc = _cli("run", *args, "--out", str(tmp_path / "x"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:")
    assert "must be at least" in proc.stderr
    assert "RuntimeWarning" not in proc.stdout + proc.stderr


def test_cli_noisy_data_whose_square_overflows_exits_2(tmp_path):
    # ||b_true||^2 is finite just below zeta = 1.3e154, but noise 0.5 lifts
    # ||b||^2 past float64: beta_1 used to be inf and u_1 zero.
    out = tmp_path / "big"
    proc = _cli("run", "--problem", "prescribed", "--n", "12", "--noise", "0.5",
                "--zeta", "1e154", "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:")
    assert "overflows" in proc.stderr and "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stdout + proc.stderr
    assert os.listdir(out) == []


def test_cli_picard_coefficients_that_overflow_exit_2(tmp_path):
    # sigma_1**(1 + beta) = (5.7e255)**1.677 overflows: the products that
    # build x_true and b_true used to warn and leave non-finite entries.
    out = tmp_path / "huge"
    proc = _cli("run", "--problem", "picard_synthetic", "--n", "16", "--noise", "0.5",
                "--seed", "24", "--kmax", "1", "--zeta", "5.7e255", "--beta", "0.677",
                "--decay", "mild", "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:")
    assert "overflows" in proc.stderr and "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stdout + proc.stderr
    assert os.listdir(out) == []


def test_cli_tiny_spectrum_completes_without_violations(tmp_path):
    # At sigma_1 = 2.9e-160 the squares inside the recurrence's norms go
    # subnormal.  Summed unrescaled, they left beta_25 of the square
    # factorization near sigma_1, and its completion check failed.
    out = tmp_path / "tiny"
    proc = _cli("run", "--problem", "picard_synthetic", "--n", "16", "--scale", "1.5",
                "--noise", "0.001", "--seed", "11", "--kmax", "3",
                "--alpha", "0.5000000041898818", "--zeta", "2.899194740418965e-160",
                "--beta", "7.330494367382181e-05", "--decay", "mild", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "invariant_violations=0" in proc.stdout.splitlines()
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("n, zeta", [(16, 1e-155), (96, 1e-155), (128, 1e-150), (16, 5e-294)])
def test_tiny_spectra_run_without_violations(n, zeta, tmp_path):
    # Entries below about 1e-154 have subnormal squares.  Summed unrescaled,
    # they gave n = 16 twenty false violations (interlacing, Ritz gaps),
    # n = 96 an overflow in the recurrence (renormalized by too small a
    # norm), and n = 128 a violation from the Lanczos gaps (n - k >= 72).
    # sigma_1 = 2.5e-294 lies just above the floor of the breakdown tolerance.
    config = ExperimentConfig(problem="prescribed", n=n, zeta=zeta, out=str(tmp_path))
    assert run(config).summary["invariant_violations"] == 0


def test_run_maps_a_failed_square_completion_to_a_config_error(tmp_path, monkeypatch):
    import illposed.bidiag as bidiag

    # With a limit of zero, _finish refuses every computed beta_{n+1}.
    monkeypatch.setattr(bidiag, "FINAL_BETA_REL", 0.0)
    out = tmp_path / "x"
    with pytest.raises(ConfigError, match=r"cannot complete at sigma_1 = .*: square .* beta_9"):
        run(ExperimentConfig(problem="deriv2", n=8, out=str(out)))
    assert os.listdir(out) == []


def test_run_maps_a_breakdown_at_the_start_to_a_config_error(tmp_path, monkeypatch):
    import illposed.experiment as experiment

    def annihilated(A, b, **kwargs):  # A' b = 0: the state records alpha_1
        return bidiag_run(np.zeros_like(A), b, **kwargs)

    monkeypatch.setattr(experiment, "bidiag_run", annihilated)
    out = tmp_path / "x"
    with pytest.raises(ConfigError, match="alpha_1 before its first step"):
        run(ExperimentConfig(problem="deriv2", n=8, out=str(out)))
    assert os.listdir(out) == []


def test_cli_kernel_of_subnormal_values_renders_its_panels(tmp_path):
    # The gravity kernel at depth 1e78 spans 1e-323..1e-156: its log axis
    # used to get the tick 10**-324 == 0 and stop in math.log10.
    out = tmp_path / "deep"
    proc = _cli("run", "--problem", "gravity", "--depth", "1e78", "--n", "12",
                "--out", str(out))
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr
    assert "panel_a.svg" in os.listdir(out)


def test_cli_data_whose_square_underflows_completes(tmp_path):
    # heat at kappa 0.02 has entries near 1e-276, not zero: ||b_true||^2
    # underflows, but ||b_true|| itself is computed with rescaling, and the
    # run completes.
    proc = _cli("run", "--problem", "heat", "--n", "64", "--kappa", "0.02",
                "--out", str(tmp_path / "x"))
    assert proc.returncode == 0, proc.stderr
    assert "invariant_violations=0" in proc.stdout.splitlines()
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("args", [
    ["--problem", "heat", "--n", "16", "--kappa", "0.019"],
    ["--problem", "heat", "--n", "16", "--kappa", "0.0189"],
    ["--problem", "heat", "--n", "32", "--kappa", "0.0187"],
    ["--problem", "heat", "--n", "64", "--kappa", "0.0187"],
    ["--problem", "prescribed", "--n", "16", "--zeta", "1e-308"],
    ["--problem", "prescribed", "--n", "16", "--zeta", "1e-310"],
])
def test_cli_sigma_1_below_the_breakdown_tolerance_floor_exits_2(args, tmp_path):
    # Below sigma_1 ~ 2.2e-294 the breakdown tolerance 1e-14 * sigma_1 is
    # subnormal or zero.  heat (sigma_1 down to 1.9e-316) used to divide a
    # zero vector by its zero norm and stop in a traceback; prescribed at
    # 1e-308 reported false orthogonality violations, and at 1e-310 a
    # completion check "expected below 0.000e+00".
    out = tmp_path / "floor"
    proc = _cli("run", *args, "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert re.match(r"config error: sigma_1 = \S+ lies below 2\.225e-294", proc.stderr)
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    assert os.listdir(out) == []


@pytest.mark.parametrize("problem", ["prescribed", "picard_synthetic"])
def test_cli_breakdown_before_the_first_step_exits_2(problem, tmp_path):
    # A spectrum flat to rounding: A A' b is a multiple of b, so the
    # recurrence stops at beta_2 and there is no step to analyze.
    out = tmp_path / "flat"
    proc = _cli("run", "--problem", problem, "--rho", "1.0000000000000002", "--n", "64",
                "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:")
    assert "beta_2" in proc.stderr and "Traceback" not in proc.stderr
    assert os.listdir(out) == []


def test_cli_output_below_a_regular_file_exits_2(tmp_path, monkeypatch):
    (tmp_path / "f").write_text("not a directory\n", encoding="ascii")
    import illposed.experiment as experiment

    def never(config):
        raise AssertionError("the problem was built before the output check")

    monkeypatch.setattr(experiment, "build_problem", never)
    rc = cli_main(["run", "--problem", "deriv2", "--n", "32", "--out", str(tmp_path / "f" / "out")])
    assert rc == 2
    proc = _cli("run", "--problem", "deriv2", "--n", "32", "--out", str(tmp_path / "f" / "out"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error:")
    assert "Traceback" not in proc.stderr


def test_cli_compare_needs_two_directories_with_artifacts(base_run, tmp_path):
    empty_a, empty_b = tmp_path / "a", tmp_path / "b"
    empty_a.mkdir()
    empty_b.mkdir()
    for pair in ((str(tmp_path / "missing"), str(tmp_path / "alsonot")),
                 (base_run.outdir, str(tmp_path / "missing")),
                 (str(empty_a), str(empty_b))):
        proc = _cli("compare", *pair)
        assert proc.returncode == 2, pair
        assert proc.stderr.startswith("config error:"), pair
        assert "RESULT" not in proc.stdout and "Traceback" not in proc.stderr
    # One side empty is still a comparison: every artifact is a <file> diff.
    report = compare(base_run.outdir, str(empty_a))
    assert not report.ok
    assert {(d.file, d.column) for d in report.diffs} == {
        (name, "<file>") for name in ARTIFACT_CSVS + ("summary.txt",)
    }


def test_cli_compare_mismatch_exits_1(base_run, tmp_path):
    other = tmp_path / "other"
    run(small_config(other, seed=1))
    rc = cli_main(["compare", base_run.outdir, str(other)])
    assert rc == 1
    with pytest.raises(SystemExit):  # argparse rejects a missing subcommand
        cli_main([])
    assert cli_main(["compare", base_run.outdir, str(other), "--tol", "broken"]) == 2


def test_cli_invariant_violation_exits_1(tmp_path, monkeypatch, capsys):
    import illposed.experiment as experiment

    monkeypatch.setattr(
        experiment, "_check_invariants", lambda *a, **k: ["fabricated violation"]
    )
    outdir = tmp_path / "cliviol"
    rc = cli_main(["run", "--problem", "deriv2", "--n", "32",
                   "--kmax", "8", "--out", str(outdir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("invariant violation:")
    assert sorted(os.listdir(outdir)) == sorted(ALL_ARTIFACTS)


# A valid configuration never crashes -----------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    family=st.sampled_from(_FAMILIES),
    n=st.integers(16, 256),
    noise=st.sampled_from([1e-2, 1e-3, 1e-5]),
    seed=st.integers(0, 1000),
    reorth=st.booleans(),
)
# Breakdown at an alpha entry used to leave an empty trailing block.
@example(family=("shaw", "severe"), n=64, noise=1e-3, seed=0, reorth=True)
@example(family=("heat", "severe"), n=16, noise=1e-2, seed=0, reorth=True)
# Without reorthogonalization a square run used to die at its last step.
@example(family=("deriv2", "severe"), n=16, noise=1e-3, seed=0, reorth=False)
def test_run_returns_or_raises_only_documented_errors(family, n, noise, seed, reorth):
    problem, decay = family
    with tempfile.TemporaryDirectory() as out:
        config = ExperimentConfig(
            problem=problem, decay=decay, n=n, noise=noise, seed=seed, out=out,
            reorth=reorth,
        )
        try:
            run(config)
        except (ConfigError, InvariantViolation):
            pass


def _log_uniform(lo, hi):
    """10**e for e drawn uniformly from [lo, hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


#: The values a valid configuration may give each problem-specific key
#: but decay.
_KEY_DRAWS = {
    "depth": _log_uniform(-100, 100),
    "kappa": _log_uniform(-3, 150),
    "rho": _log_uniform(-15, 100).map(lambda r: 1.0 + r),
    "alpha": _log_uniform(-9, 1).map(lambda a: 0.5 + a),
    "zeta": _log_uniform(-170, 250),
    "beta": st.floats(0.0, 50.0),
}


@st.composite
def _valid_configs(draw):
    """A configuration that passes validation, n * scale <= 24: every key but
    ``out`` drawn, of the problem-specific keys those the problem reads."""
    problem, decay = draw(st.sampled_from(_FAMILIES))
    n = draw(st.integers(2, 16))
    scale = draw(st.floats(1.0, 24.0 / n))
    if problem == "shaw":  # shaw has even orders only
        assume(round(n * scale) % 2 == 0)
    unread = "alpha" if decay == "severe" else "rho"
    return ExperimentConfig(
        problem=problem,
        n=n,
        noise=draw(_log_uniform(-14, -0.05)),
        seed=draw(st.integers(0, 2**32 - 1)),
        kmax=draw(st.none() | st.integers(1, n)),
        panels=draw(st.sampled_from(["abcd", "none", "a", "b", "c", "d", "bd"])),
        scale=scale,
        decay=decay,
        reorth=draw(st.booleans()),
        **{key: draw(values) for key, values in _KEY_DRAWS.items()
           if problem in _READERS[key] and key != unread},
    )


@pytest.mark.parametrize(
    "overrides",
    [
        # sigma_k**2 underflows to 0 and lagrange_factor divided 0 by 0.
        {"problem": "prescribed", "n": 12, "zeta": 1e-159, "reorth": False},
        # The computed sigma_16 of heat is exactly 0: bound_report divided by it.
        {"problem": "heat", "n": 16, "kappa": 0.1, "reorth": False},
        # Both sigma_i of gravity at this depth are equal: polyfit warned.
        {"problem": "gravity", "n": 2, "depth": 1e-5},
    ],
    ids=["subnormal-squares", "zero-sigma", "tied-sigma"],
)
def test_spectra_at_the_edges_of_float64_run_without_warnings(overrides, tmp_path):
    try:
        run(ExperimentConfig(noise=0.1, out=str(tmp_path), **overrides))
    except InvariantViolation:
        pass


@settings(max_examples=60, deadline=None, derandomize=True)
@given(config=_valid_configs())
# ||b_true||^2 underflows: the run used to stop at the square of the norm.
@example(config=ExperimentConfig(problem="prescribed", n=16, zeta=1e-165))
# x_true ~ 1e-200: the squares of the TSVD error column underflowed to 0/0.
@example(config=ExperimentConfig(problem="picard_synthetic", n=16, zeta=1e-100, beta=2.0, rho=1.5))
# sigma_1 >= 1e100: route B multiplied A by a finished process's unnormalized
# vector, and the product overflowed.
@example(config=ExperimentConfig(problem="prescribed", n=256, noise=1e-8, seed=23, rho=10.0,
                                 zeta=1e100))
@example(config=ExperimentConfig(problem="picard_synthetic", decay="moderate", alpha=8.0, n=128,
                                 kmax=64, noise=1e-8, seed=11, zeta=1e150))
def test_valid_configs_never_end_in_a_traceback(config):
    # A valid configuration ends in artifacts or a documented error, with
    # every RuntimeWarning an error (pyproject's filterwarnings); the
    # config.txt of a run reads back as its config.  A draw that builds
    # nothing fails in _valid_configs, where its config is constructed.
    with tempfile.TemporaryDirectory() as out:
        config = replace(config, out=out)
        try:
            run(config)
        except ConfigError:  # refused before any artifact is written
            return
        except InvariantViolation:
            pass
        assert load_config(os.path.join(out, "config.txt")) == config


# Extreme float settings, at, near or past the limits of float64, each with
# a problem that reads the key.
_HUGE_OR_TINY = st.floats(1e150, 1e300) | st.floats(1e-300, 1e-150)
_EXTREME_SETTINGS = st.one_of(
    st.tuples(st.sampled_from(experiment.PROBLEMS), st.none()),
    st.tuples(st.just("gravity"), st.tuples(st.just("depth"), _HUGE_OR_TINY)),
    st.tuples(st.just("heat"), st.tuples(st.just("kappa"), _HUGE_OR_TINY)),
    st.tuples(st.sampled_from(_SYNTHETIC), st.tuples(st.just("zeta"), _HUGE_OR_TINY)),
    st.tuples(st.sampled_from(experiment.PROBLEMS),
              st.tuples(st.just("scale"), st.floats(1e300, 1.7e308))),
    st.tuples(st.sampled_from(_SYNTHETIC), st.tuples(
        st.just("rho"), st.floats(1.0, 1.0 + 1e-12, exclude_min=True) | st.floats(1e100, 1e300))),
)


@settings(max_examples=100, deadline=None)
@given(
    setting=_EXTREME_SETTINGS,
    n=st.integers(2, 12),
    noise=st.sampled_from(["0.5", "1e-3", "1e-14"]),
    kmax=st.sampled_from(["1", "2", "none"]),
    reorth=st.sampled_from(["true", "false"]),
)
# Panel c's two values one ulp apart used to give a log axis of zero span.
@example(setting=("prescribed", None), n=2, noise="1e-14", kmax="none", reorth="true")
@example(setting=("picard_synthetic", None), n=2, noise="1e-14", kmax="none", reorth="true")
@example(setting=("gravity", None), n=2, noise="1e-14", kmax="none", reorth="false")
# depth^2, kappa^2 and n * scale used to overflow a Python float.
@example(setting=("gravity", ("depth", 1e160)), n=8, noise="1e-3", kmax="none", reorth="true")
@example(setting=("heat", ("kappa", 1e160)), n=8, noise="1e-3", kmax="none", reorth="true")
@example(setting=("deriv2", ("scale", 1e308)), n=8, noise="1e-3", kmax="none", reorth="true")
# A spectrum flat to rounding used to break down before the first step.
@example(setting=("prescribed", ("rho", 1.0000000000000002)), n=12, noise="1e-3", kmax="1",
         reorth="true")
@example(setting=("picard_synthetic", ("rho", 1.0000000000000002)), n=12, noise="1e-3",
         kmax="none", reorth="false")
# Noise 0.5 used to make ||b||^2 overflow just below the zeta bound.
@example(setting=("prescribed", ("zeta", 1e154)), n=12, noise="0.5", kmax="none", reorth="true")
def test_cli_run_never_raises(setting, n, noise, kmax, reorth):
    problem, extreme = setting
    args = ["run", "--problem", problem, "--n", str(n), "--noise", noise,
            "--kmax", kmax, "--reorth", reorth]
    if extreme is not None:
        args += [f"--{extreme[0]}", repr(extreme[1])]
    with tempfile.TemporaryDirectory() as out:
        assert cli_main(args + ["--out", out]) in (0, 1, 2)
