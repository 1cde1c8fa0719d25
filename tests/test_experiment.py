"""Unit tests for the experiment runner, artifact comparison, and CLI."""

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import illposed

from illposed.bidiag import BreakdownError
from illposed.cli import main as cli_main
from illposed.csvio import read_csv
from illposed.experiment import (
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


def test_load_config_reads_a_non_string_value_from_its_text():
    # A library caller may pass numbers; a float is not an int setting.
    for key, value in (("seed", 1.5), ("n", 32.5), ("kmax", 3.5)):
        with pytest.raises(ConfigError, match=f"bad value for {key}"):
            load_config(None, {"problem": "deriv2", "n": 32, key: value})
    cfg = load_config(None, {"n": 32, "noise": 0.01, "scale": 1, "reorth": False})
    assert (cfg.n, cfg.noise, cfg.scale, cfg.reorth) == (32, 0.01, 1.0, False)
    assert isinstance(cfg.scale, float)


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


def test_config_echo_reparses_identically(tmp_path):
    cfg = load_config(
        None,
        {"problem": "picard_synthetic", "decay": "moderate", "alpha": "1.5",
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


def test_build_problem_dispatch_and_errors():
    cfg = load_config(None, {"problem": "picard_synthetic", "decay": "moderate",
                             "alpha": "1.5", "n": "16"})
    prob = build_problem(cfg)
    assert prob.spectrum.kind == "moderate_or_mild"
    assert prob.spectrum.alpha == 1.5
    cfg_severe = load_config(None, {"problem": "prescribed", "rho": "3.0", "n": "16"})
    assert build_problem(cfg_severe).spectrum.rho == 3.0
    # Constructor requirements surface as configuration errors.
    with pytest.raises(ConfigError, match="even"):
        build_problem(load_config(None, {"problem": "shaw", "n": "33"}))


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


def test_run_respects_panel_subset(tmp_path):
    outdir = tmp_path / "subset"
    run(small_config(outdir, panels="ad"))
    names = set(os.listdir(outdir))
    assert "panel_a.svg" in names and "panel_d.svg" in names
    assert "panel_b.svg" not in names and "panel_c.svg" not in names
    outdir2 = tmp_path / "nopanels"
    run(small_config(outdir2, panels="none"))
    assert not any(n.endswith(".svg") for n in os.listdir(outdir2))


def test_panels_are_pure_functions_of_csvs(base_run):
    path = os.path.join(base_run.outdir, "panel_a.svg")
    before = open(path, "rb").read()
    os.remove(path)
    written = render_panels(base_run.outdir, "a")
    assert written == ["panel_a.svg"]
    assert open(path, "rb").read() == before


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


def test_run_maps_a_breakdown_at_the_start_to_a_config_error(tmp_path, monkeypatch):
    import illposed.experiment as experiment

    def broken(A, b, **kwargs):
        raise BreakdownError(0, "alpha_1", 0.0, 1e-14)

    monkeypatch.setattr(experiment, "bidiag_run", broken)
    with pytest.raises(ConfigError, match="alpha_1"):
        run(ExperimentConfig(problem="deriv2", n=8, out=str(tmp_path / "x")))


def test_cli_kernel_of_subnormal_values_renders_its_panels(tmp_path):
    # The gravity kernel at depth 1e78 spans 1e-323..1e-156: its log axis
    # used to get the tick 10**-324 == 0 and stop in math.log10.
    out = tmp_path / "deep"
    proc = _cli("run", "--problem", "gravity", "--depth", "1e78", "--n", "12",
                "--out", str(out))
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr
    assert "panel_a.svg" in os.listdir(out)


def test_cli_data_whose_square_underflows_exits_2(tmp_path):
    # heat at kappa 0.02 has entries near 1e-276, not zero: only ||b_true||^2
    # underflows, and the message says so.
    proc = _cli("run", "--problem", "heat", "--n", "64", "--kappa", "0.02",
                "--out", str(tmp_path / "x"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:")
    assert "underflow" in proc.stderr and "identically zero" not in proc.stderr


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
    problem=st.sampled_from(["shaw", "gravity", "deriv2", "heat", "prescribed", "picard_synthetic"]),
    decay=st.sampled_from(["severe", "moderate", "mild"]),
    n=st.integers(16, 256),
    noise=st.sampled_from([1e-2, 1e-3, 1e-5]),
    seed=st.integers(0, 1000),
    reorth=st.booleans(),
)
# Breakdown at an alpha entry used to leave an empty trailing block.
@example(problem="shaw", decay="severe", n=64, noise=1e-3, seed=0, reorth=True)
@example(problem="heat", decay="severe", n=16, noise=1e-2, seed=0, reorth=True)
# Without reorthogonalization a square run used to die at its last step.
@example(problem="deriv2", decay="severe", n=16, noise=1e-3, seed=0, reorth=False)
def test_run_returns_or_raises_only_documented_errors(problem, decay, n, noise, seed, reorth):
    with tempfile.TemporaryDirectory() as out:
        config = ExperimentConfig(
            problem=problem, decay=decay, n=n, noise=noise, seed=seed, out=out,
            reorth=reorth,
        )
        try:
            run(config)
        except (ConfigError, InvariantViolation):
            pass


# Extreme float settings: at, near or past the limits of float64.
_EXTREME_SETTINGS = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(["depth", "kappa", "zeta"]),
              st.floats(1e150, 1e300) | st.floats(1e-300, 1e-150)),
    st.tuples(st.just("scale"), st.floats(1e300, 1.7e308)),
    st.tuples(st.just("rho"), st.floats(1.0, 1.0 + 1e-12, exclude_min=True) | st.floats(1e100, 1e300)),
)


@settings(max_examples=100, deadline=None)
@given(
    problem=st.sampled_from(["shaw", "gravity", "deriv2", "heat", "prescribed", "picard_synthetic"]),
    n=st.integers(2, 12),
    noise=st.sampled_from(["0.5", "1e-3", "1e-14"]),
    kmax=st.sampled_from(["1", "2", "none"]),
    reorth=st.sampled_from(["true", "false"]),
    extreme=_EXTREME_SETTINGS,
)
# Panel c's two values one ulp apart used to give a log axis of zero span.
@example(problem="prescribed", n=2, noise="1e-14", kmax="none", reorth="true", extreme=None)
@example(problem="picard_synthetic", n=2, noise="1e-14", kmax="none", reorth="true", extreme=None)
@example(problem="gravity", n=2, noise="1e-14", kmax="none", reorth="false", extreme=None)
# depth^2, kappa^2 and n * scale used to overflow a Python float.
@example(problem="gravity", n=8, noise="1e-3", kmax="none", reorth="true", extreme=("depth", 1e160))
@example(problem="heat", n=8, noise="1e-3", kmax="none", reorth="true", extreme=("kappa", 1e160))
@example(problem="deriv2", n=8, noise="1e-3", kmax="none", reorth="true", extreme=("scale", 1e308))
# A spectrum flat to rounding used to break down before the first step.
@example(problem="prescribed", n=12, noise="1e-3", kmax="1", reorth="true",
         extreme=("rho", 1.0000000000000002))
@example(problem="picard_synthetic", n=12, noise="1e-3", kmax="none", reorth="false",
         extreme=("rho", 1.0000000000000002))
# Noise 0.5 used to make ||b||^2 overflow just below the zeta bound.
@example(problem="prescribed", n=12, noise="0.5", kmax="none", reorth="true", extreme=("zeta", 1e154))
def test_cli_run_never_raises(problem, n, noise, kmax, reorth, extreme):
    args = ["run", "--problem", problem, "--n", str(n), "--noise", noise,
            "--kmax", kmax, "--reorth", reorth]
    if extreme is not None:
        args += [f"--{extreme[0]}", repr(extreme[1])]
    with tempfile.TemporaryDirectory() as out:
        assert cli_main(args + ["--out", out]) in (0, 1, 2)
