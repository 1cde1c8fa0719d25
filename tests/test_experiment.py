"""Unit tests for the experiment runner, artifact comparison, and CLI."""

import os
import shutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import illposed

from illposed.cli import main as cli_main
from illposed.csvio import read_csv
from illposed.experiment import (
    ARTIFACT_CSVS,
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
        ({"n": "1"}, "outside"),
        ({"bogus_key": "1"}, "unknown config key"),
        ({"reorth": "maybe"}, "bad value for reorth"),
        ({"n": "abc"}, "bad value for n"),
    ]
    for overrides, needle in cases:
        with pytest.raises(ConfigError, match=needle):
            load_config(None, overrides)


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
    assert base_run.violations == ()
    assert len(base_run.records) == base_run.summary["analysis_rows"] == 8


def test_run_summary_is_consistent_with_csvs(base_run):
    outdir = base_run.outdir
    summary = read_summary(outdir)
    assert list(summary) == SUMMARY_KEYS

    _, header, rows = read_csv(os.path.join(outdir, "lsqr.csv"))
    flags = [r[header.index("is_kstar")] for r in rows]
    assert flags.count("1") == 1
    assert summary["kstar"] == rows[flags.index("1")][header.index("k")]

    _, header, rows = read_csv(os.path.join(outdir, "tsvd.csv"))
    errs = [float(r[header.index("rel_error")]) for r in rows]
    best_row = min(range(len(errs)), key=errs.__getitem__)
    assert summary["k0_realized"] == rows[best_row][header.index("k")]
    assert float(summary["best_tsvd_error"]) == errs[best_row]

    _, header, rows = read_csv(os.path.join(outdir, "analysis.csv"))
    assert len(rows) == int(summary["analysis_rows"])
    for column, key in [("natural_order", "first_natural_order_failure"),
                        ("near_best", "first_near_best_failure")]:
        fails = [r[header.index("k")] for r in rows if r[header.index(column)] == "0"]
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
)
# Breakdown at an alpha entry used to leave an empty trailing block.
@example(problem="shaw", decay="severe", n=64, noise=1e-3, seed=0)
@example(problem="heat", decay="severe", n=16, noise=1e-2, seed=0)
def test_run_returns_or_raises_only_documented_errors(problem, decay, n, noise, seed):
    with tempfile.TemporaryDirectory() as out:
        config = ExperimentConfig(
            problem=problem, decay=decay, n=n, noise=noise, seed=seed, out=out
        )
        try:
            run(config)
        except (ConfigError, InvariantViolation):
            pass
