"""The case list of ``tools/verify.py`` keeps every case of both verifications,
its first line names the BLAS in use, the benchmark's check keeps the audit
slack of the package, and the benchmark's tracer still sees every stage."""

import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from illposed.analysis import AUDIT_SLACK  # noqa: E402
from illposed.csvio import read_csv  # noqa: E402
from illposed.experiment import ExperimentConfig, run  # noqa: E402
from perfbench import check, env  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import case, case_key, grid  # noqa: E402

_spec = importlib.util.spec_from_file_location("verify", ROOT / "tools" / "verify.py")
verify = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verify)


def test_case_list_covers_the_grid_the_seeds_and_the_kernels():
    keys = [case_key(c) for c in verify.cases()]
    assert len(keys) == len(set(keys)), "a case is run twice"
    want = grid()
    want += [case(p, 1024, 1e-3, s, kmax=40) for p in ("shaw", "deriv2") for s in range(16)]
    want += [case(p, 1024, 1e-3, 0, kmax=40) for p in ("gravity", "heat")]
    missing = {case_key(c) for c in want} - set(keys)
    assert not missing, sorted(missing)


def test_every_case_is_a_valid_config(tmp_path):
    # Each benchmark and verify case sets only keys its problem reads.
    for c in verify.cases():
        ExperimentConfig(**c, out=str(tmp_path))


def test_benchmark_slack_is_the_audit_slack():
    # perfbench/check.py keeps its own copy; its tolerances follow the audit's.
    assert check.AUDIT_SLACK == AUDIT_SLACK


def test_tracer_sees_every_check_and_bound_of_a_run(tmp_path):
    # The tracer patches the names run() resolves in illposed.experiment, so
    # each predicate, bound evaluator and writer must be called through them,
    # and its byte counts read the writers' arguments and results.
    with Tracer() as tracer:
        result = run(ExperimentConfig(problem="deriv2", n=24, out=str(tmp_path)))
    spans = {}
    for span in tracer.spans:
        spans.setdefault(span.name.removeprefix("illposed.experiment."), []).append(span)
    # Every per-step check and bound is one span per analysed step, and the
    # recurrence one bidiag_step span per step.
    K = len(result.records)
    assert K == 23
    for name in ("ritz_values", "delta_norm_via_angles", "sigma_delta_norm", "lagrange_factor",
                 "bound_report", "near_best_predicate", "natural_order_check",
                 "cauchy_interlace_check", "mirsky_gap_check"):
        assert len(spans.get(name, [])) == K, name
    steps = len(read_csv(tmp_path / "bidiag.csv")[1]["alpha"]) - 1
    assert len(spans["illposed.bidiag.bidiag_step"]) == steps == 23
    # The producers run() calls inside its one refusal path are spans too.
    for name in ("build_problem", "add_noise", "bidiag_run", "tsvd_sweep", "lsqr_sweep"):
        assert len(spans[name]) == 1, name
    (panels,) = spans["render_panels"]
    svgs = sorted(tmp_path.glob("panel_*.svg"))
    assert len(svgs) == 4
    assert panels.counts["bytes"] == sum(p.stat().st_size for p in svgs)
    for csv in ("picard", "bidiag", "tsvd", "lsqr", "analysis", "ritz"):
        (writer,) = spans[f"write_{csv}_csv"]
        assert writer.counts["bytes"] > 0, csv


def test_first_line_names_the_blas_library_version_and_threads():
    # Listings taken at different BLAS thread counts must differ at line 1.
    info = ("OpenBLAS 0.3.27  DYNAMIC_ARCH Haswell", 2)
    assert verify.blas_line(info) == "blas OpenBLAS 0.3.27 DYNAMIC_ARCH Haswell threads 2"
    assert verify.blas_line((info[0], 1)) != verify.blas_line(info)
    description, threads = env.blas_info()
    line = verify.blas_line((description, threads))
    assert re.fullmatch(r"blas \S+( \S+)* threads -?\d+", line), line
    assert line.endswith(f" threads {threads}")
    if threads != -1:  # a library that reports its thread count names its version
        assert re.match(r"blas \S+ \d+\.\d+", line), line
