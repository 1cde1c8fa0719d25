"""The case list of ``tools/verify.py`` keeps every case of both verifications,
its first line names the BLAS in use, and the benchmark's check keeps the
audit slack of the package."""

import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from illposed.analysis import AUDIT_SLACK  # noqa: E402
from perfbench import check, env  # noqa: E402
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


def test_benchmark_slack_is_the_audit_slack():
    # perfbench/check.py keeps its own copy; its tolerances follow the audit's.
    assert check.AUDIT_SLACK == AUDIT_SLACK


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
