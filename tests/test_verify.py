"""The case list of ``tools/verify.py`` keeps every case of both verifications,
and the benchmark's check keeps the audit slack of the package."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from illposed.analysis import AUDIT_SLACK  # noqa: E402
from perfbench import check  # noqa: E402
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
