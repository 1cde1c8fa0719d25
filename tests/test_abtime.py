"""``tools/abtime.py`` times two checkouts in one process and prints the
per-case minima and the ratios, overall and per n."""

import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import sweep_draw  # noqa: E402

_spec = importlib.util.spec_from_file_location("abtime", ROOT / "tools" / "abtime.py")
abtime = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abtime)


def test_abtime_times_this_checkout_against_itself(tmp_path):
    cases = [c for c in sweep_draw(0) if c["n"] == 16][:2]
    names = ("illposed_abtest_a", "illposed_abtest_b")
    try:
        sides = [abtime.load(ROOT, name) for name in names]
        times = abtime.alternate(sides, cases, 2, tmp_path)
    finally:
        for mod in [m for m in sys.modules if m.split(".")[0] in names]:
            del sys.modules[mod]
    assert [[len(t) for t in side] for side in times] == [[2, 2], [2, 2]]
    out = abtime.report(cases, times)
    number = r"\d+\.\d+"
    assert len(out) == 4
    for ln in out[:2]:
        assert re.fullmatch(rf"case .*n=16.* a {number} b {number} ratio {number}", ln), ln
    for ln, label in zip(out[2:], ("n=16", "all")):
        assert ln.startswith(f"{label} cases 2 "), ln
        ratios = [float(x) for x in re.findall(rf"(?:median_ratio|sum_ratio) ({number})", ln)]
        assert len(ratios) == 2 and all(r > 0 for r in ratios), ln
