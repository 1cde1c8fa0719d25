"""Check every benchmark reference case against the recorded reference values.

    python3 tools/check_reference.py [--verbose]

Runs each case of ``perfbench.workloads.reference_cases()`` once through
``perfbench.bench.run_case`` with the sources under ``src/``, judges it with
``perfbench.check.verdict`` against ``perfbench/reference.json``, prints
every mismatch and the verdict counts, and exits 1 when any case mismatches
(0 otherwise).  The benchmark applies the same check to the cases a run
draws; this covers all of them at once.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true", help="print every verdict")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import env

    env.limit_blas_threads()  # before numpy is imported, as in the benchmark
    from perfbench import bench, check
    from perfbench.workloads import case_key, reference_cases

    with open(ROOT / "perfbench" / "reference.json", encoding="ascii") as fh:
        reference = json.load(fh)["cases"]
    outdir = ROOT / ".perfbench_out" / f"check-{os.getpid()}"
    counts: Counter = Counter()
    try:
        for case in reference_cases():
            key = case_key(case)
            _, outcome, obs, _ = bench.run_case(case, outdir)
            verdict = check.verdict(reference, key, outcome, obs)
            counts[verdict.split(":")[0]] += 1
            if args.verbose or verdict.startswith("mismatch"):
                print(f"[{key}] {verdict}")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(" ".join(f"{name}={counts[name]}" for name in sorted(counts)),
          f"total={sum(counts.values())}")
    return 1 if counts["mismatch"] else 0


if __name__ == "__main__":
    sys.exit(main())
