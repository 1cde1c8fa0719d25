"""Record the reference values the benchmark's correctness check uses.

    python3 perfbench/record_reference.py [--out perfbench/reference.json]

Runs every case any shipped workload can draw (``reference_cases``) once
and stores its outcome and observed values.  The shipped table was recorded
at the commit that introduced the benchmark; recording it again after a
change to ``src/`` would make the check compare the program with itself.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def record_cases(cases, outdir) -> dict:
    """case key -> {"outcome", "observed", "detail"} for each case."""
    from perfbench.bench import run_case
    from perfbench.workloads import case_key

    out = {}
    for case in cases:
        _, outcome, obs, detail = run_case(case, outdir)
        out[case_key(case)] = {"outcome": outcome, "observed": obs, "detail": detail}
    return out


def main(argv=None) -> int:
    from perfbench import env

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "reference.json"))
    args = parser.parse_args(argv)
    env.limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))

    from perfbench.workloads import reference_cases

    outdir = ROOT / ".perfbench_out" / "record"
    start = time.perf_counter()
    try:
        cases = record_cases(reference_cases(), outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    meta = env.record(recorded_seconds=round(time.perf_counter() - start, 1))
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write('{"meta": ' + json.dumps(meta, sort_keys=True) + ',\n"cases": {\n')
        fh.write(
            ",\n".join(
                json.dumps(k) + ": " + json.dumps(v, sort_keys=True)
                for k, v in cases.items()
            )
        )
        fh.write("\n}}\n")
    print(f"{len(cases)} cases written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
