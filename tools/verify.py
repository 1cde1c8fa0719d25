"""Run every verification case once: its reference verdict and artifact digests.

    python3 tools/verify.py > listing.txt

Runs each case of :func:`cases` once, with the sources under ``src/``,
through ``perfbench.bench.run_case``.  The first line names the BLAS
library, its version and its thread count (see :func:`blas_line`).  Per
case it prints ``case <key> outcome <outcome> verdict <verdict>``, the verdict being
``perfbench.check.verdict`` against ``perfbench/reference.json`` (``none``
without a reference value), then one ``<sha256>  <file>`` line per artifact
except ``config.txt``, which echoes the output path.  The last line counts
the verdicts; the exit code is 1 when any case mismatches.  Two checkouts
give the same verdicts and bytes exactly when their listings are identical.
The BLAS thread count is capped as in the benchmark, since it can move bits;
listings taken at different counts differ at the first line.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Written by every run but not compared: it holds the output path.
SKIPPED = ("config.txt",)


def cases() -> list:
    """Every case the benchmark can draw, then gravity and heat at n = 1024."""
    from perfbench.workloads import case, reference_cases

    return reference_cases() + [case(p, 1024, 1e-3, 0, kmax=40) for p in ("gravity", "heat")]


def blas_line(info) -> str:
    """``blas <library and version> threads <count>`` from ``env.blas_info()``."""
    description, threads = info
    return f"blas {' '.join(description.split())} threads {threads}"


def main() -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import env

    env.limit_blas_threads()  # before numpy is imported, as in the benchmark
    from perfbench import bench, check
    from perfbench.workloads import case_key

    with open(ROOT / "perfbench" / "reference.json", encoding="ascii") as fh:
        reference = json.load(fh)["cases"]
    outdir = ROOT / ".perfbench_out" / f"verify-{os.getpid()}"
    print(blas_line(env.blas_info()))
    counts: Counter = Counter()
    try:
        for c in cases():
            key = case_key(c)
            _, outcome, obs, _ = bench.run_case(c, outdir)
            verdict = check.verdict(reference, key, outcome, obs) if key in reference else "none"
            counts[verdict.split(":")[0]] += 1
            print(f"case {key} outcome {outcome} verdict {verdict}")
            for name in sorted(os.listdir(outdir)):
                if name not in SKIPPED:
                    with open(outdir / name, "rb") as fh:
                        print(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}")
            sys.stdout.flush()
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(" ".join(f"{name}={counts[name]}" for name in sorted(counts)),
          f"total={sum(counts.values())}")
    return 1 if counts["mismatch"] else 0


if __name__ == "__main__":
    sys.exit(main())
