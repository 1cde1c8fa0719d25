"""Print the SHA-256 of every artifact of a fixed set of runs.

    python3 tools/artifact_digest.py > digest.txt

Runs, one at a time with the sources under ``src/``, the 300 configurations
of ``perfbench.workloads.grid()`` and shaw, deriv2, gravity and heat at
n = 1024 (noise 1e-3, seed 0, kmax 40).  For each run it prints the case and
its outcome (``ok``, ``invariant``, ``config`` or ``crash:<exception>``),
then one ``<sha256>  <file>`` line per artifact: the CSVs, the SVG panels
and ``summary.txt``.  ``config.txt`` is left out because it echoes the
output path.  Two checkouts write the same bytes exactly when their listings
are identical, so "bytes unchanged" is one ``diff`` of two outputs.  The
BLAS thread count is capped as in the benchmark, since it can move bits.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Written by every run but not compared: it holds the output path.
SKIPPED = ("config.txt",)


def digest_cases() -> list:
    """The grid, then the four kernels at n = 1024."""
    from perfbench.workloads import case, grid

    return grid() + [
        case(p, 1024, 1e-3, 0, kmax=40) for p in ("shaw", "deriv2", "gravity", "heat")
    ]


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)

    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import env

    env.limit_blas_threads()  # before numpy is imported, as in the benchmark
    from illposed import experiment
    from perfbench.check import classify
    from perfbench.workloads import case_key

    outdir = ROOT / ".perfbench_out" / f"digest-{os.getpid()}"
    try:
        for c in digest_cases():
            shutil.rmtree(outdir, ignore_errors=True)
            err = None
            try:
                experiment.run(experiment.ExperimentConfig(**c, out=str(outdir)))
            except Exception as exc:  # the outcome is part of the listing
                err = exc
            print(f"case {case_key(c)} outcome {classify(err)}")
            names = sorted(os.listdir(outdir)) if outdir.is_dir() else []
            for name in names:
                if name not in SKIPPED:
                    print(f"{sha256(outdir / name)}  {name}")
            sys.stdout.flush()
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
