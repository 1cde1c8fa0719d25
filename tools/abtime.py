"""Time two checkouts' ``illposed`` against each other in one process.

    python3 tools/abtime.py A_ROOT B_ROOT [--seed 0] [--rounds 5] [--control]

Loads the package under ``A_ROOT/src`` and the one under ``B_ROOT/src`` side
by side (as ``illposed_a`` and ``illposed_b``) and runs the cases of the
benchmark's small-sweep draw ``perfbench.workloads.sweep_draw(seed)`` (read
only) through each package's ``experiment.run()``.  Every round runs each
case once per side, the side that goes first alternating from case to case
and round to round, so both sides see the same host load.  It prints the fastest time of each case per
side, then the median over cases of the per-case ratio B/A and the ratio of
the summed fastest times, each overall and per n.  ``--control`` loads A a
second time in B's place: its ratios show what noise alone reads.

Timing in one process takes out what separates two benchmark processes
(heap layout, CPU frequency, other load), which can move the benchmark's
small-sweep latencies by more than a per-call saving does.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(root, name):
    """Import the ``illposed`` package under ``root/src`` as ``name``."""
    init = Path(root).resolve() / "src" / "illposed" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return importlib.import_module(f"{name}.experiment")


def timed_run(experiment, case, outdir) -> float:
    """Seconds of one ``run()`` of ``case``; refusals and violations count
    as runs, as in the benchmark."""
    config = experiment.ExperimentConfig(**case, out=str(outdir))
    gc.collect()
    start = time.perf_counter()
    try:
        experiment.run(config)
    except (experiment.ConfigError, experiment.InvariantViolation):
        pass
    return time.perf_counter() - start


def alternate(sides, cases, rounds, outdir) -> list:
    """``[[seconds per round] per case] per side``, sides alternating."""
    times = [[[] for _ in cases] for _ in sides]
    for r in range(rounds):
        for i, case in enumerate(cases):
            order = (0, 1) if (r + i) % 2 == 0 else (1, 0)
            for s in order:
                times[s][i].append(timed_run(sides[s], case, outdir))
    return times


def ratio_lines(label, fastest_a, fastest_b) -> list:
    per_case = [b / a for a, b in zip(fastest_a, fastest_b)]
    return [f"{label} cases {len(per_case)} median_ratio {statistics.median(per_case):.4f} "
            f"sum_ratio {sum(fastest_b) / sum(fastest_a):.4f} "
            f"sum_a {sum(fastest_a):.6f} s sum_b {sum(fastest_b):.6f} s"]


def report(cases, times) -> list:
    """The per-case minima, then the ratios over all cases and per n."""
    from perfbench.workloads import case_key

    fastest = [[min(t) for t in side] for side in times]
    lines = [f"case {case_key(c)} a {a:.6f} b {b:.6f} ratio {b / a:.4f}"
             for c, a, b in zip(cases, *fastest)]
    for n in sorted({c["n"] for c in cases}):
        pick = [i for i, c in enumerate(cases) if c["n"] == n]
        lines += ratio_lines(f"n={n}", *([side[i] for i in pick] for side in fastest))
    return lines + ratio_lines("all", *fastest)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="root of checkout A (the baseline)")
    parser.add_argument("b", help="root of checkout B")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--control", action="store_true", help="run A against itself")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT))
    from perfbench import env

    env.limit_blas_threads()  # before numpy is imported, as in the benchmark
    from perfbench.workloads import sweep_draw

    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    cases = sweep_draw(args.seed)
    sides = [load(args.a, "illposed_a"), load(args.a if args.control else args.b, "illposed_b")]
    outdir = Path(tempfile.mkdtemp(prefix="abtime-"))
    try:
        for side in sides:  # warm both sides' first calls before timing
            timed_run(side, cases[0], outdir)
        times = alternate(sides, cases, args.rounds, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(f"a {args.a} b {args.a if args.control else args.b} workload small-sweep "
          f"seed {args.seed} rounds {args.rounds}")
    print("\n".join(report(cases, times)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
