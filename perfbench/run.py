"""Benchmark one workload of ``illposed.experiment.run()``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload shaw-1024 --seed 0 --seconds 20 --trace 0

Prints a report (environment, every metric with its unit and sample count,
the correctness verdict) and, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` they are the per-layer ones, and the spans are written
to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: Interpreter spawns timed before and again after the measured loop.
SETUP_SPAWNS = 5


def setup_seconds() -> list:
    """Wall time of fresh interpreters importing ``illposed.cli``, as every
    CLI call does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import illposed.cli"], cwd=ROOT, env=env, check=True
        )
        out.append(time.perf_counter() - start)
    return out


def main(argv=None) -> int:
    from perfbench import env
    from perfbench.workloads import WORKLOADS, case_key

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "illposed" / "experiment.py").is_file():
        print(f"error: no illposed sources under {SRC}", file=sys.stderr)
        return 2
    reference_path = Path(__file__).resolve().parent / "reference.json"
    if not reference_path.is_file():
        print(f"error: missing {reference_path}", file=sys.stderr)
        return 2
    threads = env.limit_blas_threads()  # before numpy is imported
    sys.path.insert(0, str(SRC))

    from perfbench import bench
    from perfbench.tracer import Tracer

    cases = WORKLOADS[args.workload](args.seed)
    with open(reference_path, encoding="ascii") as fh:
        table = json.load(fh)["cases"]
    # Keep only this draw's entries, so the table adds little to peak RSS.
    reference = {k: table[k] for k in map(case_key, cases) if k in table}
    del table
    gc.freeze()  # keep the rest out of the collections between calls
    record = env.record(
        workload=args.workload,
        seed=args.seed,
        case_seeds=sorted({c["seed"] for c in cases}),
        blas_threads_requested=threads,
    )
    setup = [] if args.trace else setup_seconds()
    tracer = Tracer() if args.trace else None
    outdir = OUT / f"run-{os.getpid()}"
    try:
        calls = bench.measure(cases, args.seconds, reference, outdir, tracer)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if not args.trace:
        setup += setup_seconds()  # spread over the run, not one moment of it

    print(f"workload {args.workload} seed={args.seed} trace={args.trace} "
          f"cases/pass={len(cases)} calls={len(calls)}")
    print("env " + json.dumps(record, sort_keys=True))
    if tracer is None:
        metrics = bench.end_to_end(calls)
        metrics["setup_s"] = (
            statistics.median(setup), "s", f"median of {len(setup)} interpreter spawns"
        )
    else:
        metrics = bench.per_layer(calls, tracer.spans)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_path, record)
        print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    for name, (value, unit, note) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} ({note})")

    verdicts = Counter(c.verdict.split(":")[0] for c in calls)
    for c in calls:
        if c.failed:
            print(f"failed [{c.key}] {c.outcome} {c.detail} -> {c.verdict}")
    mismatched = verdicts.get("mismatch", 0)
    failed = sum(c.failed for c in calls)
    print(f"correct {mismatched == 0} " + json.dumps(verdicts, sort_keys=True))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": mismatched == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
