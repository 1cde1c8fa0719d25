"""Closed-loop measurement of ``illposed.experiment.run()`` and its metrics.

One process runs one configuration at a time and starts the next only when
the previous one has returned.  End-to-end metrics come from untraced calls;
a traced run interleaves traced and untraced calls of the same cases and
derives the per-layer metrics from the spans.
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass

from . import check
from .tracer import layer_self_seconds
from .workloads import case_key


@dataclass(frozen=True)
class Call:
    """One ``run()`` call: its wall time, outcome and check verdict."""

    key: str
    seconds: float
    outcome: str
    verdict: str
    rows: int
    traced: bool
    pass_no: int = 0
    rss_mb: float = 0.0
    detail: str = ""

    @property
    def failed(self) -> bool:
        """Raised something other than ConfigError/InvariantViolation, or
        was rejected by the correctness check."""
        return self.outcome.startswith("crash:") or self.verdict.startswith("mismatch")


def _empty(outdir) -> None:
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)


def peak_rss_mb() -> float:
    """High-water RSS of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_case(case: dict, outdir, tracer=None):
    """Run one case into an emptied ``outdir``.

    Returns ``(seconds, outcome, observation, error text)``.  Under a
    tracer the artifacts are also compared with themselves, which times
    ``experiment.compare`` on this run's files.
    """
    from illposed import experiment

    config = experiment.ExperimentConfig(**case, out=str(outdir))
    _empty(outdir)
    err = None
    with tracer if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            experiment.run(config)
        except Exception as exc:  # classified below; the loop must go on
            err = exc
        seconds = time.perf_counter() - start
        outcome = check.classify(err)
        if tracer is not None and outcome in ("ok", "invariant"):
            experiment.compare(outdir, outdir)
    obs = check.observe(outdir) if outcome in ("ok", "invariant") else None
    detail = "" if err is None else f"{type(err).__name__}: {err}"
    del err
    # Free this call's reference cycles (and their n x n arrays) now: each
    # CLI call starts in a fresh process, so the next call should not pay
    # for them in its time or its peak RSS.
    gc.collect()
    return seconds, outcome, obs, detail


def measure(cases, seconds: float, reference: dict, outdir, tracer=None) -> list:
    """Whole passes over ``cases`` until the next pass would end after
    ``seconds`` (at least one pass).  Returns the :class:`Call` list.

    With a tracer every case runs twice in a row, untraced and traced, the
    order alternating from one case to the next.
    """
    calls = []
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for i, case in enumerate(cases):
            if tracer is None:
                modes = (None,)
            else:
                modes = (None, tracer) if (passes + i) % 2 == 0 else (tracer, None)
            for t in modes:
                if t is not None:
                    t.run_id += 1
                secs, outcome, obs, detail = run_case(case, outdir, t)
                key = case_key(case)
                calls.append(
                    Call(
                        key=key,
                        seconds=secs,
                        outcome=outcome,
                        verdict=check.verdict(reference, key, outcome, obs),
                        rows=int(obs["headline"]["analysis_rows"]) if obs else 0,
                        traced=t is not None,
                        pass_no=passes,
                        rss_mb=peak_rss_mb(),
                        detail=detail,
                    )
                )
        passes += 1
        now = time.perf_counter()
        if (now - start) + (now - pass_start) > seconds:
            return calls


def p90(values) -> float:
    """90th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(calls) -> dict:
    """name -> (value, unit, note) from the untraced calls."""
    calls = [c for c in calls if not c.traced]
    secs = [c.seconds for c in calls]
    done = [c.seconds for c in calls if not c.failed]
    if not done:
        raise RuntimeError("no run() call completed; latency is undefined")
    failed = len(calls) - len(done)
    per_pass: dict = {}
    for c in calls:
        per_pass.setdefault(c.pass_no, []).append(c.seconds)
    pass_means = [statistics.fmean(v) for v in per_pass.values()]
    return {
        "run_s": (
            statistics.median(pass_means),
            "s",
            f"median over {len(pass_means)} passes of the mean of their "
            f"{len(secs) // len(pass_means)} run() calls",
        ),
        "configs_per_s": (
            len(done) / sum(secs),
            "1/s",
            f"{len(done)} completed configs / {sum(secs):.3f} s in run()",
        ),
        "config_s.p50": (statistics.median(done), "s", f"{len(done)} completed configs"),
        "config_s.p90": (p90(done), "s", f"{len(done)} completed configs"),
        "failed_frac": (failed / len(calls), "fraction", f"{failed} failed / {len(calls)} attempted"),
        "peak_rss_mb": (
            max(c.rss_mb for c in calls if c.pass_no == 0),
            "MiB",
            "ru_maxrss at the end of the first pass",
        ),
    }


#: Per-layer time metrics: metric name -> tracer layer (summed self time).
LAYER_SECONDS = {
    "analysis.gamma_exact_s": "analysis.gamma_exact",
    "analysis.gamma_via_Gk_s": "analysis.gamma_via_Gk",
    "analysis.ritz_s": "analysis.ritz",
    "analysis.delta_s": "analysis.delta",
    "analysis.sigma_delta_s": "analysis.sigma_delta",
    "analysis.bounds_s": "analysis.bounds",
    "analysis.checks_s": "analysis.checks",
    "bidiag.run_s": "bidiag.run",
    "bidiag.audit_s": "bidiag.audit",
    "gallery.build_s": "gallery.build",
    "linalg.svd_s": "linalg.svd",
    "noise.add_noise_s": "noise.add_noise",
    "noise.picard_s": "noise.picard",
    "tsvd.sweep_s": "tsvd.sweep",
    "lsqr.sweep_s": "lsqr.sweep",
    "csvio.write_s": "csvio.write",
    "svgplot.render_s": "svgplot.render",
    "experiment.self_s": "experiment",
    "experiment.compare_s": "experiment.compare",
}


def per_layer(calls, spans) -> dict:
    """name -> (value, unit, note), each per traced ``run()`` call."""
    traced = [c for c in calls if c.traced]
    plain = [c for c in calls if not c.traced]
    n = len(traced)
    note = f"per run() call, {n} traced calls"
    seconds = layer_self_seconds(spans)
    out = {name: (seconds.get(layer, 0.0) / n, "s", note) for name, layer in LAYER_SECONDS.items()}

    def spans_of(layer, name=None):
        return [s for s in spans if s.layer == layer and (name is None or s.name == name)]

    for route in ("gamma_exact", "gamma_via_Gk"):
        mine = spans_of(f"analysis.{route}")
        out[f"analysis.{route}.calls"] = (len(mine) / n, "count", note)
        flop = sum(s.counts.get("flop", 0.0) for s in mine)
        out[f"analysis.{route}.gflop_computed"] = (
            flop / n / 1e9,
            "Gflop",
            "computed from the matrix shapes, " + note,
        )
    steps = spans_of("bidiag.run", "illposed.bidiag.bidiag_step")
    out["bidiag.steps"] = (len(steps) / n, "count", note)
    out["bidiag.step_ms"] = (
        1e3 * sum(s.seconds for s in steps) / max(len(steps), 1),
        "ms",
        f"mean of {len(steps)} steps",
    )
    out["analysis.rows"] = (sum(c.rows for c in traced) / n, "count", note)
    for layer in ("csvio.write", "svgplot.render"):
        total = sum(s.counts.get("bytes", 0) for s in spans_of(layer))
        out[f"{layer.split('.')[0]}.bytes"] = (total / n, "bytes", note)
    out["trace.overhead_s"] = (
        (sum(c.seconds for c in traced) - sum(c.seconds for c in plain)) / n,
        "s",
        f"traced minus untraced run() seconds, {n} pairs",
    )
    return out
