"""Span tracer around the functions ``illposed.experiment.run()`` calls.

The tracer patches names where ``run()`` resolves them, from outside the
package.  ``illposed.experiment`` binds its callees with ``from .analysis
import ...``, so the bindings patched are the ones in ``illposed.experiment``;
patching ``illposed.analysis`` would leave ``run()`` untouched.  Two names
are patched in their home modules because they are called there:
``illposed.bidiag.bidiag_step`` (by ``bidiag_run``) and
``illposed.gallery.svd`` (by the problem constructors).

Each call records a :class:`Span` in memory; ``Tracer.dump`` writes them
out when the benchmark ends.  Leaving the ``with`` block restores every
original binding.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Callable


@dataclass
class Span:
    """One traced call; ``parent`` indexes ``Tracer.spans`` (None: a root)."""

    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run_id: int
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``module.attr``, reported under ``layer``.

    ``count(args, kwargs, result)`` returns exact counts for the span; it
    runs after the call returns and is skipped when the call raises.
    """

    module: str
    attr: str
    layer: str
    count: Callable | None = None


def gamma_exact_flop(args, kwargs, result) -> dict:
    """Computed operations of ``gamma_exact(A, Q)`` from the matrix shapes.

    A @ Q and (A Q) @ Q' cost 2mnk each, the subtraction mn, and the
    singular values of the m x n residual 4mn^2 - 4n^3/3 (Householder
    bidiagonalization; the O(n^2) bidiagonal iteration is left out).
    """
    (m, n), k = args[0].shape, args[1].shape[1]
    return {"flop": 4 * m * n * k + m * n + 4 * m * n * n - 4 * n**3 / 3}


def gamma_via_Gk_flop(args, kwargs, result) -> dict:
    """Computed operations of the singular values of the trailing block G_k."""
    state, k = args[0], args[1]
    cols = len(state.alphas) - k
    rows = cols + 1 if len(state.betas) - k - 1 == cols else cols
    return {"flop": 4 * rows * cols * cols - 4 * cols**3 / 3}


def file_bytes(args, kwargs, result) -> dict:
    """Size of the CSV a ``write_*_csv(obj, path)`` call wrote."""
    return {"bytes": os.path.getsize(args[-1])}


def panel_bytes(args, kwargs, result) -> dict:
    """Total size of the SVG panels ``render_panels(outdir, ...)`` wrote."""
    return {"bytes": sum(os.path.getsize(os.path.join(args[0], n)) for n in result)}


def _in_experiment(layer, *attrs, count=None):
    return [Target("illposed.experiment", a, layer, count) for a in attrs]


#: Every function ``run()`` reaches that the per-layer metrics name.
RUN_TARGETS = (
    _in_experiment("experiment", "run")
    + _in_experiment("experiment.compare", "compare")
    + _in_experiment("gallery.build", "build_problem")
    + [Target("illposed.gallery", "svd", "linalg.svd")]
    + _in_experiment("noise.add_noise", "add_noise")
    + _in_experiment("noise.picard", "picard_diagnostic")
    + _in_experiment("bidiag.run", "bidiag_run")
    + [Target("illposed.bidiag", "bidiag_step", "bidiag.run")]
    + _in_experiment("bidiag.audit", "recurrence_residuals")
    + _in_experiment("tsvd.sweep", "tsvd_sweep")
    + _in_experiment("lsqr.sweep", "lsqr_sweep")
    + _in_experiment("analysis.gamma_exact", "gamma_exact", count=gamma_exact_flop)
    + _in_experiment("analysis.gamma_via_Gk", "gamma_via_Gk", count=gamma_via_Gk_flop)
    + _in_experiment("analysis.ritz", "ritz_values")
    + _in_experiment("analysis.delta", "delta_norm_via_angles")
    + _in_experiment("analysis.sigma_delta", "sigma_delta_norm")
    + _in_experiment("analysis.bounds", "bound_report", "lagrange_factor")
    + _in_experiment(
        "analysis.checks",
        "near_best_predicate",
        "natural_order_check",
        "cauchy_interlace_check",
        "mirsky_gap_check",
    )
    + _in_experiment(
        "csvio.write",
        "write_picard_csv",
        "write_bidiag_csv",
        "write_tsvd_csv",
        "write_lsqr_csv",
        "write_analysis_csv",
        "write_ritz_csv",
        count=file_bytes,
    )
    + _in_experiment("svgplot.render", "render_panels", count=panel_bytes)
)


class Tracer:
    """Wraps ``targets`` while inside ``with tracer:``; spans accumulate."""

    def __init__(self, targets=RUN_TARGETS, clock=time.perf_counter):
        self.targets = tuple(targets)
        self.clock = clock
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list = []

    def __enter__(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for t in self.targets:
                module = importlib.import_module(t.module)
                original = getattr(module, t.attr)
                self._saved.append((module, t.attr, original))
                setattr(module, t.attr, self._wrap(original, t))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        """Put every original binding back (last patched, first restored)."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, target: Target):
        name = f"{target.module}.{target.attr}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, target.layer, 0.0, 0.0, parent, self.run_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if target.count is not None:
                span.counts.update(target.count(args, kwargs, result))
            return result

        return traced

    def dump(self, path, env: dict) -> None:
        """Write the environment record and every span as JSON."""
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"env": env, "spans": [asdict(s) for s in self.spans]}, fh)


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.seconds
    return out


def layer_self_seconds(spans) -> dict:
    """Summed self time per layer.

    A layer's nested spans (``bidiag_step`` inside ``bidiag_run``) add up to
    the layer's whole time; time in other layers' child spans is excluded.
    """
    out: dict = {}
    for s, t in zip(spans, self_times(spans)):
        out[s.layer] = out.get(s.layer, 0.0) + t
    return out
