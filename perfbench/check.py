"""Correctness check and outcome classifier for one ``run()`` call.

A call ends in one of four outcomes: ``ok``, ``invariant``
(``InvariantViolation``, artifacts written), ``config`` (``ConfigError``) or
``crash:<ExceptionType>`` (anything else).  The first two leave artifacts,
from which :func:`observe` reads the values the check compares with the
reference recorded at the seed commit (``reference.json``, written by
``record_reference.py``).

Comparison rules:

- summary headline keys (:data:`HEADLINE_KEYS`) and the ``k``,
  ``near_best`` and ``natural_order`` columns of ``analysis.csv`` must match
  exactly, as written;
- columns in the units of A -- ``gamma`` and ``gamma_Gk`` per row and the
  smallest Ritz value per step -- may differ by ``2 * AUDIT_SLACK * sigma_1``
  in absolute value.  ``AUDIT_SLACK * sigma_1`` is the slack of the invariant
  audit in ``run()``, the error a faster certified gamma route may have; the
  factor 2 adds the seed route's own rounding, which is far below it;
- the dimensionless headline errors ``best_lsqr_error`` and
  ``best_tsvd_error`` may differ by ``ERROR_RTOL`` relative (1000 times the
  audit slack: they pass through least-squares solves on B_k, which amplify
  rounding by up to cond(B_k)).

A case whose reference outcome is a crash is a known crash when it crashes
the same way again, and an improvement when it now completes.  A case with
no reference value fails loudly (:class:`MissingReference`).
"""

from __future__ import annotations

import csv
import math
import os

AUDIT_SLACK = 1e-12
SIGMA_TOL = 2 * AUDIT_SLACK
ERROR_RTOL = 1e3 * AUDIT_SLACK

HEADLINE_KEYS = (
    "analysis_rows",
    "breakdown",
    "breakdown_step",
    "invariant_violations",
    "kstar",
    "semi_convergent",
    "k0_windowed",
    "k0_naive",
    "k0_realized",
    "first_natural_order_failure",
    "first_near_best_failure",
)
EXACT_COLUMNS = ("k", "near_best", "natural_order")
ERROR_KEYS = ("best_lsqr_error", "best_tsvd_error")


class MissingReference(KeyError):
    """The reference table has no entry for a case the benchmark ran."""


def classify(err: BaseException | None) -> str:
    """Outcome of a ``run()`` call from the exception it raised (or None)."""
    from illposed.experiment import ConfigError, InvariantViolation

    if err is None:
        return "ok"
    if isinstance(err, InvariantViolation):
        return "invariant"
    if isinstance(err, ConfigError):
        return "config"
    return f"crash:{type(err).__name__}"


def _table(path):
    """Header and rows of a schema-tagged artifact CSV."""
    with open(path, newline="", encoding="ascii") as fh:
        fh.readline()  # "# schema=... kind=..."
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _column(path, name):
    header, rows = _table(path)
    j = header.index(name)
    return [r[j] for r in rows]


def observe(outdir) -> dict:
    """The values the check compares, read from a run's artifacts."""
    summary = {}
    with open(os.path.join(outdir, "summary.txt"), encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.rstrip("\n").partition("=")
            summary[key] = value
    analysis = os.path.join(outdir, "analysis.csv")
    theta_min: dict = {}
    for k, _, theta in _table(os.path.join(outdir, "ritz.csv"))[1]:
        theta_min[k] = min(theta_min.get(k, math.inf), float(theta))
    exact = {c: _column(analysis, c) for c in EXACT_COLUMNS}
    return {
        "sigma1": float(_column(os.path.join(outdir, "picard.csv"), "sigma_i")[0]),
        "headline": {k: summary[k] for k in HEADLINE_KEYS},
        "exact": {c: ",".join(v) for c, v in exact.items()},
        "sigma": {
            "gamma": [float(v) for v in _column(analysis, "gamma")],
            "gamma_Gk": [float(v) for v in _column(analysis, "gamma_Gk")],
            "theta_min": [theta_min[k] for k in exact["k"]],
        },
        "errors": {k: float(summary[k]) for k in ERROR_KEYS},
    }


def _close(a: float, b: float, atol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= atol


def differences(ref: dict, obs: dict) -> list:
    """What differs between two observations, beyond the tolerances."""
    out = []
    for section in ("headline", "exact"):
        for key, want in ref[section].items():
            if obs[section].get(key) != want:
                out.append(f"{key}: {obs[section].get(key)!r} != {want!r}")
    atol = SIGMA_TOL * ref["sigma1"]
    for col, want in ref["sigma"].items():
        got = obs["sigma"][col]
        if len(got) != len(want):
            out.append(f"{col}: {len(got)} rows != {len(want)}")
            continue
        worst = max(
            (abs(g - w) for g, w in zip(got, want) if not _close(g, w, atol)),
            default=None,
        )
        if worst is not None:
            out.append(f"{col}: off by {worst:.3e} > {atol:.3e}")
    for key, want in ref["errors"].items():
        got = obs["errors"][key]
        if not _close(got, want, ERROR_RTOL * abs(want)):
            out.append(f"{key}: {got!r} != {want!r}")
    return out


def verdict(reference: dict, key: str, outcome: str, obs: dict | None) -> str:
    """``match``, ``known-crash``, ``improved`` or ``mismatch: <why>``."""
    if key not in reference:
        raise MissingReference(f"no reference value for case {key!r}")
    ref = reference[key]
    if ref["outcome"].startswith("crash:"):
        if outcome == ref["outcome"]:
            return "known-crash"
        if outcome in ("ok", "invariant"):
            return "improved"
        return f"mismatch: outcome {outcome} != {ref['outcome']}"
    if outcome != ref["outcome"]:
        return f"mismatch: outcome {outcome} != {ref['outcome']}"
    if obs is None:
        return "match"
    diffs = differences(ref["observed"], obs)
    return "mismatch: " + "; ".join(diffs) if diffs else "match"
