"""Shared fixtures: cached problem/instance/run bundles.

Building a problem means a dense SVD, and a run bundle additionally means a
full bidiagonalization plus both sweeps, so bundles are built once per
session and shared.  Tests must treat cached objects as read-only.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from illposed import (
    ExperimentConfig,
    IllPosedProblem,
    SpectrumModel,
    add_noise,
    make_deriv2,
    make_gravity,
    make_heat,
    make_picard_synthetic,
    make_prescribed,
    make_shaw,
    noiseless_instance,
    picard_diagnostic,
    tsvd_sweep,
    lsqr_sweep,
)
from illposed.bidiag import bidiag_run
from illposed.noise import NoisyInstance
from illposed.tsvd import TsvdSweep
from illposed.lsqr import LsqrTrace


def build_problem(name: str, n: int, **kw) -> IllPosedProblem:
    """Problem constructor dispatch used by the cached factories."""
    if name == "shaw":
        return make_shaw(n)
    if name == "gravity":
        return make_gravity(n, **kw)
    if name == "deriv2":
        return make_deriv2(n)
    if name == "heat":
        return make_heat(n, **kw)
    if name == "prescribed":
        return make_prescribed(n, kw.pop("spectrum"), kw.pop("seed"), **kw)
    if name == "picard":
        return make_picard_synthetic(n, kw.pop("spectrum"), kw.pop("seed"), **kw)
    raise ValueError(name)


def severe(rho, beta=0.5, zeta=1.0):
    return SpectrumModel(kind="severe", rho=rho, zeta=zeta, beta_picard=beta)


def poly(alpha, beta=0.5, zeta=1.0):
    return SpectrumModel(kind="moderate_or_mild", alpha=alpha, zeta=zeta, beta_picard=beta)


@dataclass(frozen=True)
class RunBundle:
    """One problem + one noise draw, factorized and swept."""

    problem: IllPosedProblem
    instance: NoisyInstance
    picard: object
    state: object  # terminal BidiagState
    tsvd: TsvdSweep
    lsqr: LsqrTrace

    @property
    def sigma(self):
        return self.problem.svd.sigma


class BundleCache:
    """Keyed caches for problems and full run bundles."""

    def __init__(self):
        self._problems = {}
        self._bundles = {}

    def problem(self, name, n, **kw) -> IllPosedProblem:
        key = (name, n, tuple(sorted(kw.items())))
        if key not in self._problems:
            self._problems[key] = build_problem(name, n, **kw)
        return self._problems[key]

    def bundle(self, name, n, eps, seed, **kw) -> RunBundle:
        key = (name, n, eps, seed, tuple(sorted(kw.items())))
        if key not in self._bundles:
            pkw = dict(kw)
            if name in ("picard", "prescribed"):
                # One seed drives both the problem construction and the
                # noise draw, matching the experiment driver's contract.
                pkw.setdefault("seed", seed)
            problem = self.problem(name, n, **pkw)
            if eps is None:
                instance = noiseless_instance(problem)
            else:
                instance = add_noise(problem, eps, seed)
            state, _ = bidiag_run(
                problem.A, instance.b, norm_A=float(problem.svd.sigma[0])
            )
            self._bundles[key] = RunBundle(
                problem=problem,
                instance=instance,
                # The coefficient diagnostic needs a positive noise floor.
                picard=picard_diagnostic(instance) if instance.eta > 0 else None,
                state=state,
                tsvd=tsvd_sweep(instance),
                # The sweep length of ``illposed run`` with its default kmax.
                lsqr=lsqr_sweep(instance, state, ExperimentConfig().effective_kmax(n)),
            )
        return self._bundles[key]


_CACHE = BundleCache()


@pytest.fixture(scope="session")
def cache() -> BundleCache:
    return _CACHE


@pytest.fixture(scope="session")
def rng_factory():
    return np.random.default_rng
