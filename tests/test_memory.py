"""Memory bounds: no n x n temporary outlives the step that needs it.

tracemalloc sees numpy's array buffers (not LAPACK's workspace), so these
bounds count arrays.  The problem SVD sets a run's high-water mark, so each
constructor must release its own n x n temporaries before ``_finalize``
calls ``gallery.svd``: only A may be alive then.  The TSVD sweep, which
runs to the numerical rank (n for deriv2), may hold two n x kmax arrays.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import poly, severe

from illposed import gallery
from illposed.noise import add_noise
from illposed.tsvd import tsvd_sweep

N = 256
#: O(n) allowance: a few length-n vectors (nodes, x_true, b_true, sigma).
SLACK = 16 * N * 8
#: The fixed-size buffer numpy's iterator allocates for a broadcast ufunc.
UFUNC_BUFFER = np.getbufsize() * 8

CONSTRUCTORS = {
    "shaw": lambda: gallery.make_shaw(N),
    "gravity": lambda: gallery.make_gravity(N),
    "deriv2": lambda: gallery.make_deriv2(N),
    "heat": lambda: gallery.make_heat(N),
    "prescribed": lambda: gallery.make_prescribed(N, severe(1.05), seed=0),
    "picard_synthetic": lambda: gallery.make_picard_synthetic(N, poly(1.5), seed=0),
}


def _traced(fn):
    """``fn()`` under tracemalloc; returns (result, bytes at start, peak)."""
    fn()  # warm-up: first-call allocations are not the function's own
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, base, peak


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_constructor_holds_only_A_when_the_svd_runs(name, monkeypatch):
    at_svd = []
    real_svd = gallery.svd

    def spy(A):
        if tracemalloc.is_tracing():  # not during the warm-up call
            at_svd.append(tracemalloc.get_traced_memory()[0])
        return real_svd(A)

    monkeypatch.setattr(gallery, "svd", spy)
    prob, base, _ = _traced(CONSTRUCTORS[name])
    [at] = at_svd
    alive = at - base
    assert alive <= prob.A.nbytes + SLACK, (
        f"{name}: {alive} bytes traced at the SVD, A is {prob.A.nbytes}"
    )


@pytest.mark.parametrize("kmax", [None, 40])
def test_tsvd_sweep_peak_is_two_n_by_kmax_arrays(kmax):
    prob = gallery.make_deriv2(N)
    inst = add_noise(prob, 1e-3, 0)
    sweep, base, peak = _traced(lambda: tsvd_sweep(inst, kmax=kmax))
    cols = sweep.ks.size
    assert cols == (N if kmax is None else kmax)
    bound = 2 * N * cols * 8 + SLACK + UFUNC_BUFFER
    assert peak - base <= bound, f"peak {peak - base} bytes, one n x kmax array {N * cols * 8}"
