"""Package acceptance gate: nine criteria, one test and one verdict line each.

Every test prints exactly one ``criterion N: PASS/FAIL - ...`` line before
asserting, so a plain run shows the scoreboard (use ``pytest -s`` to see the
lines for passing criteria too; for failing ones the line is repeated in the
assertion message).

Index-comparison convention used throughout: realized argmin indices (the
LSQR semi-convergence step k* and the best TSVD truncation level) wobble by
one position when the underlying error curve is flat near its minimum, so
equalities between such indices carry a +/-1 tie slack where noted.  All
other tolerances are absolute or relative as stated inline.
"""

import math
import time

import numpy as np

from conftest import lagrange_max, poly, severe

from illposed.analysis import (
    IllConditionedError,
    bound_report,
    cauchy_interlace_check,
    decay_diagnostic,
    delta_direct,
    delta_norm_via_angles,
    gamma_exact,
    gamma_via_Gk,
    mirsky_gap_check,
    natural_order_check,
    near_best_predicate,
    ritz_values,
    sigma_delta_norm,
)
from illposed.linalg import spectral_norm
from illposed.sweeps import lsqr_sweep

GALLERY = ("shaw", "gravity", "deriv2", "heat")


def _verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    return line


def _gallery_runs():
    """The 24 kernel-gallery runs shared by criteria 1 and 5."""
    return [
        (name, 256, eps, seed, {})
        for name in GALLERY
        for eps in (1e-2, 1e-3)
        for seed in (0, 1, 2)
    ]


def _severe_runs():
    """The Picard-synthetic severe runs shared by criteria 4, 5 and 8."""
    specs = [("picard", 64, 1e-3, s, {"spectrum": severe(r)}) for r in (2.0, 4.0) for s in (0, 1, 2)]
    for r in (2.0, 3.0, 4.0):
        for s in (0, 1, 3):
            spec = ("picard", 64, 1e-3, s, {"spectrum": severe(r)})
            if spec not in specs:
                specs.append(spec)
    return specs


def test_criterion_1_universal_inequalities(cache):
    # Every gallery problem at n=256, both noise levels, three seeds, all
    # available k <= 40: sigma_{k+1} <= gamma_k; gamma_{k+1} < gamma_k;
    # alpha_{k+1} < gamma_k; beta_{k+2} < gamma_k; 2 alpha_{k+1} beta_{k+2}
    # <= gamma_k^2; strict interlacing sigma_{n-k+i} < theta_i < sigma_i;
    # 0 < sigma_i - theta_i <= gamma_k.  Zero violations beyond an additive
    # slack of 1e-12 * sigma_1, inside a five-minute budget.
    t0 = time.perf_counter()
    violations = []
    checked = 0
    truncated = 0
    runs = _gallery_runs()
    for name, n, eps, seed, kw in runs:
        run = cache.bundle(name, n, eps, seed, **kw)
        state = run.state
        sigma = run.sigma
        slack = 1e-12 * sigma[0]
        # gamma_{k+1} and beta_{k+2} must exist, so a factorization that
        # terminates at max_k (numerical rank of the kernel) caps k there.
        kavail = min(40, state.max_k - 2)
        if kavail < 40:
            truncated += 1
        gam = dict(enumerate(gamma_via_Gk(state, kavail + 1), start=1))
        for k in range(1, kavail + 1):
            g = gam[k]
            a_next = state.alphas[k]
            b_next = state.betas[k + 1]
            theta = ritz_values(state.B(k), k)
            tag = f"{name} eps={eps} seed={seed} k={k}"
            checked += 1
            if sigma[k] > g + slack:
                violations.append(f"sigma_(k+1)<=gamma at {tag}")
            if gam[k + 1] - g >= slack:
                violations.append(f"gamma monotone at {tag}")
            if a_next >= g + slack:
                violations.append(f"alpha<gamma at {tag}")
            if b_next >= g + slack:
                violations.append(f"beta<gamma at {tag}")
            if math.sqrt(2.0 * a_next * b_next) > g + slack:
                violations.append(f"2ab<=gamma^2 at {tag}")
            if not cauchy_interlace_check(theta, sigma):
                violations.append(f"interlacing at {tag}")
            if not mirsky_gap_check(theta, sigma, g):
                violations.append(f"0<sigma-theta<=gamma at {tag}")
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 300.0
    line = _verdict(
        1,
        ok,
        f"{checked} step checks over {len(runs)} runs ({truncated} rank-truncated "
        f"below k=40), {len(violations)} violations beyond 1e-12*sigma1, "
        f"{elapsed:.1f}s of 300s budget"
        + (f"; first: {violations[0]}" if violations else ""),
    )
    assert ok, line


def test_criterion_2_subspace_distance_oracle(cache):
    # On instances small enough for the defining construction, the tangent
    # of the largest principal angle must match the spectral norm of the
    # directly constructed Delta_k to 1e-8 relative, and the sine must equal
    # delta / sqrt(1 + delta^2) to 1e-10.  Accepted k are those where the
    # direct construction is numerically meaningful (its Vandermonde factor
    # conditioning below the documented ceiling, no saturated right angle).
    instances = [
        ("shaw", 12, {}),
        ("gravity", 12, {}),
        ("deriv2", 12, {}),
        ("heat", 12, {}),
        ("prescribed", 8, {"spectrum": severe(2.0)}),
        ("prescribed", 10, {"spectrum": severe(2.0)}),
    ]
    worst_rel = 0.0
    worst_sin = 0.0
    accepted = 0
    thin = []
    for name, n, kw in instances:
        run = cache.bundle(name, n, 1e-3, 0, **kw)
        fact = run.problem.svd
        per_instance = 0
        for k in range(1, min(n - 1, run.state.max_k) + 1):
            Qk = run.state.Q_k(k)
            sin_t, tan_t = delta_norm_via_angles(fact.V.T @ Qk, k)
            if not math.isfinite(tan_t):
                continue
            try:
                direct = spectral_norm(delta_direct(fact, run.instance.b, k))
            except (IllConditionedError, ValueError):
                continue
            if direct == 0.0:
                continue
            worst_rel = max(worst_rel, abs(tan_t - direct) / direct)
            worst_sin = max(worst_sin, abs(sin_t - direct / math.hypot(1.0, direct)))
            accepted += 1
            per_instance += 1
        if per_instance == 0:
            thin.append(f"{name} n={n}")
    ok = worst_rel <= 1e-8 and worst_sin <= 1e-10 and not thin
    line = _verdict(
        2,
        ok,
        f"{accepted} accepted k over {len(instances)} instances: worst tangent "
        f"mismatch {worst_rel:.2e} (tol 1e-8), worst sine-identity residual "
        f"{worst_sin:.2e} (tol 1e-10)" + (f"; no accepted k for {thin}" if thin else ""),
    )
    assert ok, line


def test_criterion_3_gamma_cross_route(cache):
    # |gamma_via_Gk - gamma_exact| <= 1e-7 * sigma_1 under full
    # reorthogonalization for n <= 128 and k <= 30.
    specs = [
        ("shaw", 128, {}),
        ("gravity", 128, {}),
        ("deriv2", 64, {}),
        ("picard", 64, {"spectrum": severe(2.0)}),
        ("picard", 64, {"spectrum": poly(2.0)}),
    ]
    worst = 0.0
    checked = 0
    for name, n, kw in specs:
        run = cache.bundle(name, n, 1e-3, 0, **kw)
        A = run.problem.A
        s1 = run.sigma[0]
        K = min(30, run.state.max_k - 1)
        g_block = gamma_via_Gk(run.state, K)
        g_exact = gamma_exact(A, run.state.Q_k(K))
        worst = max(worst, float(np.max(np.abs(g_block - g_exact))) / s1)
        checked += K
    ok = worst <= 1e-7
    line = _verdict(
        3,
        ok,
        f"{checked} (run,k) pairs over {len(specs)} runs: worst cross-route "
        f"difference {worst:.2e}*sigma1 (tol 1e-7)",
    )
    assert ok, line


def test_criterion_4_bound_validity(cache):
    # On Picard-synthetic instances the realized ||Delta_k|| and
    # ||Sigma_k Delta_k'|| must stay below their a-priori bounds for
    # k <= k0.  The severe-decay bounds carry an unbounded-constant factor
    # evaluated as 1, so overshoot there is flagged up to a factor 2 rather
    # than failed; the polynomial-decay bounds have explicit constants and
    # are enforced outright.  Steps where the Krylov space meets a right
    # angle (infinite tangent) leave the quantities undefined and are skipped.
    specs = [("picard", 64, severe(r), s) for r in (2.0, 4.0) for s in (0, 1, 2)] + [
        ("picard", 200, poly(2.0), 0),
        ("picard", 200, poly(0.6), 0),
    ]
    failures = []
    flags = 0
    audited = 0
    skipped = 0
    max_severe = 0.0
    max_poly = 0.0
    for name, n, spectrum, seed in specs:
        run = cache.bundle(name, n, 1e-3, seed, spectrum=spectrum)
        fact = run.problem.svd
        k0 = run.picard.k0
        tag = (
            f"rho={spectrum.rho}" if spectrum.kind == "severe" else f"alpha={spectrum.alpha}"
        ) + f" seed={seed}"
        assert k0 >= 1, f"{tag}: no transition index"
        sat_streak = 0
        for k in range(1, min(k0, run.state.max_k - 1, n - 1) + 1):
            Qk = run.state.Q_k(k)
            VQ = fact.V.T @ Qk
            _, dnorm = delta_norm_via_angles(VQ, k)
            sdnorm = sigma_delta_norm(VQ, fact.sigma, k)
            if not math.isfinite(dnorm) or not math.isfinite(sdnorm):
                skipped += 1
                sat_streak += 1
                if sat_streak >= 5:
                    break  # saturated for good; later k stay undefined
                continue
            sat_streak = 0
            lag = lagrange_max(fact.sigma, k)
            rep = bound_report(fact, run.picard, spectrum, dnorm, k, lag)
            audited += 1
            for value, bound, label in (
                (dnorm, rep.delta_bound, "delta"),
                (sdnorm, rep.sigma_delta_bound, "sigma_delta"),
            ):
                ratio = value / bound
                if spectrum.kind == "severe":
                    max_severe = max(max_severe, ratio)
                    if ratio > 2.0:
                        failures.append(f"{label} {ratio:.3f}x bound at {tag} k={k}")
                    elif ratio > 1.0:
                        flags += 1
                else:
                    max_poly = max(max_poly, ratio)
                    if ratio > 1.0 + 1e-9:
                        failures.append(f"{label} {ratio:.3f}x bound at {tag} k={k}")
    ok = not failures and audited > 0
    line = _verdict(
        4,
        ok,
        f"{audited} audited steps ({skipped} skipped at right angles): severe "
        f"worst ratio {max_severe:.3f} with {flags} flags (allowed up to 2.0), "
        f"polynomial worst ratio {max_poly:.3f} (must stay <= 1)"
        + (f"; failures: {failures[:3]}" if failures else ""),
    )
    assert ok, line


def test_criterion_5_semi_convergence_ordering(cache):
    # Over every run in the acceptance suite: k* <= best_k + 1, and the
    # order/semi-convergence equivalence with one index of tie slack on
    # either side -- natural order intact through k* requires
    # |k* - best_k| <= 1; a first natural-order failure at or before k*
    # requires k* <= best_k; a failure immediately after k* satisfies
    # either reading.
    runs = _gallery_runs() + _severe_runs()
    runs += [
        ("picard", 200, 1e-3, 0, {"spectrum": poly(2.0)}),
        ("picard", 200, 1e-3, 0, {"spectrum": poly(0.6)}),
        ("shaw", 256, 1e-3, 42, {}),
        ("gravity", 256, 1e-3, 42, {}),
        ("prescribed", 200, 1e-3, 7, {"spectrum": poly(0.6)}),
    ]
    ordering_viol = []
    equivalence_viol = []
    for name, n, eps, seed, kw in runs:
        run = cache.bundle(name, n, eps, seed, **kw)
        kstar = run.lsqr.best_k
        k0r = run.tsvd.best_k
        sigma = run.sigma
        tag = f"{name} n={n} eps={eps:g} seed={seed}"
        if kstar > k0r + 1:
            ordering_viol.append(f"{tag}: k*={kstar} > best_k={k0r}+1")
        first_fail = None
        for k in range(1, min(kstar + 1, run.state.max_k) + 1):
            if not natural_order_check(ritz_values(run.state.B(k), k), sigma):
                first_fail = k
                break
        if first_fail is not None and first_fail <= kstar:
            ok_equiv = kstar <= k0r
        elif first_fail == kstar + 1:
            ok_equiv = abs(kstar - k0r) <= 1 or kstar <= k0r
        else:
            ok_equiv = abs(kstar - k0r) <= 1
        if not ok_equiv:
            equivalence_viol.append(
                f"{tag}: k*={kstar}, best_k={k0r}, first natural-order failure "
                f"{first_fail if first_fail is not None else 'none through k*+1'}"
            )
    ok = not ordering_viol and not equivalence_viol
    line = _verdict(
        5,
        ok,
        f"{len(runs)} runs: {len(ordering_viol)} ordering violations, "
        f"{len(equivalence_viol)} equivalence violations"
        + (f"; {'; '.join(ordering_viol + equivalence_viol)}" if not ok else ""),
    )
    assert ok, line


def test_criterion_6_desk_scale_tracking(cache):
    # shaw and gravity at n=256, eps=1e-3 (canonical seed 42): k* equals the
    # best TSVD index, the near-best and natural-order predicates hold for
    # every k <= k*, and the best-LSQR and best-TSVD relative errors agree
    # to 2 percent.  The large-scale reference value k0 = k* = 7 at n=10240
    # is recorded here for context, not asserted.
    failures = []
    summary = []
    for name in ("shaw", "gravity"):
        run = cache.bundle(name, 256, 1e-3, 42)
        kstar = run.lsqr.best_k
        k0r = run.tsvd.best_k
        sigma = run.sigma
        if kstar != k0r:
            failures.append(f"{name}: k*={kstar} != best_k={k0r}")
        gks = gamma_via_Gk(run.state, kstar)
        for k in range(1, kstar + 1):
            g = gks[k - 1]
            if not near_best_predicate(g, sigma, k):
                failures.append(
                    f"{name}: near-best fails at k={k} (gamma={g:.4f} outside "
                    f"[{sigma[k]:.4f}, {0.5 * (sigma[k - 1] + sigma[k]):.4f}))"
                )
            if not natural_order_check(ritz_values(run.state.B(k), k), sigma):
                failures.append(f"{name}: natural order fails at k={k}")
        err_lsqr = run.lsqr.rel_errors[kstar - 1]
        err_tsvd = run.tsvd.rel_errors[k0r - 1]
        gap = abs(err_lsqr - err_tsvd) / err_tsvd
        if gap > 0.02:
            failures.append(
                f"{name}: best errors {err_lsqr:.4f} (lsqr) vs {err_tsvd:.4f} "
                f"(tsvd) differ by {gap:.1%}"
            )
        summary.append(f"{name} k*={kstar} best_k={k0r} err_gap={gap:.1%}")
    ok = not failures
    line = _verdict(
        6,
        ok,
        "; ".join(summary)
        + "; large-scale reference k0=k*=7 at n=10240 recorded, not asserted"
        + (f"; failures: {'; '.join(failures)}" if failures else ""),
    )
    assert ok, line


def test_criterion_7_mild_decay_breakdown(cache):
    # Prescribed sigma_i = i^{-0.6} at n=200, eps=1e-3: natural order and
    # near-bestness must both fail at some k <= 5, and semi-convergence must
    # arrive strictly before the best TSVD index.
    run = cache.bundle("prescribed", 200, 1e-3, 7, spectrum=poly(0.6))
    sigma = run.sigma
    nat = [natural_order_check(ritz_values(run.state.B(k), k), sigma) for k in range(1, 6)]
    gks = gamma_via_Gk(run.state, 5)
    near = [near_best_predicate(gks[k - 1], sigma, k) for k in range(1, 6)]
    kstar = run.lsqr.best_k
    k0r = run.tsvd.best_k
    ok = (not all(nat)) and (not all(near)) and kstar < k0r
    line = _verdict(
        7,
        ok,
        f"natural order first fails at k={nat.index(False) + 1 if not all(nat) else 'never'}, "
        f"near-best first fails at k={near.index(False) + 1 if not all(near) else 'never'} "
        f"(both required <= 5); k*={kstar} < best_k={k0r} required",
    )
    assert ok, line


def test_criterion_8_decay_proxy_fidelity(cache):
    # On severe instances (rho >= 2) the cheap proxy alpha_{k+1} + beta_{k+2}
    # must track gamma_k over k <= k*: log-log correlation above 0.99 and
    # pointwise ratio inside [0.9/sqrt(2), 1.1*sqrt(2)].
    lo, hi = 0.9 / math.sqrt(2.0), 1.1 * math.sqrt(2.0)
    failures = []
    min_corr = 1.0
    rat_lo, rat_hi = math.inf, -math.inf
    for rho in (2.0, 3.0, 4.0):
        for seed in (0, 1, 3):
            run = cache.bundle("picard", 64, 1e-3, seed, spectrum=severe(rho))
            kstar = run.lsqr.best_k
            rows = decay_diagnostic(run.state, kmax=kstar)
            tag = f"rho={rho} seed={seed}"
            if len(rows) < 2:
                failures.append(f"{tag}: only {len(rows)} usable steps")
                continue
            sums = np.array([s for _, s in rows])
            gams = gamma_via_Gk(run.state, len(rows))
            corr = float(np.corrcoef(np.log(sums), np.log(gams))[0, 1])
            ratios = sums / gams
            min_corr = min(min_corr, corr)
            rat_lo = min(rat_lo, float(ratios.min()))
            rat_hi = max(rat_hi, float(ratios.max()))
            if corr <= 0.99:
                failures.append(f"{tag}: correlation {corr:.5f}")
            if ratios.min() < lo or ratios.max() > hi:
                failures.append(f"{tag}: ratio range [{ratios.min():.3f}, {ratios.max():.3f}]")
    ok = not failures
    line = _verdict(
        8,
        ok,
        f"9 severe runs over k <= k*: min correlation {min_corr:.5f} (> 0.99), "
        f"ratios in [{rat_lo:.3f}, {rat_hi:.3f}] within [{lo:.3f}, {hi:.3f}]"
        + (f"; failures: {failures}" if failures else ""),
    )
    assert ok, line


def test_criterion_9_lsqr_correctness(cache, rng_factory):
    # Projected optimality: 200 random vectors from each Krylov subspace may
    # never beat the sweep's residual by more than 1e-10.  They are drawn
    # around the optimal coordinates, which a dense least-squares solve on
    # A Q_k gives.  On consistent square systems the full-length iterate
    # must solve the system to 1e-8 relative, as the dense solve does.
    max_beat = -math.inf
    sampled = 0
    for i, (name, n, kw) in enumerate(
        [("shaw", 32, {}), ("deriv2", 24, {}), ("picard", 24, {"spectrum": severe(2.0)})]
    ):
        run = cache.bundle(name, n, 1e-3, 0, **kw)
        A = run.problem.A
        b = run.instance.b
        rng = rng_factory(1000 + i)
        for k in run.lsqr.ks:
            k = int(k)
            Qk = run.state.Q_k(k)
            ck = np.linalg.lstsq(A @ Qk, b, rcond=None)[0]
            rk = float(run.lsqr.residuals[k - 1])
            scale = float(np.linalg.norm(ck)) or 1.0
            # 200 perturbations of the optimal coordinates, directions
            # uniform on the sphere, magnitudes sweeping eight decades.
            G = rng.standard_normal((200, k))
            G /= np.maximum(np.linalg.norm(G, axis=1, keepdims=True), 1e-300)
            C = ck[None, :] + G * (np.logspace(-6, 1, 200) * scale)[:, None]
            rnorms = np.linalg.norm(b[:, None] - A @ (Qk @ C.T), axis=0)
            max_beat = max(max_beat, rk - float(rnorms.min()))
            sampled += 200
    full_rels = []
    for name, n, seed, kw in [
        ("prescribed", 24, 5, {"spectrum": poly(0.6, beta=0.0)}),
        ("deriv2", 24, 0, {}),
    ]:
        run = cache.bundle(name, n, None, seed, **kw)
        x_true = run.problem.x_true
        x_naive = np.linalg.solve(run.problem.A, run.instance.b)
        dense = float(np.linalg.norm(x_naive - x_true) / np.linalg.norm(x_true))
        full = float(lsqr_sweep(run.instance, run.state, run.state.max_k).rel_errors[-1])
        full_rels.append((full, dense))
    ok = max_beat <= 1e-10 and all(max(r) <= 1e-8 for r in full_rels)
    line = _verdict(
        9,
        ok,
        f"{sampled} subspace samples: best improvement over the iterate "
        f"{max_beat:.2e} (tol 1e-10); full-length (dense solve) error "
        f"{', '.join(f'{r:.2e} ({d:.2e})' for r, d in full_rels)} (tol 1e-8)",
    )
    assert ok, line
