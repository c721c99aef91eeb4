"""Acceptance suite: property-based identity verification at desk scale.

Each test covers one acceptance criterion at its stated tolerance and prints
one pass/fail line (visible with pytest -s or in the captured output on
failure).  Criteria:

  1. Euler/Bateman/Erdelyi single-integral suite, 50 samples, < 1e-9, order 96
  2. F_K triple integral, 10 samples at 32^3 nodes, < 1e-6, plus cross-form
     agreement < 1e-10 on sampled integrand evaluations
  3. F2/Manocha/convolution-family suite, 20 samples each, < 1e-8
  4. q-moment closed form vs Jackson lattice sums, < 1e-10
  5. q-identity suite at q = 0.5, < 1e-8
  6. Discrete finite-sum identities exact to < 1e-12
  7. Limit coherence: discrete weights -> infinite-product forms, q -> 1
     classical limits
  8. Refinement monotonicity under doubled quadrature/lattice resolution
  9. Harness self-test on a corrupted and a NaN-valued identity
"""

import dataclasses
import math
import time

import numpy as np

from saranfk import (
    DirichletMeasure,
    DiscreteFkParams,
    EvalSettings,
    FkParams,
    HypergeometricMeasure,
    QContext,
    QHypergeometricMeasure,
    dirichlet_density,
    discrete_weight,
    discrete_weight_limit,
    hypergeometric_density,
    q_beta,
    q_gamma,
    q_measure_density,
    q_measure_rule,
    q_moment,
    registry_lookup,
    sample_parameters,
    saran_fk_reexpand,
    saran_fk_triple,
    verify_identity,
)


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status}  {label}  {detail}")
    assert ok, f"criterion {num} failed: {label} {detail}"


SEED = 42


def test_criterion_1_single_integral_suite():
    ids = ["euler-1", "euler-2", "bateman", "erdelyi-1", "erdelyi-2", "erdelyi-3"]
    settings = EvalSettings(quad_order=96, quad_order_triple=32, quad_order_quad=24)
    t0 = time.perf_counter()
    worst = {}
    for cid in ids:
        res = verify_identity(registry_lookup(cid), seed=SEED, count=50, settings=settings)
        worst[cid] = res.max_rel_residual
        assert res.passed, f"{cid}: {res.max_rel_residual:.2e}"
    elapsed = time.perf_counter() - t0
    ok = max(worst.values()) < 1e-9 and elapsed < 30.0
    report(1, "Euler/Bateman/Erdelyi suite (50 samples, order 96)", ok,
           f"max residual {max(worst.values()):.2e}, {elapsed:.1f}s")


def test_criterion_2_fk_triple_integral():
    case = registry_lookup("fk-erdelyi")
    settings = EvalSettings(quad_order=96, quad_order_triple=32, quad_order_quad=24)
    t0 = time.perf_counter()
    res = verify_identity(case, seed=SEED, count=10, settings=settings)
    elapsed = time.perf_counter() - t0

    # Cross-form agreement of the two F_K evaluations at integrand arguments.
    cross_worst = 0.0
    for pt in sample_parameters(case, SEED, 3):
        v = pt.values
        x, y, z = (pt.arguments[k] for k in "xyz")
        fk1 = FkParams(
            alpha1=v["alpha1"], alpha2=v["alpha2"] - v["eta2"],
            beta1=v["beta1"] - v["lam3"], beta2=v["beta2"],
            gamma1=v["alpha1"] - v["lam1"] + v["eta1"],
            gamma2=v["beta2"] - v["lam2"] + v["mu2"],
            gamma3=v["beta1"] - v["lam3"],
        )
        fk2 = FkParams(
            alpha1=v["lam1"] - v["eta1"], alpha2=v["eta2"], beta1=v["lam3"],
            beta2=v["lam2"] - v["mu2"], gamma1=v["lam1"], gamma2=v["lam2"],
            gamma3=v["lam3"],
        )
        for u, w, t in [(0.2, 0.3, 0.5), (0.7, 0.6, 0.4), (0.45, 0.85, 0.15)]:
            args1 = (u * x, w * y, t * z)
            args2 = (
                (1 - u) * x / (1 - u * x),
                (1 - w) * y / (1 - w * y),
                t * z / ((1 - u * x) * (1 - w * y)),
            )
            for p, args in ((fk1, args1), (fk2, args2)):
                a = complex(saran_fk_triple(p, *args).value)
                b = complex(saran_fk_reexpand(p, *args).value)
                cross_worst = max(cross_worst, abs(a - b) / (1 + abs(a)))

    ok = res.passed and res.max_rel_residual < 1e-6 and cross_worst < 1e-10 and elapsed < 60.0
    report(2, "F_K Erdelyi-type triple integral (10 samples, 32^3)", ok,
           f"max residual {res.max_rel_residual:.2e}, cross-form {cross_worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_f2_and_convolution_suite():
    ids = ["f2-curious", "manocha", "manocha-reduced", "fa-erdelyi"]
    settings = EvalSettings.default()
    t0 = time.perf_counter()
    worst = {}
    for cid in ids:
        res = verify_identity(registry_lookup(cid), seed=SEED, count=20, settings=settings)
        worst[cid] = res.max_rel_residual
        assert res.passed, f"{cid}: {res.max_rel_residual:.2e}"
    elapsed = time.perf_counter() - t0
    ok = max(worst.values()) < 1e-8 and elapsed < 60.0
    report(3, "F2/Manocha/convolution-family suite (20 samples)", ok,
           f"max residual {max(worst.values()):.2e}, {elapsed:.1f}s")


def test_criterion_4_q_moment_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for q in (0.3, 0.5, 0.7):
        ctx = QContext(q=q, jackson_tail_tol=1e-13)
        done = 0
        while done < 20:
            nu, lam = rng.uniform(0.35, 1.4, 2)
            g = lam + rng.uniform(0.3, 1.0)
            eta = nu + lam - g + rng.uniform(0.35, 1.2)
            if min(nu, lam, g + eta - lam - nu) <= 0.05:
                continue
            spec = QHypergeometricMeasure(eta - lam, g - lam, g - lam + eta - nu, nu, ctx)
            t, w = q_measure_rule(spec)
            for ell in range(9):
                lattice = complex((w * t**ell).sum())
                closed = q_moment(spec, ell)
                worst = max(worst, abs(lattice - closed))
            done += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    report(4, "q-moment closed form vs Jackson lattice sums", ok,
           f"max abs diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_q_identity_suite():
    ids = [
        "gasper-q-erdelyi-1", "gasper-q-erdelyi-3", "ernst-q-bateman",
        "joshi-vyas-general", "qfk-phi3", "qfk-phi3-x0", "qfk-lr",
        "qfk-erdelyi", "qfk-erdelyi-simplified",
    ]
    settings = EvalSettings.default()  # q = 0.5
    t0 = time.perf_counter()
    worst = {}
    for cid in ids:
        case = registry_lookup(cid)
        count = max(5, min(case.default_samples, 10))
        res = verify_identity(case, seed=SEED, count=count, settings=settings)
        worst[cid] = res.max_rel_residual
        assert res.passed, f"{cid}: {res.max_rel_residual:.2e}"
    elapsed = time.perf_counter() - t0
    ok = max(worst.values()) < 1e-8 and elapsed < 120.0
    report(5, "q-identity suite at q = 0.5 (5-10 samples each)", ok,
           f"max residual {max(worst.values()):.2e}, {elapsed:.1f}s")


def test_criterion_6_discrete_exactness():
    t0 = time.perf_counter()
    worst = {}
    for cid in ("gasper-discrete", "fk-discrete"):
        res = verify_identity(registry_lookup(cid), seed=SEED, count=10)
        worst[cid] = res.max_rel_residual
        assert res.passed, f"{cid}: {res.max_rel_residual:.2e}"
    elapsed = time.perf_counter() - t0
    ok = max(worst.values()) < 1e-12 and elapsed < 10.0
    report(6, "discrete finite-sum identities exact", ok,
           f"max residual {max(worst.values()):.2e}, {elapsed:.1f}s")


def test_criterion_7_limit_coherence():
    ctx = QContext(q=0.5)
    p = DiscreteFkParams(
        alpha1=0.7, beta2=0.9, gamma1=1.6, gamma2=1.9, gamma3=1.4,
        lam1=0.6, lam2=1.1, mu1=1.2, mu2=0.8, mu3=0.9,
    )
    weight_worst = 0.0
    for which in ("w1", "w2", "w3"):
        for i in (0, 1, 3):
            fin = discrete_weight(which, 50 - i, 50, p, ctx)
            lim = discrete_weight_limit(which, i, p, ctx)
            weight_worst = max(weight_worst, abs(fin - lim) / abs(lim))

    import scipy.special as sps

    ctx1 = QContext(q=1 - 1e-4)
    gamma_worst = max(
        abs(q_gamma(x, ctx1) - sps.gamma(x)) / abs(sps.gamma(x)) for x in (0.6, 1.4, 2.3, 3.0)
    )
    beta_worst = max(
        abs(q_beta(x, y, ctx1) - sps.beta(x, y)) / abs(sps.beta(x, y))
        for x, y in ((2.0, 3.0), (0.7, 1.9))
    )
    n = round(math.log(0.5) / math.log(ctx1.q))
    t_lat = ctx1.q**n
    from saranfk import QDirichletMeasure

    dens_worst = abs(
        q_measure_density(QDirichletMeasure(0.8, 1.3, ctx1), t_lat)
        - dirichlet_density(DirichletMeasure(0.8, 1.3), t_lat)
    ) / dirichlet_density(DirichletMeasure(0.8, 1.3), t_lat)
    nu, lam, g, eta = 0.6, 1.1, 2.0, 1.7
    qh = q_measure_density(
        QHypergeometricMeasure(eta - lam, g - lam, g - lam + eta - nu, nu, ctx1), t_lat
    )
    ch = hypergeometric_density(
        HypergeometricMeasure(eta - lam, g - lam, g - lam + eta - nu, nu), t_lat
    )
    dens_worst = max(dens_worst, abs(qh - ch) / abs(ch))

    ok = weight_worst < 1e-5 and gamma_worst < 1e-3 and beta_worst < 1e-3 and dens_worst < 1e-3
    report(7, "weight limits at r=s=t=50 and q -> 1 classical limits", ok,
           f"weights {weight_worst:.2e}, Gamma_q {gamma_worst:.2e}, B_q {beta_worst:.2e}, "
           f"densities {dens_worst:.2e}")


REFINE_COUNTS = {"triple-integral": 4, "q-lattice": 4, "cheap": 8, "single-integral": 8}

def test_criterion_8_refinement_monotonicity():
    from saranfk import builtin_registry

    base = EvalSettings.default()
    refined = base.refined()
    worst_ratio = 0.0
    worst_id = ""
    for case in builtin_registry():
        count = REFINE_COUNTS[case.cost_class]
        r1 = verify_identity(case, seed=SEED, count=count, settings=base)
        assert r1.passed, f"{case.id} base run failed: {r1.max_rel_residual:.2e}"
        r2 = verify_identity(case, seed=SEED, count=count, settings=refined)
        # Residuals below 1% of the identity tolerance are rounding noise
        # (computed Gauss rules and grid summation both leave O(1e-13 .. 1e-11)
        # per evaluation); the doubling bound applies above that floor.
        floor = case.tol * 1e-2
        ratio = r2.max_rel_residual / max(r1.max_rel_residual, 1e-300)
        if r2.max_rel_residual > floor and ratio > worst_ratio:
            worst_ratio, worst_id = ratio, case.id
        assert r2.max_rel_residual <= max(2.0 * r1.max_rel_residual, floor), (
            f"{case.id}: refinement went from {r1.max_rel_residual:.2e} to "
            f"{r2.max_rel_residual:.2e}"
        )
    detail = f"worst ratio {worst_ratio:.2f} ({worst_id})" if worst_id else "all at noise floor"
    report(8, "doubling quadrature/lattice never doubles the max residual", True, detail)


def test_criterion_9_harness_self_test():
    base = registry_lookup("euler-1")
    corrupted = dataclasses.replace(
        base,
        id="euler-1-corrupted",
        rhs=lambda pt, s, f=base.rhs: f(pt, s) * (1 + 1e-4),
    )
    res = verify_identity(corrupted, seed=SEED, count=10)
    ok = (not res.passed) and 1e-5 <= res.max_rel_residual <= 1e-3
    report(9, "corrupted identity flagged with the expected residual", ok,
           f"residual {res.max_rel_residual:.2e}")

    nan_rhs = dataclasses.replace(base, id="euler-1-nan", rhs=lambda pt, s: complex("nan"))
    res = verify_identity(nan_rhs, seed=SEED, count=10)
    ok = (not res.passed) and len(res.failures) == 10 and all(
        "non-finite" in f.message for f in res.failures
    )
    report(9, "NaN evaluator flagged at every point", ok,
           f"{len(res.failures)} of {res.samples} failed")
