import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from saranfk import (
    ConvergenceError,
    DirichletMeasure,
    DomainError,
    HypergeometricMeasure,
    dirichlet_density,
    gauss_2f1,
    gauss_jacobi_rule,
    hypergeometric_density,
    integrate_measure,
    integrate_product,
    measure_rule,
)
from saranfk.core import pochhammer


def mp_jacobi_pair(n, al, be, x):
    """(P_n, P_(n-1)) of the Jacobi polynomials P^(al, be) at x, n >= 1, by
    the three-term recurrence."""
    p0, p1 = mpmath.mpf(1), (al - be) / 2 + (al + be + 2) * x / 2
    for m in range(1, n):
        c = 2 * m + al + be
        p0, p1 = p1, (((c + 1) * (al * al - be * be) + c * (c + 1) * (c + 2) * x) * p1
                      - 2 * (m + al) * (m + be) * (c + 2) * p0) / (2 * (m + 1) * (m + al + be + 1) * c)
    return p1, p0


def mp_gauss_jacobi(a, b, n, start):
    """40-digit nodes and weights of the n-point rule for t^a (1-t)^b on
    [0,1]: Newton from the double nodes start, and the closed-form weights
    Gamma(n+al+1) Gamma(n+be+1) / (Gamma(n+al+be+1) n! (1-x^2) P_n'(x)^2),
    al = b, be = a, x = 2t-1."""
    with mpmath.workdps(40):
        al, be = mpmath.mpf(b), mpmath.mpf(a)
        const = (mpmath.gamma(n + al + 1) * mpmath.gamma(n + be + 1)
                 / (mpmath.gamma(n + al + be + 1) * mpmath.factorial(n)))

        def value_and_slope(x):
            p, pm = mp_jacobi_pair(n, al, be, x)
            c = 2 * n + al + be
            return p, (n * (al - be - c * x) * p + 2 * (n + al) * (n + be) * pm) / (c * (1 - x * x))

        nodes, weights = [], []
        for t in start:
            x = 2 * mpmath.mpf(float(t)) - 1
            for _ in range(2):
                p, dp = value_and_slope(x)
                x -= p / dp
            dp = value_and_slope(x)[1]
            nodes.append((x + 1) / 2)
            weights.append(const / ((1 - x * x) * dp * dp))
        return nodes, weights


class TestGaussJacobiRule:
    @pytest.mark.parametrize("a,b", [
        (-0.5761431307605054, -0.5889806024089861),
        (-0.5629798797348019, 0.0),
        (-0.48833035653605994, 0.10488892150148565),
    ])
    def test_against_40_digits(self, a, b):
        # Exponents of seed-42 verdict rules where scipy's roots_jacobi
        # weights are 2.7e-11 to 3.6e-11 off.
        r = gauss_jacobi_rule(a, b, 64)
        nodes, weights = mp_gauss_jacobi(a, b, 64, r.nodes)
        for t, w, t_ref, w_ref in zip(r.nodes, r.weights, nodes, weights):
            assert abs(t - t_ref) <= 2e-15
            assert abs((w - w_ref) / w_ref) <= 1e-12

    @hsettings(max_examples=60, deadline=None, derandomize=True)
    @given(a=st.floats(-0.95, 3.0, exclude_min=True, exclude_max=True),
           b=st.floats(-0.95, 3.0, exclude_min=True, exclude_max=True),
           n=st.sampled_from([1, 2, 3, 24, 32, 64]))
    def test_rule_shape_mass_and_moments(self, a, b, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r = gauss_jacobi_rule(a, b, n)
        t, w = r.nodes, r.weights
        assert t[0] > 0.0 and t[-1] < 1.0 and np.all(np.diff(t) > 0.0) and np.all(w > 0.0)
        assert w.sum() == pytest.approx(sps.beta(a + 1, b + 1), rel=1e-13)
        # The endpoint node's absolute rounding moves the moments by up to
        # about 5e-11 at a or b near -0.95 and n = 64.
        for k in range(1, min(2 * n - 1, 3) + 1):
            assert w @ t**k == pytest.approx(sps.beta(a + 1 + k, b + 1), rel=1e-10)

    def test_builder_leaves_scipy_linalg_unloaded_on_import(self):
        # The rule builder imports LAPACK when it first runs, not with the package.
        root = Path(__file__).resolve().parents[1]
        code = ("import sys, saranfk; saranfk.builtin_registry(); "
                "print('scipy.linalg' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=dict(os.environ, PYTHONPATH="src"),
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

    def test_eigenvalue_failure_raises(self, monkeypatch):
        import scipy.linalg.lapack

        monkeypatch.setattr(scipy.linalg.lapack, "dsterf", lambda d, e: (d, 3))
        with pytest.raises(ConvergenceError):
            gauss_jacobi_rule(0.125, 0.375, 8)

    def test_legendre_nodes_closed_form(self):
        r = gauss_jacobi_rule(0.0, 0.0, 2)
        want = np.array([(3 - math.sqrt(3)) / 6, (3 + math.sqrt(3)) / 6])
        assert np.allclose(np.sort(r.nodes), want, rtol=1e-14)

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.3, -0.4), (-0.7, 1.2)])
    def test_weight_sum_is_beta(self, a, b):
        r = gauss_jacobi_rule(a, b, 24)
        assert r.weights.sum() == pytest.approx(float(sps.beta(a + 1, b + 1)), rel=1e-13)

    def test_dirichlet_first_moment(self):
        alpha, beta = 0.8, 1.7
        mom = integrate_measure(lambda t: t, DirichletMeasure(alpha, beta), 64)
        assert mom == pytest.approx(alpha / (alpha + beta), rel=1e-13)

    def test_size_cap(self):
        with pytest.raises(DomainError):
            gauss_jacobi_rule(0.0, 0.0, 300)

    @pytest.mark.parametrize("n", [64, 64.0, np.int64(64)])
    def test_integer_valued_sizes(self, n):
        assert gauss_jacobi_rule(0.0, 0.0, n).nodes.shape == (64,)

    @pytest.mark.parametrize("a,b,n", [(0.0, 0.0, 2.5), (math.inf, 0.0, 8), (0.0, 1e308, 8), (300.0, 300.0, 256)])
    def test_bad_input_raises_before_lapack(self, monkeypatch, a, b, n):
        # Past the checks a fractional size would round down, an infinite or
        # huge exponent would fail inside dsterf, and (300, 300, 256) would
        # have zero weights.
        import scipy.linalg.lapack

        monkeypatch.setattr(scipy.linalg.lapack, "dsterf", lambda d, e: pytest.fail("LAPACK called"))
        with pytest.raises(DomainError):
            gauss_jacobi_rule(a, b, n)

    def test_each_call_builds_its_own_rule(self):
        # Callers own the arrays they get: an in-place edit of one rule, or of
        # a Dirichlet rule's nodes, leaves every later rule as it was.
        r, again = gauss_jacobi_rule(0.25, 0.5, 8), gauss_jacobi_rule(0.25, 0.5, 8)
        assert np.array_equal(r.nodes, again.nodes) and np.array_equal(r.weights, again.weights)
        assert not (np.shares_memory(r.nodes, again.nodes) or np.shares_memory(r.weights, again.weights))
        r.weights[:] = 0.0
        t, _ = measure_rule(DirichletMeasure(2.0, 3.0), 16)
        t *= 0.5
        assert np.array_equal(gauss_jacobi_rule(0.25, 0.5, 8).weights, again.weights)
        mean = integrate_measure(lambda x: x, DirichletMeasure(2.0, 3.0), 16)
        assert mean == pytest.approx(0.4, rel=1e-13)


class TestDirichletMeasure:
    def test_uniform(self):
        d = DirichletMeasure(1.0, 1.0)
        ts = np.linspace(0.1, 0.9, 5)
        assert np.allclose(dirichlet_density(d, ts), 1.0)

    def test_point_value(self):
        assert dirichlet_density(DirichletMeasure(2.0, 1.0), 0.5) == pytest.approx(1.0)

    def test_endpoint_error(self):
        with pytest.raises(DomainError):
            dirichlet_density(DirichletMeasure(1.0, 1.0), 0.0)

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            DirichletMeasure(-0.3, 1.0)

    def test_normalization_batch(self, rng):
        for _ in range(30):
            a, b = rng.uniform(0.15, 2.5, 2)
            total = integrate_measure(lambda t: np.ones_like(t), DirichletMeasure(a, b), 64)
            assert abs(total - 1.0) < 1e-10

    @pytest.mark.parametrize("k", range(1, 11))
    def test_moments(self, k):
        a, b = 0.7, 1.9
        mom = integrate_measure(lambda t: t**k, DirichletMeasure(a, b), 64)
        want = pochhammer(a, k) / pochhammer(a + b, k)
        assert mom == pytest.approx(want, rel=1e-11)

    def test_paper_moment_shape(self):
        # integral of w^(m+n) against (beta1, gamma3-beta1) weight.
        beta1, gamma3 = 0.8, 1.6
        for mn in (0, 3, 7):
            mom = integrate_measure(lambda t: t**mn, DirichletMeasure(beta1, gamma3 - beta1), 64)
            assert mom == pytest.approx(pochhammer(beta1, mn) / pochhammer(gamma3, mn), rel=1e-11)

    def test_complex_parameters_normalize(self):
        # Imaginary exponent parts ride along as oscillatory factors outside
        # the Jacobi weight, so convergence is only algebraic here; identity
        # sampling stays real and never leans on this path.
        spec = DirichletMeasure(1.2 + 0.2j, 0.9 - 0.1j)
        total = integrate_measure(lambda t: np.ones_like(t), spec, 96)
        assert abs(total - 1.0) < 1e-3


class TestHypergeometricMeasure:
    def test_normalization(self):
        h = HypergeometricMeasure(0.3, 0.4, 1.2, 1.1)
        assert abs(integrate_measure(lambda t: np.ones_like(t), h, 96) - 1.0) < 1e-10

    def test_normalization_batch(self, rng):
        count = 0
        while count < 20:
            a, b = rng.uniform(0.1, 1.2, 2)
            g = a + b + rng.uniform(0.25, 1.2)
            e = rng.uniform(0.3, 1.5)
            if abs((g - a - b) - round(g - a - b)) < 0.05:
                continue
            spec = HypergeometricMeasure(a, b, g, e)
            total = integrate_measure(lambda t: np.ones_like(t), spec, 96)
            assert abs(total - 1.0) < 1e-10
            count += 1

    def test_degenerate_alpha_zero(self):
        ts = np.linspace(0.05, 0.95, 20)
        got = hypergeometric_density(HypergeometricMeasure(0.0, 0.4, 1.2, 1.1), ts)
        want = dirichlet_density(DirichletMeasure(1.1, 1.2), ts)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_degenerate_beta_zero(self):
        ts = np.linspace(0.05, 0.95, 20)
        got = hypergeometric_density(HypergeometricMeasure(0.3, 0.0, 1.2, 1.1), ts)
        want = dirichlet_density(DirichletMeasure(1.1, 1.2), ts)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_log_endpoint_rejected(self):
        spec = HypergeometricMeasure(0.7, 0.48, 1.2, 1.1)
        with pytest.raises(DomainError):
            hypergeometric_density(spec, 0.5)

    def test_moment_closed_form(self):
        # With slots (eta-lam, g-lam, g-lam+eta-nu, nu) the moments collapse
        # to a ratio of Pochhammers; also cross-check a high-order rule.
        nu, lam, g, eta = 0.6, 1.3, 2.1, 1.8
        spec = HypergeometricMeasure(eta - lam, g - lam, g - lam + eta - nu, nu)
        for ell in (1, 3, 6):
            got = integrate_measure(lambda t, e=ell: t**e, spec, 96)
            hi = integrate_measure(lambda t, e=ell: t**e, spec, 192)
            want = (
                pochhammer(nu, ell) * pochhammer(lam, ell)
                / (pochhammer(g, ell) * pochhammer(eta, ell))
            )
            assert got == pytest.approx(want, rel=1e-11)
            assert got == pytest.approx(hi, rel=1e-12)


class TestIntegrateProduct:
    SPECS = [DirichletMeasure(0.8, 1.1), DirichletMeasure(1.3, 0.9), DirichletMeasure(0.5, 2.0)]

    def test_normalization(self):
        v = integrate_product(lambda u, w, t: np.ones(np.broadcast_shapes(u.shape, w.shape, t.shape)), self.SPECS, 16)
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_separable_moments(self):
        v = integrate_product(lambda u, w, t: u**2 * w * np.ones_like(t), self.SPECS, 24)
        want = (pochhammer(0.8, 2) / pochhammer(1.9, 2)) * (1.3 / 2.2)
        assert v == pytest.approx(want, rel=1e-12)

    def test_axis_cap(self):
        with pytest.raises(DomainError):
            integrate_product(lambda *a: 1.0, [DirichletMeasure(1, 1)] * 5, 8)


class TestEulerIntegralAgreement:
    def test_both_euler_forms(self):
        a, b, c, z = 0.7, 0.9, 2.0, 0.55
        want = gauss_2f1(a, b, c, z).value
        v1 = integrate_measure(lambda t: (1 - z * t) ** -a, DirichletMeasure(b, c - b), 96)
        v2 = integrate_measure(lambda t: (1 - z * t) ** -b, DirichletMeasure(a, c - a), 96)
        assert v1 == pytest.approx(want, rel=1e-11)
        assert v2 == pytest.approx(want, rel=1e-11)

    def test_order_refinement_stability(self):
        a, b, c, z = 0.7, 0.9, 2.0, 0.55
        want = gauss_2f1(a, b, c, z).value
        r1 = integrate_measure(lambda t: (1 - z * t) ** -a, DirichletMeasure(b, c - b), 64)
        r2 = integrate_measure(lambda t: (1 - z * t) ** -a, DirichletMeasure(b, c - b), 128)
        assert abs(r2 - want) <= 2 * abs(r1 - want) + 1e-14


class TestMeasureRule:
    def test_weights_sum_to_one(self):
        t, w = measure_rule(DirichletMeasure(0.9, 1.4), 64)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        t, w = measure_rule(HypergeometricMeasure(0.3, 0.4, 1.2, 1.1), 96)
        assert w.sum() == pytest.approx(1.0, abs=1e-10)


def test_hypergeometric_density_default_tol_near_one_route():
    # The t <= 1/2 route's rounding estimate is about 1.5e-13 here (seed-42
    # erdelyi-3 point 27); the default tol must admit it.
    import mpmath as mp

    spec = HypergeometricMeasure(-1.361083679316093, 0.8977851592249251, 0.44008644413884856, 0.6356073698602176)
    got = hypergeometric_density(spec, 0.41)
    with mp.workdps(30):
        a, b, g, e = (mp.mpf(v) for v in (spec.alpha, spec.beta, spec.gamma, spec.eta))
        t = mp.mpf(0.41)
        const = mp.gamma(e + g - a) * mp.gamma(e + g - b) / (mp.gamma(e) * mp.gamma(g) * mp.gamma(e + g - a - b))
        want = float(const * t ** (e - 1) * (1 - t) ** (g - 1) * mp.hyp2f1(a, b, g, 1 - t))
    assert abs(got - want) <= 1e-12 * (1.0 + abs(want))
