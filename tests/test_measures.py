import math

import numpy as np
import pytest
import scipy.special as sps

from saranfk import (
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


class TestGaussJacobiRule:
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

    def test_cache_returns_same_rule(self):
        assert gauss_jacobi_rule(0.25, 0.5, 16) is gauss_jacobi_rule(0.25, 0.5, 16)

    def test_cached_rule_is_read_only(self):
        # Every later caller shares the cached arrays: an in-place edit of a
        # returned rule, or of a Dirichlet rule's nodes, raises instead of
        # changing them.
        r = gauss_jacobi_rule(0.25, 0.5, 8)
        with pytest.raises(ValueError):
            r.weights[:] = 0.0
        t, _ = measure_rule(DirichletMeasure(2.0, 3.0), 16)
        with pytest.raises(ValueError):
            t *= 0.5
        assert r.weights.sum() == pytest.approx(float(sps.beta(1.25, 1.5)), rel=1e-13)
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
