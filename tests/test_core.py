import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st
from scipy.integrate import quad

from saranfk import (
    ConvergenceError,
    QContext,
    PoleError,
    log_gamma,
    pochhammer,
    q_beta,
    q_binomial,
    q_gamma,
    q_pochhammer,
    q_pochhammer_inf,
)
from saranfk.core import q_pochhammer_inf_ratio
from saranfk.qkernels import jackson_integral


class TestLogGamma:
    def test_at_one(self):
        assert log_gamma(1) == pytest.approx(0.0, abs=1e-14)

    def test_at_five(self):
        assert log_gamma(5) == pytest.approx(math.log(24), rel=1e-13)

    def test_half_against_integral_oracle(self):
        # Gamma(1/2) = integral of t^(-1/2) e^(-t), evaluated numerically.
        oracle, err = quad(lambda t: t**-0.5 * math.exp(-t), 0, np.inf)
        assert err < 1e-10
        assert log_gamma(0.5) == pytest.approx(math.log(oracle), rel=1e-9)

    @pytest.mark.parametrize("z", [0, -1, -7, -2 + 1e-12j])
    def test_pole_rejection(self, z):
        with pytest.raises(PoleError):
            log_gamma(z)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(0.37, 0) == 1.0

    def test_direct_product(self):
        assert pochhammer(3, 4) == pytest.approx(360.0)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_rising_factorial_of_one(self, n):
        assert pochhammer(1, n) == pytest.approx(math.factorial(n))

    @given(
        a=st.floats(min_value=-3.0, max_value=3.0),
        m=st.integers(min_value=0, max_value=20),
        n=st.integers(min_value=0, max_value=20),
    )
    @hsettings(max_examples=60, deadline=None)
    def test_splitting(self, a, m, n):
        lhs = pochhammer(a, m + n)
        rhs = pochhammer(a, m) * pochhammer(a + m, n)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("m", [1, 4, 8, 12])
    def test_chu_vandermonde(self, m):
        a, b = 0.7, 1.3
        total = sum(
            math.comb(m, n) * pochhammer(a, m - n) * pochhammer(b, n)
            for n in range(m + 1)
        )
        assert total == pytest.approx(pochhammer(a + b, m), rel=1e-12)


class TestQPochhammer:
    def test_empty(self, ctx05):
        assert q_pochhammer(0.3, 0, ctx05) == 1.0

    def test_direct(self, ctx05):
        assert q_pochhammer(0.5, 2, ctx05) == pytest.approx(0.375)

    def test_zero_base(self, ctx05):
        assert q_pochhammer(0.0, 9, ctx05) == 1.0

    @given(
        a=st.floats(min_value=-0.9, max_value=0.9),
        m=st.integers(min_value=0, max_value=15),
        n=st.integers(min_value=0, max_value=15),
    )
    @hsettings(max_examples=60, deadline=None)
    def test_q_splitting(self, a, m, n):
        ctx = QContext(q=0.5)
        lhs = q_pochhammer(a, m + n, ctx)
        rhs = q_pochhammer(a, m, ctx) * q_pochhammer(a * 0.5**m, n, ctx)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


class TestQPochhammerInf:
    def test_zero(self, ctx05):
        assert q_pochhammer_inf(0.0, ctx05) == 1.0

    def test_functional_equation(self, ctx05):
        a = 0.37
        lhs = q_pochhammer_inf(a, ctx05)
        rhs = (1 - a) * q_pochhammer_inf(a * ctx05.q, ctx05)
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_direct_product_oracle(self, ctx05):
        # 60-factor direct product, stable to 1e-14 at q = 1/2.
        oracle = 1.0
        for j in range(60):
            oracle *= 1.0 - 0.5 * 0.5**j
        assert q_pochhammer_inf(0.5, ctx05) == pytest.approx(oracle, rel=1e-14)

    def test_truncation_invariant(self):
        # One extra factor changes the value by less than 1e-15 relative.
        ctx = QContext(q=0.5)
        base = q_pochhammer_inf(0.7, ctx)
        longer = q_pochhammer_inf(0.7, QContext(q=0.5, inf_product_terms=ctx.inf_product_terms + 1))
        assert abs(longer - base) < 1e-15 * abs(base)

    def test_ratio_matches_quotient(self, ctx05):
        lhs = q_pochhammer_inf_ratio(0.3, 0.7, ctx05)
        rhs = q_pochhammer_inf(0.3, ctx05) / q_pochhammer_inf(0.7, ctx05)
        assert lhs == pytest.approx(rhs, rel=1e-13)


class TestQGamma:
    def test_at_one(self, ctx05):
        assert q_gamma(1, ctx05) == pytest.approx(1.0, rel=1e-13)

    def test_at_two(self, ctx05):
        assert q_gamma(2, ctx05) == pytest.approx(1.0, rel=1e-13)

    def test_classical_limit_at_three(self):
        ctx = QContext(q=0.9999)
        assert q_gamma(3, ctx) == pytest.approx(2.0, abs=1e-3)

    def test_pole(self, ctx05):
        with pytest.raises(PoleError):
            q_gamma(-2, ctx05)

    @pytest.mark.parametrize("x", [1e300, 1100.5])
    def test_overflow_raises(self, ctx05, x):
        with pytest.raises(ConvergenceError):
            q_gamma(x, ctx05)

    @pytest.mark.parametrize("x", [0.6, 1.4, 2.3])
    def test_classical_limit_sweep(self, x):
        import scipy.special as sp

        ctx = QContext(q=1 - 1e-4)
        assert q_gamma(x, ctx) == pytest.approx(float(sp.gamma(x)), rel=1e-3)


class TestQBeta:
    def test_at_one_one(self, ctx05):
        assert q_beta(1, 1, ctx05) == pytest.approx(1.0, rel=1e-13)

    def test_symmetry(self, ctx05):
        assert q_beta(0.7, 1.9, ctx05) == pytest.approx(q_beta(1.9, 0.7, ctx05), rel=1e-13)

    def test_jackson_integral_oracle(self, ctx05):
        # B_q(x, y) equals the lattice integral of its weight.
        x0, y0 = 2.0, 3.0
        val = jackson_integral(
            lambda t: t ** (x0 - 1) * q_pochhammer_inf_ratio(t * ctx05.q, t * ctx05.q**y0, ctx05),
            1,
            ctx05,
        )
        assert q_beta(x0, y0, ctx05) == pytest.approx(val, rel=1e-12)

    def test_product_form(self, ctx05):
        x0, y0 = 1.3, 0.8
        q = ctx05.q
        prod_form = (
            (1 - q)
            * q_pochhammer_inf_ratio(q, q**x0, ctx05)
            * q_pochhammer_inf_ratio(q ** (x0 + y0), q**y0, ctx05)
        )
        assert q_beta(x0, y0, ctx05) == pytest.approx(prod_form, rel=1e-12)

    def test_overflow_raises(self, ctx05):
        with pytest.raises(ConvergenceError):
            q_beta(1e300, 1e300, ctx05)

    def test_factor_past_double_range(self, ctx05):
        # Gamma_q(1100) and Gamma_q(1100.5) overflow a double at q = 0.5;
        # their ratio does not.
        got = q_beta(1100, 0.5, ctx05)
        with mpmath.workdps(30):
            want = float(mpmath.qgamma(1100, 0.5) * mpmath.qgamma(0.5, 0.5) / mpmath.qgamma(1100.5, 0.5))
        assert got == pytest.approx(1.1115950006507347, rel=1e-13)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_classical_limit(self):
        import scipy.special as sp

        ctx = QContext(q=1 - 1e-4)
        assert q_beta(2, 3, ctx) == pytest.approx(float(sp.beta(2, 3)), rel=1e-3)


class TestQBinomial:
    def test_edge(self, ctx05):
        assert q_binomial(5, 0, ctx05) == pytest.approx(1.0)

    def test_direct_ratio(self, ctx05):
        assert q_binomial(2, 1, ctx05) == pytest.approx(1.5)

    def test_symmetry(self, ctx05):
        for k, p in [(6, 2), (9, 4)]:
            assert q_binomial(k, p, ctx05) == pytest.approx(q_binomial(k, k - p, ctx05), rel=1e-13)

    def test_out_of_range(self, ctx05):
        with pytest.raises(ValueError):
            q_binomial(3, 5, ctx05)

    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_binomial_collapse(self, k, ctx05):
        # sum_p [k,p]_q (q^eta;q)_{k-p} (q^(a-eta);q)_p q^((k-p)(a-eta))
        # telescopes to (q^a;q)_k.
        q = ctx05.q
        eta, a = 0.7, 1.9
        total = sum(
            q_binomial(k, p, ctx05)
            * q_pochhammer(q**eta, k - p, ctx05)
            * q_pochhammer(q ** (a - eta), p, ctx05)
            * q ** ((k - p) * (a - eta))
            for p in range(k + 1)
        )
        assert total == pytest.approx(q_pochhammer(q**a, k, ctx05), rel=1e-12)


class TestQGammaRealNegative:
    """Gamma_q and B_q at real negative non-integers are real numbers."""

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.7])
    @pytest.mark.parametrize("x", [-0.5, -1.5, -2.7])
    def test_against_mpmath(self, x, q):
        got = q_gamma(x, QContext(q=q))
        with mpmath.workdps(30):
            want = float(mpmath.qgamma(x, q))
        assert type(got) is float
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_q_beta_real(self, ctx05):
        got = q_beta(-0.5, 2, ctx05)
        with mpmath.workdps(30):
            want = float(mpmath.qgamma(-0.5, 0.5) * mpmath.qgamma(2, 0.5) / mpmath.qgamma(1.5, 0.5))
        assert type(got) is float
        assert abs(got - want) <= 1e-13 * abs(want)
