import dataclasses
import itertools
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from saranfk import (
    ConvergenceError,
    DirichletMeasure,
    DiscreteFkParams,
    DomainError,
    EvalSettings,
    FkParams,
    HypergeometricMeasure,
    Phi3Spec,
    PoleError,
    QContext,
    QDirichletMeasure,
    QfkShiftParams,
    QHypergeometricMeasure,
    dirichlet_density,
    discrete_weight,
    discrete_weight_limit,
    gasper_discrete_3phi2,
    hypergeometric_density,
    jackson_integral,
    phi3,
    phi_k_q,
    q_measure_density,
    q_measure_rule,
    q_moment,
    qshift_operator_kernel,
    registry_lookup,
    rphis,
    sample_parameters,
    saran_fk_triple,
    verify_identity,
)
from saranfk.core import (
    _q_tables,
    q_gamma,
    q_pochhammer,
    q_pochhammer_inf,
    q_pochhammer_inf_ratio,
    q_pochhammer_table,
)
from saranfk import classical_cases, q_cases
from saranfk import qkernels, series
from saranfk.qkernels import (
    _lattice_size,
    _lattice_sum,
    _measure_decay,
    _q_density_lattice,
    _rphis_array,
    phi_k_p_tables,
)
from saranfk.registry import ParameterPoint


def mp_phi_k(p, x, y, z, q: float, nmax: int = 24) -> complex:
    """Phi_K as its triple series at 30 digits:
    sum (a1;q)_m (a2;q)_{n+r} (b1;q)_{m+r} (b2;q)_n x^m y^n z^r
        / ((g1;q)_m (g2;q)_n (g3;q)_r (q;q)_m (q;q)_n (q;q)_r)."""
    with mpmath.workdps(30):
        mq = mpmath.mpf(q)

        def qp(exponent, count):
            base = mq ** mpmath.mpmathify(exponent)
            out = [mpmath.mpf(1)]
            for k in range(count - 1):
                out.append(out[-1] * (1 - base * mq**k))
            return np.array(out, dtype=object)

        k = np.arange(nmax)
        qq = qp(1, nmax)
        xm = qp(p.alpha1, nmax) / (qp(p.gamma1, nmax) * qq) * np.array([mpmath.mpmathify(x) ** i for i in k])
        yn = qp(p.beta2, nmax) / (qp(p.gamma2, nmax) * qq) * np.array([mpmath.mpmathify(y) ** i for i in k])
        zr = np.array([mpmath.mpmathify(z) ** i for i in k]) / (qp(p.gamma3, nmax) * qq)
        a2, b1 = qp(p.alpha2, 2 * nmax), qp(p.beta1, 2 * nmax)
        m, n, r = np.ix_(k, k, k)
        return complex((xm[m] * yn[n] * zr[r] * a2[n + r] * b1[m + r]).sum())


def brute_rphis(up, lo, z, ctx, n_terms):
    total = 0.0
    spow = 1 + len(lo) - len(up)
    for n in range(n_terms):
        num = 1.0
        for u in up:
            num *= q_pochhammer(u, n, ctx)
        den = q_pochhammer(ctx.q, n, ctx)
        for b in lo:
            den *= q_pochhammer(b, n, ctx)
        sign = ((-1.0) ** n * ctx.q ** (n * (n - 1) // 2)) ** spow
        total += num / den * sign * z**n
    return total


class TestRphis:
    def test_argument_zero(self, ctx05):
        assert rphis([0.3, 0.4], [0.6], 0.0, ctx05).value == pytest.approx(1.0)

    def test_terminating_term_count(self, ctx05):
        r = rphis([ctx05.q**-2, 0.3], [0.6], 0.7, ctx05)
        assert r.terms_used == 3

    def test_2phi1_brute(self, ctx05):
        got = rphis([0.4, 0.7], [0.3], 0.35, ctx05).value
        assert got == pytest.approx(brute_rphis([0.4, 0.7], [0.3], 0.35, ctx05, 150), rel=1e-12)

    def test_3phi2_with_zeros_brute(self, ctx05):
        up = [0.5**0.5, 0.0, 0.0]
        lo = [0.3 * 0.5**0.7, 0.2 * 0.5**0.9]
        got = rphis(up, lo, 0.4, ctx05).value
        assert got == pytest.approx(brute_rphis(up, lo, 0.4, ctx05, 200), rel=1e-12)

    def test_terminating_is_polynomial(self, ctx05):
        # Degree-N polynomial: the (N+1)-st finite difference of samples at
        # equally spaced points vanishes.
        N = 2
        up = [ctx05.q ** float(-N), 0.35]
        lo = [0.6]
        zs = np.linspace(0.1, 0.9, N + 2)
        vals = np.array([complex(rphis(up, lo, z, ctx05).value).real for z in zs])
        assert abs(np.diff(vals, n=N + 1)).max() < 1e-10

    def test_lower_pole(self, ctx05):
        with pytest.raises(PoleError):
            rphis([0.4], [ctx05.q**-1], 0.2, ctx05)

    def test_domain(self, ctx05):
        with pytest.raises(DomainError):
            rphis([0.4, 0.5], [0.6], 1.2, ctx05)

    def test_overflowing_terminating_sum_raises(self):
        # q^-30 with q = 0.3 terminates after 31 terms whose size overflows.
        ctx = QContext(q=0.3)
        up, lo = [0.3**-30, 0.4, -0.3], [0.7]
        with np.errstate(all="ignore"):
            with pytest.raises(ConvergenceError):
                rphis(up, lo, 0.3, ctx)
            value, _, ok, _ = _rphis_array(up, lo, 0.3, ctx, terminate_after=30)
        assert not np.isfinite(value) and not ok

    def test_cancelling_r_equals_s_sum_is_unconverged(self):
        # r = s at z = 12.6: the terms rise far above the sum before the
        # q^(n(n-1)/2) factor brings them down, and double precision returns
        # 388.9 where mpmath gives -0.1556.  The rounding floor refuses it.
        ctx = QContext(q=0.9)
        r = rphis([0.9**0.7], [0.9**1.3], 12.6, ctx)
        want = complex(mpmath.qhyper([0.9**0.7], [0.9**1.3], 0.9, 12.6))
        assert abs(r.value - want) > 1.0
        assert not r.converged and r.est_trunc_error > 1.0


class TestPhi3:
    def test_origin(self, ctx05):
        spec = Phi3Spec(c=(0.4,), h=(0.3,))
        assert phi3(spec, 0.0, 0.0, 0.0, ctx05).value == pytest.approx(1.0)

    def test_single_index_collapse(self, ctx05):
        # One numerator over one denominator with y = z = 0 is the 2phi1-type
        # series with a padded zero upper base (no sign factor either way).
        spec = Phi3Spec(c=(0.45,), h=(0.25,))
        got = phi3(spec, 0.3, 0.0, 0.0, ctx05).value
        want = rphis([0.45, 0.0], [0.25], 0.3, ctx05).value
        assert got == pytest.approx(want, rel=1e-12)

    def test_brute_force_triple(self, ctx05):
        # Joint-coupled spec checked cell by cell against a plain loop.
        q = ctx05.q
        spec = Phi3Spec(
            bp=(q**1.1,), bpp=(q**0.8,),
            c=(q**0.7, q**1.2), cp=(q**0.9, q**1.4), cpp=(q**1.0,),
            h=(q**0.6, q**1.1), hp=(q**0.7, q**1.0), hpp=(q**0.5, q**0.8),
        )
        x, y, z = 0.2, 0.15, 0.1
        total = 0.0
        for m in range(20):
            for n in range(20):
                for p in range(20):
                    num = (
                        q_pochhammer(q**1.1, n + p, ctx05)
                        * q_pochhammer(q**0.8, p + m, ctx05)
                        * q_pochhammer(q**0.7, m, ctx05) * q_pochhammer(q**1.2, m, ctx05)
                        * q_pochhammer(q**0.9, n, ctx05) * q_pochhammer(q**1.4, n, ctx05)
                        * q_pochhammer(q**1.0, p, ctx05)
                    )
                    den = (
                        q_pochhammer(q**0.6, m, ctx05) * q_pochhammer(q**1.1, m, ctx05)
                        * q_pochhammer(q**0.7, n, ctx05) * q_pochhammer(q**1.0, n, ctx05)
                        * q_pochhammer(q**0.5, p, ctx05) * q_pochhammer(q**0.8, p, ctx05)
                        * q_pochhammer(q, m, ctx05) * q_pochhammer(q, n, ctx05)
                        * q_pochhammer(q, p, ctx05)
                    )
                    total += num / den * x**m * y**n * z**p
        got = phi3(spec, x, y, z, ctx05).value
        assert got == pytest.approx(total, rel=2e-10)

    @pytest.mark.parametrize("q,r", [(0.2, 3), (0.5, 3), (0.7, 6)])
    @pytest.mark.parametrize("group,args", [
        ("a", (300.0, -200.0, 150.0)),  # m+n+p: every axis terminates
        ("b", (300.0, -200.0, 0.2)),  # m+n
        ("bp", (0.2, 300.0, -200.0)),  # n+p
    ])
    def test_terminating_joint_group(self, q, r, group, args):
        # An upper base q^-r in a joint group ends the axes of its index at
        # r, where any argument is allowed, so the series is a polynomial
        # there.  Its terms past the joint index r vanish; a table that kept
        # the rounding residue of (q^-r; q)_k past k = r would weigh them with
        # high powers of the large arguments.
        ctx = QContext(q=q)
        groups = {"a": (), "b": (), "bp": (), "bpp": (q**0.8,), "c": (q**0.7,), "cp": (q**0.9,),
                  "g": (q**1.3,), "h": (q**0.6,), "hp": (q**1.1,), "hpp": (q**0.5,)}
        groups[group] = (q**-r,)
        # the axes whose indices each group's index adds up
        axes = {"a": "mnp", "b": "mn", "bp": "np", "bpp": "mp", "c": "m", "cp": "n", "cpp": "p",
                "g": "mn", "h": "m", "hp": "n", "hpp": "p"}

        def index(mnp, ax):
            return sum(i for i, a in zip(mnp, "mnp") if a in ax)

        def qp(bases, k):
            return math.prod(q_pochhammer(b, k, ctx) for b in bases)

        x, y, z = args
        total = 0.0
        for mnp in itertools.product(*(range((r if a in axes[group] else 60) + 1) for a in "mnp")):
            if index(mnp, axes[group]) > r:
                continue  # (q^-r; q)_k = 0 past k = r
            m, n, p = mnp
            term = x**m * y**n * z**p / (qp([q], m) * qp([q], n) * qp([q], p))
            for name, bases in groups.items():
                f = qp(bases, index(mnp, axes[name]))
                term = term / f if name in ("g", "h", "hp", "hpp") else term * f
            total += term
        got = phi3(Phi3Spec(**groups), x, y, z, ctx)
        assert got.converged
        assert got.value == pytest.approx(total, rel=1e-12)

    def test_denominator_pole_rejected(self, ctx05):
        spec = Phi3Spec(c=(0.4,), h=(ctx05.q**-3,))
        with pytest.raises(PoleError):
            phi3(spec, 0.1, 0.1, 0.1, ctx05)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_sum_raises(self):
        # The huge upper base overflows the terms to NaN (numpy warns on the way).
        with pytest.raises(ConvergenceError):
            phi3(Phi3Spec(a=(1e308,), h=(1e-308,)), 0.1, 0.2, 0.15, QContext(q=0.5))


class TestPhiKq:
    def test_origin(self, ctx05):
        p = FkParams(0.5, 0.7, 0.9, 0.6, 1.5, 1.3, 1.1)
        assert phi_k_q(p, 0, 0, 0, ctx05).value == pytest.approx(1.0)

    def test_z_zero_product(self, ctx05):
        q = ctx05.q
        p = FkParams(0.5, 0.7, 0.9, 0.6, 1.5, 1.3, 1.1)
        got = phi_k_q(p, 0.3, 0.25, 0.0, ctx05).value
        want = (
            complex(rphis([q**0.9, q**0.5], [q**1.5], 0.3, ctx05).value)
            * complex(rphis([q**0.7, q**0.6], [q**1.3], 0.25, ctx05).value)
        )
        assert complex(got) == pytest.approx(want, rel=1e-12)

    def test_cross_form_internal(self, ctx05):
        # The reexpansion that phi_k_q sums agrees with phi3, the triple series.
        p = FkParams(0.5, 0.7, 0.9, 0.6, 1.5, 1.3, 1.1)
        r = phi_k_q(p, 0.3, 0.25, 0.2, ctx05)
        triple = phi3(qkernels._phi_k_spec(p, ctx05.q), 0.3, 0.25, 0.2, ctx05)
        assert r.converged and triple.converged
        assert abs(complex(r.value) - complex(triple.value)) <= 1e-12 * (1 + abs(r.value))

    def test_unconverged_part_is_reported(self, ctx05, monkeypatch):
        p = FkParams(0.5, 0.7, 0.9, 0.6, 1.5, 1.3, 1.1)
        real_family_sum = qkernels._family_sum

        def stalled_a_table(uppers, lowers, X, ctx, tol):
            value, terms, converged, est = real_family_sum(uppers, lowers, X, ctx, tol)
            return value, terms, converged and not np.all(X == 0.3), est

        monkeypatch.setattr(qkernels, "_family_sum", stalled_a_table)
        assert not phi_k_q(p, 0.3, 0.25, 0.2, ctx05).converged

    # Rows falling like z^p: 160 of them leave 6e-9 of the sum at z = 0.9.
    # Values: the decomposition with 800 rows, within 5e-15 of a 30-digit
    # triple sum.
    @pytest.mark.parametrize("z,want", [(0.9, 2.013823627048529), (0.95, 2.5658997240330943)])
    def test_slow_third_index_within_estimate(self, z, want):
        r = phi_k_q(FkParams(0.5, 0.7, 0.6, 0.8, 1.2, 1.3, 1.4), 0.01, 0.01, z, QContext(q=0.9))
        assert not r.converged or abs(r.value - want) <= r.est_trunc_error * (1 + abs(want))

    def test_tables_follow_input_dtype(self, ctx05):
        p = FkParams(0.5, 0.7, 0.9, 0.6, 1.5, 1.3, 1.1)
        X, Y = np.array([0.2, 0.3]), np.array([0.1])
        assert {t.dtype for t in phi_k_p_tables(p, X, Y, ctx05, 12)[:3]} == {np.dtype(np.float64)}
        pc = dataclasses.replace(p, alpha1=0.5 + 0.2j, alpha2=0.7 - 0.1j)
        assert {t.dtype for t in phi_k_p_tables(pc, X, Y, ctx05, 12)[:3]} == {np.dtype(np.complex128)}
        _, A, B, *_ = phi_k_p_tables(p, X, Y + 0.05j, ctx05, 12)
        assert (A.dtype, B.dtype) == (np.float64, np.complex128)

    @pytest.mark.parametrize("q", [0.3, 0.6])
    @pytest.mark.parametrize("cplx", [False, True])
    def test_one_node_sum_matches_mpmath(self, q, cplx):
        ctx = QContext(q=q)
        p = FkParams(0.5, 0.7, 0.9, 0.6, 1.5, 1.3, 1.1)
        x, y, z = 0.2, 0.15, 0.2
        if cplx:
            p = dataclasses.replace(p, alpha1=0.5 + 0.3j, beta1=0.9 - 0.2j, gamma2=1.3 + 0.1j)
            x, z = 0.15 + 0.1j, 0.2 - 0.08j
        r = phi_k_q(p, x, y, z, ctx)
        want = mp_phi_k(p, x, y, z, q)
        assert r.converged
        assert abs(complex(r.value) - want) <= 1e-12 * (1 + abs(want))

    def test_classical_limit(self):
        ctx = QContext(q=0.999)
        p = FkParams(0.5, 0.7, 0.9, 0.6, 1.5, 1.3, 1.1)
        got = phi_k_q(p, 0.1, 0.12, 0.08, ctx, tol=1e-10).value
        want = saran_fk_triple(p, 0.1, 0.12, 0.08).value
        assert complex(got) == pytest.approx(complex(want), rel=1e-2)

    def test_domain(self, ctx05):
        p = FkParams(0.5, 0.7, 0.9, 0.6, 1.5, 1.3, 1.1)
        with pytest.raises(DomainError):
            phi_k_q(p, 1.1, 0.2, 0.1, ctx05)


class TestJacksonIntegral:
    def test_constant(self, ctx05):
        assert jackson_integral(lambda t: np.ones_like(t), 1, ctx05) == pytest.approx(1.0, abs=1e-10)

    def test_linear(self, ctx05):
        got = jackson_integral(lambda t: t, 1, ctx05)
        assert got == pytest.approx(1.0 / (1.0 + ctx05.q), rel=1e-12)

    def test_q_beta_representation(self, ctx05):
        from saranfk.core import q_beta

        x0, y0 = 1.3, 0.8
        got = jackson_integral(
            lambda t: t ** (x0 - 1) * q_pochhammer_inf_ratio(t * ctx05.q, t * ctx05.q**y0, ctx05),
            1,
            ctx05,
        )
        assert got == pytest.approx(q_beta(x0, y0, ctx05), rel=1e-12)

    def test_two_dimensional_product(self, ctx05):
        got = jackson_integral(lambda u, v: u * np.ones_like(v), 2, ctx05)
        assert got == pytest.approx(1.0 / (1.0 + ctx05.q), rel=1e-10)

    def test_quadratic(self, ctx05):
        got = jackson_integral(lambda t: t**2, 1, ctx05)
        assert got == pytest.approx((1 - ctx05.q) / (1 - ctx05.q**3), rel=1e-12)

    def test_non_finite_sum_raises(self, ctx05):
        with pytest.raises(ConvergenceError):
            jackson_integral(lambda t: np.full_like(t, np.nan), 1, ctx05)

    def test_dimension_cap(self, ctx05):
        with pytest.raises(DomainError):
            jackson_integral(lambda *a: 1.0, 4, ctx05)


class TestQMeasures:
    def test_qdirichlet_normalization(self, ctx05):
        t, w = q_measure_rule(QDirichletMeasure(0.8, 1.3, ctx05))
        assert complex(w.sum()) == pytest.approx(1.0, abs=1e-10)

    def test_qhypergeometric_normalization(self, ctx05):
        nu, lam, g, eta = 0.6, 1.1, 2.0, 1.7
        spec = QHypergeometricMeasure(eta - lam, g - lam, g - lam + eta - nu, nu, ctx05)
        t, w = q_measure_rule(spec)
        assert complex(w.sum()) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.7])
    @pytest.mark.parametrize("alpha", [0.25, 0.25 + 0.1j])
    def test_doubled_rule_equals_full_lattice(self, q, alpha):
        ctx = QContext(q=q)
        spec = QHypergeometricMeasure(alpha, 0.85, 1.3, 0.3, ctx)
        t, w = q_measure_rule(spec)
        assert t.size > _lattice_size(ctx, _measure_decay(spec))
        n = np.arange(t.size)
        t_full = q ** n.astype(np.float64)
        assert np.array_equal(t, t_full)
        assert np.array_equal(w, (1.0 - q) * t_full * _q_density_lattice(spec, n))

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.7])
    def test_small_first_exponent(self, q):
        # The doubled lattice stops at the last n whose q^n is a normal double.
        ctx = QContext(q=q)
        for spec in (QDirichletMeasure(0.04, 1.3, ctx), QHypergeometricMeasure(0.3, 0.4, 0.6, 0.14, ctx)):
            t, w = q_measure_rule(spec)
            assert t[-1] >= np.finfo(np.float64).tiny
            for ell in range(3):
                want = q_moment(spec, ell)
                assert abs(complex(w @ t**ell) - want) <= 1e-12 * (1.0 + abs(want))

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.7])
    def test_too_small_first_exponent_raises(self, q):
        with pytest.raises(ConvergenceError):
            q_measure_rule(QDirichletMeasure(0.01, 1.3, QContext(q=q)))

    def test_density_requires_lattice_point(self, ctx05):
        with pytest.raises(DomainError):
            q_measure_density(QDirichletMeasure(0.8, 1.3, ctx05), 0.4)

    def test_invalid_parameters(self, ctx05):
        with pytest.raises(DomainError):
            QDirichletMeasure(-0.5, 1.0, ctx05)
        with pytest.raises(DomainError):
            QHypergeometricMeasure(0.5, 0.5, 0.4, -0.2, ctx05)

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.7])
    def test_density_matches_gamma_and_product_form(self, q):
        # The density's closed form: q-Gamma normalisation, the infinite
        # product ratio (t q; q)_inf / (t q^x; q)_inf and the terminating 3phi1
        # of a scalar rphis, at lattice points t = q^n.
        ctx = QContext(q=q)
        G = lambda x: q_gamma(x, ctx)
        for n in (0, 1, 5, 30, 90):
            t = q**n
            a, b = 0.8, 1.3
            want = (G(a + b) / (G(a) * G(b)) * t ** (a - 1)
                    * q_pochhammer_inf_ratio(t * q, t * q**b, ctx))
            got = q_measure_density(QDirichletMeasure(a, b, ctx), t)
            assert got == pytest.approx(want, rel=1e-13)
            a, b, g, e = 0.25 + 0.1j, 0.85, 1.3, 0.3
            phi = rphis([q**a, q**b, 1 / t], [q**g], t * q ** (g - a - b), ctx).value
            want = (G(e + g - a) * G(e + g - b) / (G(e) * G(g) * G(e + g - a - b)) * t ** (e - 1)
                    * q_pochhammer_inf_ratio(t * q, t * q**g, ctx) * phi)
            got = q_measure_density(QHypergeometricMeasure(a, b, g, e, ctx), t)
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_classical_limit_of_densities(self):
        # On-lattice t near 1/2 at q close to 1.
        ctx = QContext(q=0.999)
        n = round(math.log(0.5) / math.log(ctx.q))
        t = ctx.q**n
        qd = q_measure_density(QDirichletMeasure(0.8, 1.3, ctx), t)
        cd = dirichlet_density(DirichletMeasure(0.8, 1.3), t)
        assert qd == pytest.approx(cd, rel=1e-2)
        nu, lam, g, eta = 0.6, 1.1, 2.0, 1.7
        qh = q_measure_density(
            QHypergeometricMeasure(eta - lam, g - lam, g - lam + eta - nu, nu, ctx), t
        )
        ch = hypergeometric_density(
            HypergeometricMeasure(eta - lam, g - lam, g - lam + eta - nu, nu), t
        )
        assert qh == pytest.approx(ch, rel=1e-2)


def mp_lattice_3phi1(A, B, C, W, q, n):
    """3phi1(A, B, q^-n; C; q, W q^n) term by term at 40 digits, from the
    doubles A, B, C, W and q, with q^-n and q^n exact."""
    with mpmath.workdps(40):
        A, B, C, W, mq = (mpmath.mpmathify(v) for v in (A, B, C, W, q))
        z = W * mq**n
        term = total = mpmath.mpf(1)
        for k in range(n):
            term *= ((1 - A * mq**k) * (1 - B * mq**k) * (1 - mq ** (k - n))
                     / ((1 - C * mq**k) * (1 - mq ** (k + 1))) * -z * mq**-k)
            total += term
        return complex(total)


def density_lattice_args(A, B, C, W, q, K):
    """The density's 3phi1 arguments on the lattice n = 0..K, formed as
    _q_density_lattice forms them: t = q^n, upper 1/t, argument t W."""
    n = np.arange(K + 1)
    t = q ** n.astype(np.float64)
    return [A, B, 1.0 / t], [C], t * W, n


def assert_lattice_matches_mpmath(A, B, C, W, q, K, checked, rtol):
    uppers, lowers, z, n = density_lattice_args(A, B, C, W, q, K)
    dtype = np.complex128 if np.iscomplexobj(z) else np.float64
    assert _lattice_sum(uppers, lowers, z, n, q, dtype) is not None
    value, terms, converged, est = _rphis_array(uppers, lowers, z, QContext(q=q), terminate_after=n)
    assert (terms, converged) == (K, True) and est > 0.0
    for m in checked:
        want = mp_lattice_3phi1(A, B, C, W, q, m)
        assert abs(value[m] - want) <= rtol * abs(want), (m, value[m], want)
        assert abs(value[m] - want) <= est * (1.0 + abs(want)), (m, value[m], want, est)


class TestLatticeSum:
    """The lattice path of _rphis_array: the terminating 3phi1 of the
    q-measure densities and limit weights as one q-binomial convolution."""

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.7])
    @pytest.mark.parametrize("alpha", [0.25, 0.25 + 0.1j])
    def test_density_series_matches_mpmath(self, q, alpha):
        # The exponents of test_doubled_rule_equals_full_lattice, on the
        # longest lattice whose q^n is a normal double, at most 447.
        K = min(447, math.floor(math.log(np.finfo(np.float64).tiny) / math.log(q)))
        a, b, g = alpha, 0.85, 1.3
        assert_lattice_matches_mpmath(q**a, q**b, q**g, q ** (g - a - b), q, K,
                                      [0, 1, 2, 7, 40, 150, K], 1e-14)

    def test_worst_verdict_density_matches_mpmath(self):
        q, a, b, g = 0.7, 0.36843892011770374, 0.8612735130189603, 0.5864825239365985
        assert_lattice_matches_mpmath(q**a, q**b, q**g, q ** (g - a - b), q, 447,
                                      [0, 3, 100, 300, 446, 447], 1e-14)

    def test_seed42_density_estimate_bounds_its_error(self):
        # A seed-42 density at q = 0.7: at n = 86 the terms of its 3phi1 add
        # in magnitude to 776 times the sum, and its error relative to
        # 1 + |S| is 2.4 times eps (sum |t| + sqrt(n) |S|) / (1 + |S|).
        A, B, C, W = 0.6402193900906938, 1.0045266055975428, 0.6557575959764155, 1.0196545529623207
        q, K = 0.7, 121
        uppers, lowers, z, n = density_lattice_args(A, B, C, W, q, K)
        value, terms, converged, est = _rphis_array(uppers, lowers, z, QContext(q=q), terminate_after=n)
        want = mp_lattice_3phi1(A, B, C, W, q, 86)
        assert converged and abs(value[86] - want) <= est * (1.0 + abs(want))

    @given(
        A=st.floats(min_value=0.01, max_value=0.99),
        B=st.floats(min_value=0.01, max_value=0.99),
        C=st.floats(min_value=0.01, max_value=0.99),
        W=st.floats(min_value=0.2, max_value=2.0),
        q=st.floats(min_value=0.2, max_value=0.9),
        K=st.integers(min_value=0, max_value=30),
    )
    @hsettings(max_examples=40, deadline=None)
    def test_matches_mpmath_property(self, A, B, C, W, q, K):
        assert_lattice_matches_mpmath(A, B, C, W, q, K, range(K + 1), 1e-14)

    def test_recurrence_where_q_factorial_underflows(self):
        # At q = 0.999 (q; q)_693 is below the double range: the lattice path
        # declines, silently, and the term recurrence of an int cut-off sums
        # the row.
        q = 0.999
        uppers, lowers, z, n = density_lattice_args(q**0.6, q**0.9, q**1.5, 1.0, q, 693)
        uppers[2], z, n = uppers[2][-1:], z[-1:], n[-1:]
        ctx = QContext(q=q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _lattice_sum(uppers, lowers, z, n, q, np.float64) is None
            got = _rphis_array(uppers, lowers, z, ctx, terminate_after=n)
            want = _rphis_array(uppers, lowers, z, ctx, terminate_after=693)
        assert np.isfinite(got[0]).all()
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]

    def test_other_forms_keep_the_recurrence(self):
        q = 0.6
        ta = np.array([[0, 1, 7], [15, 16, 3]])
        u = q ** -ta.astype(float)
        # z q^-n not one value, two varying uppers, r = s + 1
        for uppers, lowers, z in (
            ([u, 0.4, -0.3], [0.7], np.array([0.2, -0.4, 0.6])),
            ([u, 0.4 * u, 0.3], [0.7], 0.5 * q**ta),
            ([u, 0.4], [0.7], 0.5 * q**ta),
        ):
            assert _lattice_sum(uppers, lowers, np.asarray(z), ta, q, np.float64) is None


def loop_table(uppers, lowers, X, q, n_terms=400):
    """A non-terminating r_phi_s (r = s + 1) one term at a time over arrays."""
    term = total = np.ones(np.broadcast_shapes(X.shape, *(np.shape(v) for v in (*uppers, *lowers))))
    for n in range(n_terms):
        num = math.prod(1.0 - np.asarray(u) * q**n for u in uppers)
        den = (1.0 - q ** (n + 1)) * math.prod(1.0 - np.asarray(b) * q**n for b in lowers)
        term = term * (num / den) * X
        total = total + term
    return total


def mp_qhyper(uppers, lowers, X, q) -> complex:
    with mpmath.workdps(30):
        return complex(mpmath.qhyper([mpmath.mpmathify(u) for u in uppers],
                                     [mpmath.mpmathify(b) for b in lowers],
                                     mpmath.mpf(q), mpmath.mpmathify(X)))


def spy_family(monkeypatch):
    """Patch _family_sum to record, per call, whether it took the series:
    whether the _power_sum it called returned a sum."""
    taken, sums = [], []
    family, power_sum = qkernels._family_sum, qkernels._power_sum

    def spy_power_sum(*args, **kwargs):
        out = power_sum(*args, **kwargs)
        sums.append(out is not None)
        return out

    def spy(*args, **kwargs):
        before = len(sums)
        try:
            return family(*args, **kwargs)
        finally:
            taken.append(sums[before:] == [True])

    monkeypatch.setattr(qkernels, "_power_sum", spy_power_sum)
    monkeypatch.setattr(qkernels, "_family_sum", spy)
    return taken


FAMILY_P = FkParams(0.5, 0.7, 0.9, 0.6, 1.5, 1.3, 1.1)


class TestFamilyRoute:
    """The shifted 2phi1/3phi2 tables of phi_k_p_tables, over node grids and
    single nodes, summed as one matrix product of coefficients and argument
    powers."""

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.7])
    @pytest.mark.parametrize("form", ["real", "complex", "3phi2"])
    def test_grid_tables_match_term_loop_and_mpmath(self, monkeypatch, q, form):
        ctx = QContext(q=q)
        p, extra = FAMILY_P, ()
        if form == "complex":
            p = dataclasses.replace(p, alpha1=0.5 + 0.3j, beta1=0.9 - 0.2j, beta2=0.6 + 0.1j)
        if form == "3phi2":
            extra = ((0.4, 1.7), (1.2, 0.8), (0.3, 1.4))
        X = np.array([-0.6, -0.2, 0.3, 0.75])
        Y = np.array([0.5, -0.45, 0.1])
        pmax = 20
        taken = spy_family(monkeypatch)
        _, A, B, okA, okB = phi_k_p_tables(p, X, Y, ctx, pmax, 1e-14, extra)
        assert taken == [True, True] and okA and okB
        shifts = q ** np.arange(pmax + 1.0)
        (u1, l1), (u2, l2), _ = [([q**u], [q**l]) for u, l in extra] or [([], [])] * 3
        sides = (
            (A, [q**p.beta1 * shifts, q**p.alpha1, *u1], [q**p.gamma1, *l1], X),
            (B, [q**p.alpha2 * shifts, q**p.beta2, *u2], [q**p.gamma2, *l2], Y),
        )
        for table, uppers, lowers, args in sides:
            want = loop_table(uppers, lowers, args[:, None], q)
            assert np.all(np.abs(table - want) <= 1e-14 * (1.0 + np.abs(want)))
            for i in (0, 1, -1):
                for j in (0, 7, pmax):
                    ref = mp_qhyper([uppers[0][j], *uppers[1:]], lowers, args[i], q)
                    assert abs(table[i, j] - ref) <= 1e-14 * (1.0 + abs(ref)), (i, j)

    @pytest.mark.parametrize("X", [0.3, np.array([-0.45])], ids=["scalar", "one"])
    def test_one_element_argument_takes_it(self, monkeypatch, X):
        # A point value's tables: one node, parameters varying along p.
        q, pmax = 0.5, 12
        ctx = QContext(q=q)
        taken = spy_family(monkeypatch)
        got = phi_k_p_tables(FAMILY_P, X, X, ctx, pmax)
        assert taken == [True, True] and got[3] and got[4]
        shifts = q ** np.arange(pmax + 1.0)
        p = FAMILY_P
        for table, (sh, a, c) in zip(got[1:3], (
                (p.beta1, p.alpha1, p.gamma1), (p.alpha2, p.beta2, p.gamma2))):
            loop = _rphis_array([q**sh * shifts, q**a], [q**c], np.asarray(X)[..., None], ctx, 1e-13)[0]
            assert table.shape == loop.shape
            assert np.all(np.abs(table - loop) <= 1e-14 * (1.0 + np.abs(loop)))
            for j in (0, 5, pmax):
                ref = mp_qhyper([q**sh * shifts[j], q**a], [q**c], float(np.ravel(X)[0]), q)
                assert abs(table[..., j].item() - ref) <= 1e-14 * (1.0 + abs(ref)), j

    def test_lower_pole_still_raises(self, monkeypatch):
        # FkParams rejects a gamma on the pole lattice, so the lower exponent
        # that extra adds to gamma slot 1 sits there: (q^-3; q)_4 vanishes,
        # the family declines and the recurrence raises.
        taken = spy_family(monkeypatch)
        extra = ((0.4, -3.0), (1.2, 0.8), (0.3, 1.4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PoleError):
                phi_k_p_tables(FAMILY_P, np.array([0.2, -0.3]), 0.1, QContext(q=0.5), 4, extra=extra)
        assert taken == [False]

    def test_complex_gamma_on_the_pole_lattice_raises(self, monkeypatch):
        # FkParams checks only the non-positive integers, but q^gamma1 with
        # gamma1 = -3 + 2 pi i / ln q is q^-3 up to rounding.  The bases are
        # checked before any table is summed, where the recurrence's pole
        # test would pass the rounded zero and return a table near 1e11.
        q = 0.5
        p = dataclasses.replace(FAMILY_P, gamma1=-3.0 + 2j * math.pi / math.log(q))
        taken = spy_family(monkeypatch)
        with pytest.raises(PoleError):
            phi_k_p_tables(p, np.array([0.2, -0.3]), 0.1, QContext(q=q), 4)
        assert taken == []

    def test_only_phi_k_p_tables_take_it_in_the_verdict(self, monkeypatch):
        # Every phi_k_p_tables family takes it (546 at seed 42), grids and
        # one-node point values alike; no other caller reaches _family_sum.
        taken = spy_family(monkeypatch)
        calls = []
        family = qkernels._family_sum

        def spy(uppers, lowers, X, *args, **kwargs):
            calls.append((sys._getframe(1).f_code.co_name, np.size(X)))
            return family(uppers, lowers, X, *args, **kwargs)

        monkeypatch.setattr(qkernels, "_family_sum", spy)
        for case in q_cases.build():
            for q in (0.2, 0.5, 0.7):
                assert verify_identity(case, seed=42, settings=EvalSettings(q=q)).passed
        assert {name for name, _ in calls} == {"phi_k_p_tables"}
        assert len(taken) == 546 and all(taken)
        sizes = {size for _, size in calls}
        assert 1 in sizes and max(sizes) > 1

    def test_classical_node_arrays_never_reach_the_recurrence(self, monkeypatch):
        # The classical identities sum their node arrays by the power route
        # or the Chebyshev proxy; _sum_terms sums only their one-element
        # series (405 at seed 42), so its array blocks need no tuning for them.
        arrays, routed = [], []
        terms, power = series._sum_terms, series._power_sum

        def spy_terms(block, shape, dtype, max_terms, tol, margin=None, min_terms=8):
            # margin is None for a terminating series.
            if margin is not None and math.prod(shape) > 1:
                arrays.append(shape)
            return terms(block, shape, dtype, max_terms, tol, margin, min_terms)

        def spy_power(*args):
            res = power(*args)
            routed.append(res is not None)
            return res

        monkeypatch.setattr(series, "_sum_terms", spy_terms)
        monkeypatch.setattr(series, "_power_sum", spy_power)
        for case in classical_cases.build():
            assert verify_identity(case, seed=42, settings=EvalSettings.default()).passed
        assert arrays == [] and any(routed)

    def test_other_rphis_families_never_reach_it(self, monkeypatch):
        # Scalar rphis and the gasper-q node arrays go to the recurrence
        # without a test for the table layout.
        taken = spy_family(monkeypatch)
        rphis([0.3, 0.4], [0.7], 0.2, QContext(q=0.5))
        for case_id in ("gasper-q-erdelyi-1", "gasper-q-erdelyi-3"):
            case = registry_lookup(case_id)
            for q in (0.2, 0.5, 0.7):
                s = EvalSettings.default().with_q(q)
                for pt in sample_parameters(case, 42, case.default_samples):
                    case.rhs(pt, s)
        assert taken == []


def mp_weight_limit(which, p, q, idx):
    """discrete_weight_limit's w1 or w2 at 40 digits from the same doubles:
    (q^a, q^mu; q)_inf / (q^g, q^lam; q)_inf (q^gl; q)_i / (q; q)_i q^(i mu)
    3phi1(q^(lam-a), q^(g-a), q^-i; q^gl; q, q^(a-mu+i)), gl = g + lam - a - mu."""
    a, g, lam, mu = ((p.alpha1, p.gamma1, p.lam1, p.mu1) if which == "w1"
                     else (p.beta2, p.gamma2, p.lam2, p.mu2))
    with mpmath.workdps(40):
        mq = mpmath.mpf(q)
        gl = g + lam - a - mu
        pref = (mpmath.qp(mq**a, mq) * mpmath.qp(mq**mu, mq)
                / (mpmath.qp(mq**g, mq) * mpmath.qp(mq**lam, mq)))
        out = []
        for i in idx:
            phi = mp_lattice_3phi1(mq ** (lam - a), mq ** (g - a), mq**gl, mq ** (a - mu), mq, int(i))
            out.append(complex(pref * mp_qp(mq**gl, i, mq) / mp_qp(mq, i, mq) * mq ** (i * mu) * phi).real)
        return np.array(out)


class TestWeightLimitLattice:
    @pytest.mark.parametrize("which", ["w1", "w2"])
    @pytest.mark.parametrize("q", [0.2, 0.5, 0.7])
    def test_limit_weights_match_mpmath(self, which, q):
        # Two of w_tail's doubling blocks: the lattice from 0 and one after it.
        ctx = QContext(q=q)
        p = TestDiscreteWeights.P
        for idx, checked in ((np.arange(64), slice(None)), (np.arange(64, 192), slice(None, None, 9))):
            got = discrete_weight_limit(which, idx, p, ctx)[checked]
            want = mp_weight_limit(which, p, q, idx[checked])
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


class TestQMoment:
    def test_normalization(self, ctx05):
        spec = QDirichletMeasure(0.8, 1.3, ctx05)
        assert q_moment(spec, 0) == pytest.approx(1.0)

    def test_first_moment_closed_form(self):
        q = 0.5
        ctx = QContext(q=q)
        nu, lam, g, eta = 0.5, 0.6, 1.5, 1.4
        spec = QHypergeometricMeasure(eta - lam, g - lam, g - lam + eta - nu, nu, ctx)
        want = (1 - q**nu) * (1 - q**lam) / ((1 - q**g) * (1 - q**eta))
        assert q_moment(spec, 1) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
    def test_closed_form_matches_lattice(self, q, rng):
        ctx = QContext(q=q)
        for _ in range(6):
            nu, lam = rng.uniform(0.4, 1.2, 2)
            g = lam + rng.uniform(0.3, 1.0)
            eta = nu + (lam - g) + rng.uniform(0.4, 1.2)
            if min(nu, lam, g - lam + eta - nu) <= 0:
                continue
            spec = QHypergeometricMeasure(eta - lam, g - lam, g - lam + eta - nu, nu, ctx)
            t, w = q_measure_rule(spec)
            for ell in range(9):
                got = complex((w * t**ell).sum())
                assert abs(got - q_moment(spec, ell)) < 1e-10


class TestShiftKernel:
    SP = QfkShiftParams(
        alpha1=0.8, alpha2=1.1, beta1=0.9, beta2=0.7, gamma3=1.5,
        eta1=0.9, eta2=0.6, mu2=1.0, lam1=0.5, lam2=0.8, lam3=0.4,
    )

    @pytest.mark.parametrize("z", [0.0, 0.3])
    def test_z_zero_collapse(self, ctx05, z):
        # Reference: the explicit k-sum of scalar factors up to k = 30; at
        # z = 0 only the k = 0 term survives.
        q = ctx05.q
        sp = self.SP
        u, v, w = q**1, q**2, q**1
        x, y = 0.27, 0.21
        got = qshift_operator_kernel(sp, u, v, w, x, y, z, ctx05)
        inner = FkParams(
            alpha1=sp.alpha1, alpha2=sp.alpha2 - sp.eta2,
            beta1=sp.beta1 - sp.lam3, beta2=sp.beta2,
            gamma1=sp.alpha1 - sp.lam1 + sp.eta1,
            gamma2=sp.beta2 - sp.lam2 + sp.mu2,
            gamma3=sp.beta1 - sp.lam3,
        )
        want = 0.0
        for k in range(31 if z else 1):
            sa, sb = q ** (k + sp.lam3), q ** (k + sp.eta2)
            a_k = (
                q_pochhammer_inf(u * x * sa, ctx05) / q_pochhammer_inf(u * x, ctx05)
                * complex(rphis([sa, q**(sp.lam1 - sp.eta1), 1 / u],
                                [q**sp.lam1, q / (u * x)], q, ctx05).value)
            )
            b_k = (
                q_pochhammer_inf(v * y * sb, ctx05) / q_pochhammer_inf(v * y, ctx05)
                * complex(rphis([sb, q**(sp.lam2 - sp.mu2), 1 / v],
                                [q**sp.lam2, q / (v * y)], q, ctx05).value)
            )
            c_k = (
                q_pochhammer(q**sp.eta2, k, ctx05) / q_pochhammer(q, k, ctx05)
                * (w * z * q ** (sp.alpha2 - sp.eta2)) ** k
            )
            pk = complex(phi_k_q(inner, u * x * sa, v * y * sb, w * z, ctx05).value)
            want += c_k * a_k * b_k * pk
        assert got == pytest.approx(want, rel=1e-12)

    def test_eta2_zero_single_term(self, ctx05):
        # (1;q)_k vanishes for k >= 1, so only the k = 0 term survives even
        # with z nonzero.
        q = ctx05.q
        sp0 = QfkShiftParams(
            alpha1=0.8, alpha2=1.1, beta1=0.9, beta2=0.7, gamma3=1.5,
            eta1=0.9, eta2=0.0, mu2=1.0, lam1=0.5, lam2=0.8, lam3=0.4,
        )
        kz = qshift_operator_kernel(sp0, q, q**2, q, 0.27, 0.21, 0.3, ctx05)
        k0 = qshift_operator_kernel(sp0, q, q**2, q, 0.27, 0.21, 0.3, ctx05, kmax=0)
        assert kz == pytest.approx(k0, rel=1e-13)

    def test_k_truncation_refinement(self, ctx05):
        q = ctx05.q
        v25 = qshift_operator_kernel(self.SP, q, q**2, q, 0.27, 0.21, 0.3, ctx05, kmax=25)
        v60 = qshift_operator_kernel(self.SP, q, q**2, q, 0.27, 0.21, 0.3, ctx05, kmax=60)
        assert v25 == pytest.approx(v60, rel=1e-12)

    def test_off_lattice_rejected(self, ctx05):
        with pytest.raises(DomainError):
            qshift_operator_kernel(self.SP, 0.4, 0.5, 0.25, 0.2, 0.2, 0.1, ctx05)

    def test_slow_p_sum_raises_or_is_right(self):
        # At z = 0.97 the p rows fall like 0.97^p, and 160 of them leave
        # 0.7% of the sum (32.866).  Value: the sum with 3000 p rows.
        sp = QfkShiftParams(alpha1=0.6, alpha2=0.9, beta1=0.8, beta2=0.7, gamma3=1.5, eta1=0.9, eta2=0.4,
                            mu2=0.8, lam1=0.6, lam2=0.6, lam3=0.5)
        try:
            got = qshift_operator_kernel(sp, 0.5, 0.25, 1.0, 0.27, 0.21, 0.97, QContext(q=0.5))
        except ConvergenceError:
            return
        assert got == pytest.approx(33.1019575340949, rel=1e-11)

    # Values at one-node lattice points (q^nu, q^nv, q^nw) from the per-node
    # Phi_K tables, which the k-sum now indexes by lattice index plus k.
    ONE_NODE = {
        0.2: [((0, 0, 0), 2.523211211612597), ((1, 2, 1), 0.7209592246135648),
              ((3, 0, 2), 0.8722499002352364), ((5, 4, 0), 0.8355195328328671)],
        0.5: [((0, 0, 0), 2.6497059305462147), ((1, 2, 1), 1.216604706250673),
              ((3, 0, 2), 1.200507905083794), ((5, 4, 0), 1.116276451514408)],
        0.7: [((0, 0, 0), 2.7967440744396317), ((1, 2, 1), 1.6340392530684824),
              ((3, 0, 2), 1.4979683166741344), ((5, 4, 0), 1.3246339350624299)],
    }

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.7])
    def test_one_node_values(self, q):
        for (nu, nv, nw), want in self.ONE_NODE[q]:
            got = qshift_operator_kernel(self.SP, q**nu, q**nv, q**nw, 0.27, 0.21, 0.3, QContext(q=q))
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.7])
    def test_indexed_tables_match_per_node(self, q):
        # The inner Phi_K arguments x t_i q^(lam3 + k), t_i = q^n_i, depend
        # on n_i + k alone, so one table over m = n + k serves every node.
        s = EvalSettings.default().with_q(q)
        case = registry_lookup("qfk-erdelyi")
        kmax, pmax, k = 6, 8, np.arange(7)
        for pt in sample_parameters(case, 42, case.default_samples):
            v = pt.flat()
            [(t, _)] = q_cases._q_rules(case.measures(v)[:1], s)
            n = np.rint(np.log(t) / math.log(q)).astype(np.int64)
            m = np.arange(n.min(), n.max() + kmax + 1)
            inner = FkParams(
                alpha1=v["alpha1"], alpha2=v["alpha2"] - v["eta2"], beta1=v["beta1"] - v["lam3"],
                beta2=v["beta2"], gamma1=v["alpha1"] - v["lam1"] + v["eta1"],
                gamma2=v["beta2"] - v["lam2"] + v["mu2"], gamma3=v["beta1"] - v["lam3"],
            )
            shifts = q ** (v["lam3"] + k)
            per_node = phi_k_p_tables(inner, t[:, None] * v["x"] * shifts, 0.1, s.qctx, pmax, 1e-14)[1]
            table = phi_k_p_tables(inner, v["x"] * q ** (v["lam3"] + m), 0.1, s.qctx, pmax, 1e-14)[1]
            indexed = table[n[:, None] + k - m[0]]
            assert np.max(np.abs(indexed - per_node) / (1.0 + np.abs(per_node))) <= 1e-14


class TestDiscreteWeights:
    P = DiscreteFkParams(
        alpha1=0.7, beta2=0.9, gamma1=1.6, gamma2=1.9, gamma3=1.4,
        lam1=0.6, lam2=1.1, mu1=1.2, mu2=0.8, mu3=0.9,
    )

    def test_w3_boundary_closed_form(self, ctx05):
        # At i = t the middle factor collapses and w3 is a plain q-binomial
        # style ratio.
        from saranfk.core import q_pochhammer_table

        q = ctx05.q
        t = 5
        got = discrete_weight("w3", t, t, self.P, ctx05)
        want = (
            q_pochhammer_table(q, t, q)[t]
            / q_pochhammer_table(q**self.P.gamma3, t, q)[t]
            * q_pochhammer_table(q**self.P.mu3, t, q)[t]
            / q_pochhammer_table(q, t, q)[t]
        )
        assert got == pytest.approx(want, rel=1e-13)

    def test_index_bounds(self, ctx05):
        with pytest.raises(DomainError):
            discrete_weight("w1", 4, 3, self.P, ctx05)

    @pytest.mark.parametrize("which", ["w1", "w2", "w3"])
    @pytest.mark.parametrize("i", [0, 2])
    def test_limits_at_r40(self, which, i, ctx05):
        fin = discrete_weight(which, 40 - i, 40, self.P, ctx05)
        lim = discrete_weight_limit(which, i, self.P, ctx05)
        assert abs(fin - lim) < 1e-6 * abs(lim)

    @pytest.mark.parametrize("which", ["w1", "w2", "w3"])
    @pytest.mark.parametrize("q", [0.2, 0.5, 0.7])
    def test_limit_array_matches_scalar(self, which, q):
        ctx = QContext(q=q)
        idx = np.arange(81)
        batch = discrete_weight_limit(which, idx, self.P, ctx)
        assert batch.shape == idx.shape
        scalar = np.array([discrete_weight_limit(which, int(i), self.P, ctx) for i in idx])
        np.testing.assert_allclose(batch, scalar, rtol=1e-13, atol=0.0)

    def test_weight_rejects_non_int_index(self, ctx05):
        for i, r in ((1.5, 3), (1, 3.0), (-1, 3)):
            with pytest.raises(DomainError):
                discrete_weight("w1", i, r, self.P, ctx05)

    def test_limit_rejects_bad_index(self, ctx05):
        for bad in (-1, 1.5, np.array([0, -2])):
            with pytest.raises(DomainError):
                discrete_weight_limit("w1", bad, self.P, ctx05)


def fk_discrete_points():
    case = registry_lookup("fk-discrete")
    return [pt.flat() for pt in sample_parameters(case, 42, case.default_samples)]


def old_discrete_weight(which, i, r, p, q):
    """The scalar weights as summed before the batched long-double form: a
    double-precision terminating 3phi2 per (i, r) for w1 and w2."""

    def qp(base, n):
        return q_pochhammer_table(base, n, q)[n]

    if which == "w3":
        g, mu = p.gamma3, p.mu3
        return (qp(q, r) / qp(q**g, r) * qp(q ** (g - mu), r - i) / qp(q, r - i)
                * qp(q**mu, i) / qp(q, i) * q ** ((r - i) * mu))
    a, g, lam, mu = ((p.alpha1, p.gamma1, p.lam1, p.mu1) if which == "w1"
                     else (p.beta2, p.gamma2, p.lam2, p.mu2))
    gl = g + lam - a - mu
    top = qp(q**a, r) * qp(q, r) / (qp(q**g, r) * qp(q**lam, r))
    mid = qp(q**gl, r - i) / qp(q, r - i) * qp(q**mu, i) / qp(q, i)
    phi = rphis([q ** (lam - a), q ** (g - a), q ** float(i - r)], [q**gl, q ** float(1 - r - a)],
                q ** float(1 - i - mu), QContext(q=q)).value
    return top * mid * phi * q ** ((r - i) * mu)


def fk_discrete_spec(v, q, c, cp, cpp, h, hp, hpp):
    return Phi3Spec(
        bp=(q ** v["alpha2"],), bpp=(q ** v["beta1"],), c=c, cp=cp, cpp=cpp,
        h=(q ** v[h], v["delta1"]), hp=(q ** v[hp], v["delta2"]), hpp=(q ** v[hpp], v["delta3"]),
    )


def old_fk_discrete_rhs(v, q):
    """The right-hand side as one phi3 per (i, j, k), weighted and added."""
    r, s_, t = (int(v[k]) for k in "rst")
    p = q_cases._fk_discrete_params(v)
    ctx = QContext(q=q)
    total = 0.0
    for i in range(r + 1):
        for j in range(s_ + 1):
            for k in range(t + 1):
                spec = fk_discrete_spec(
                    v, q, (q ** v["lam1"], q ** float(-i)), (q ** v["lam2"], q ** float(-j)),
                    (q ** float(-k),), "mu1", "mu2", "mu3",
                )
                w = (old_discrete_weight("w1", i, r, p, q) * old_discrete_weight("w2", j, s_, p, q)
                     * old_discrete_weight("w3", k, t, p, q))
                total += w * phi3(spec, q, q, q, ctx).value
    return total


def mp_qp(base, n, q):
    """(base; q)_n in mpmath."""
    out = mpmath.mpf(1)
    for k in range(n):
        out *= 1 - base * q**k
    return out


def mp_fk_discrete_sum(v, q, upper, lower, weights):
    """Theorem 4.4's triple sum over the box in mpmath, every base taken
    exactly from the double the library forms, integer powers of q exact."""
    mq, f = mpmath.mpf(q), mpmath.mpf
    axes = []
    for j, u, lo, w in zip((1, 2, 3), (*upper, None), lower, weights):
        vec = []
        for m in range(len(w)):
            c = sum(wi * mp_qp(mq**-i, m, mq) for i, wi in enumerate(w))
            num = mp_qp(f(q ** v[u]), m, mq) if u else 1
            den = mp_qp(mq, m, mq) * mp_qp(f(q ** v[lo]), m, mq) * mp_qp(f(v[f"delta{j}"]), m, mq)
            vec.append(c * mq**m * num / den)
        axes.append(vec)
    X, Y, Z = axes
    a2, b1 = f(q ** v["alpha2"]), f(q ** v["beta1"])
    return sum(X[m] * Y[n] * Z[p] * mp_qp(a2, n + p, mq) * mp_qp(b1, m + p, mq)
               for m in range(len(X)) for n in range(len(Y)) for p in range(len(Z)))


def mp_discrete_weights(which, r, p, q):
    """The library's weights w(i, r), i = 0..r, in mpmath from the same doubles."""
    mq, f = mpmath.mpf(q), mpmath.mpf
    if which == "w3":
        a, g, lam, mu = 0.5, p.gamma3, 0.5, p.mu3
    else:
        a, g, lam, mu = ((p.alpha1, p.gamma1, p.lam1, p.mu1) if which == "w1"
                         else (p.beta2, p.gamma2, p.lam2, p.mu2))
    gl = f(q ** (g - mu + (lam - a)))
    out = []
    for i in range(r + 1):
        phi = 1 if which == "w3" else sum(
            mp_qp(f(q ** (lam - a)), l, mq) * mp_qp(f(q ** (g - a)), l, mq) * mp_qp(mq ** (i - r), l, mq)
            / (mp_qp(mq, l, mq) * mp_qp(gl, l, mq) * mp_qp(f(q ** (1 - r - a)), l, mq))
            * f(q ** (1 - i - mu)) ** l
            for l in range(r - i + 1)
        )
        top = mp_qp(f(q**a), r, mq) * mp_qp(mq, r, mq) / (mp_qp(f(q**g), r, mq) * mp_qp(f(q**lam), r, mq))
        mid = mp_qp(gl, r - i, mq) / mp_qp(mq, r - i, mq) * mp_qp(f(q**mu), i, mq) / mp_qp(mq, i, mq)
        out.append(top * mid * phi * f(q ** ((r - i) * mu)))
    return out


class TestFkDiscreteSum:
    """Both sides of Theorem 4.4 as one weighted triple sum in long double."""

    @pytest.mark.parametrize("q", [0.5, 0.7])
    def test_lhs_matches_phi3(self, q):
        s = EvalSettings(q=q)
        for v in fk_discrete_points():
            r, s_, t = (int(v[k]) for k in "rst")
            spec = fk_discrete_spec(
                v, q, (q ** v["alpha1"], q ** float(-r)), (q ** v["beta2"], q ** float(-s_)),
                (q ** float(-t),), "gamma1", "gamma2", "gamma3",
            )
            want = phi3(spec, q, q, q, s.qctx).value
            got = q_cases._lhs_fk_discrete(ParameterPoint(values=v, arguments={}), s)
            assert abs(got - want) <= 1e-12 * (1 + abs(want))

    @pytest.mark.parametrize("q", [0.5, 0.7])
    def test_rhs_matches_per_index_phi3_loop(self, q):
        s = EvalSettings(q=q)
        for v in fk_discrete_points():
            want = old_fk_discrete_rhs(v, q)
            got = q_cases._rhs_fk_discrete(ParameterPoint(values=v, arguments={}), s)
            assert abs(got - want) <= 1e-12 * (1 + abs(want))

    # Long double must carry more than double's 53 bits for this bound: it
    # does on x86 Linux (64 bits), not where it is plain double.
    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18, reason="np.longdouble is plain double")
    def test_both_sides_match_mpmath_at_q02(self):
        q = 0.2
        s = EvalSettings(q=q)
        with mpmath.workdps(40):
            for v in fk_discrete_points():
                pt = ParameterPoint(values=v, arguments={})
                rst = [int(v[k]) for k in "rst"]
                units = [[0] * k + [1] for k in rst]
                lhs = mp_fk_discrete_sum(v, q, ("alpha1", "beta2"), ("gamma1", "gamma2", "gamma3"), units)
                p = q_cases._fk_discrete_params(v)
                weights = [mp_discrete_weights(w, k, p, q) for w, k in zip(("w1", "w2", "w3"), rst)]
                rhs = mp_fk_discrete_sum(v, q, ("lam1", "lam2"), ("mu1", "mu2", "mu3"), weights)
                assert abs(q_cases._lhs_fk_discrete(pt, s) - complex(lhs)) <= 1e-14 * (1 + abs(lhs))
                assert abs(q_cases._rhs_fk_discrete(pt, s) - complex(rhs)) <= 1e-14 * (1 + abs(rhs))

    def test_verdict_at_q02_passes_every_point(self):
        res = verify_identity(registry_lookup("fk-discrete"), seed=42, settings=EvalSettings(q=0.2))
        assert res.samples == 10
        assert res.passed, res.failures


class TestGasperDiscrete:
    ARGS = dict(alpha=0.3, beta=0.7, gamma_=0.25, delta=0.4, lam=0.6, mu=0.8, nu=0.65)

    def test_n_zero(self, ctx05):
        rhs = gasper_discrete_3phi2(**self.ARGS, n=0, ctx=ctx05)
        assert rhs == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("n", [-1, 2.0])
    def test_rejects_bad_n(self, n, ctx05):
        with pytest.raises(DomainError):
            gasper_discrete_3phi2(**self.ARGS, n=n, ctx=ctx05)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_identity(self, n, ctx05):
        q = ctx05.q
        lhs = complex(rphis([self.ARGS["alpha"], self.ARGS["beta"], q ** float(-n)],
                            [self.ARGS["gamma_"], self.ARGS["delta"]], q, ctx05).value)
        rhs = gasper_discrete_3phi2(**self.ARGS, n=n, ctx=ctx05)
        assert abs(lhs - rhs) < 1e-13 * (1 + abs(lhs))

    def test_mu_equals_lam_collapse(self, ctx05):
        # With mu = lam the inner 3phi2 has upper base 1 and collapses to its
        # leading term; the identity must still be exact.
        q = ctx05.q
        args = dict(self.ARGS)
        args["mu"] = args["lam"]
        n = 2
        lhs = complex(rphis([args["alpha"], args["beta"], q ** float(-n)],
                            [args["gamma_"], args["delta"]], q, ctx05).value)
        rhs = gasper_discrete_3phi2(**args, n=n, ctx=ctx05)
        assert abs(lhs - rhs) < 1e-13 * (1 + abs(lhs))


def _long_double_tables(bases, n, q, shift=0):
    """The long-double (b q^shift; q)_k tables as the discrete sums formed them
    before core._q_tables: bases cast to long double first."""
    powers = np.longdouble(q) ** (np.arange(n) + np.asarray(shift)[..., None])
    f = 1 - np.asarray(bases, np.longdouble)[..., None] * powers
    out = np.ones(f.shape[:-1] + (n + 1,), np.longdouble)
    np.cumprod(f, axis=-1, out=out[..., 1:])
    return out


class TestQTables:
    """core._q_tables, the one broadcasting (a;q)_k table, equals the scalar
    tables bit for bit in float64 and the long-double tables in long double."""

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.7])
    @pytest.mark.parametrize("bases", [
        [0.3, 0.7, 1.9, -0.4],
        [0.3 + 0.2j, 0.5 - 0.1j, 1.2 + 0.7j],
        [0.3 + 0j, 0.7 + 0j, 1.9 + 0j],
    ], ids=["real", "complex", "complex-zero-imag"])
    def test_scalar_rows(self, bases, q):
        got = _q_tables(bases, 12, q)
        want = np.stack([q_pochhammer_table(b, 12, q) for b in bases])
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.7])
    def test_long_double(self, q):
        bases = [q, q**0.3, q**1.7, 0.45, q**-0.6]
        got = _q_tables(bases, 9, np.longdouble(q))
        assert got.dtype == np.longdouble
        # Equal values are equal bits here; tobytes would also compare the
        # padding bytes of the 80-bit format.
        assert np.array_equal(got, _long_double_tables(bases, 9, q))
        i = np.arange(6)
        shifted = _q_tables(1.0, 5, np.longdouble(q), i - 5)
        assert np.array_equal(shifted, _long_double_tables(1.0, 5, q, i - 5))
        # base 1 with shift -i is (q^-i; q): exactly zero past k = i
        for row, k in zip(shifted, 5 - i):
            assert np.all(row[k + 1 :] == 0) and np.all(row[: k + 1] != 0)

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.7])
    def test_terminating_base_has_exact_zeros(self, q):
        # (q^-5; q)_k vanishes past k = 5; the cumulative product alone
        # leaves rounding residue there.
        got = _q_tables([q**-5, 0.3], 12, q)
        want = np.stack([q_pochhammer_table(b, 12, q) for b in [q**-5, 0.3]])
        assert got.tobytes() == want.tobytes()
        assert np.all(got[0, 6:] == 0) and np.all(got[0, :6] != 0)


class TestLimitWeightsAreQMeasures:
    """The limit weights of Eqs. (4.6)-(4.8) are the lattice weights of the
    q-measures of Theorem 4.1: two implementations that share no code."""

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.7])
    def test_weights_agree(self, q):
        ctx = QContext(q=q)
        for pt in sample_parameters(registry_lookup("fk-discrete-limits"), 42, 5):
            v = pt.values
            p = DiscreteFkParams(**{f.name: v[f.name] for f in dataclasses.fields(DiscreteFkParams)})
            specs = {
                f"w{j}": QHypergeometricMeasure(
                    v[f"lam{j}"] - v[a], v[f"gamma{j}"] - v[a],
                    v[f"gamma{j}"] + v[f"lam{j}"] - v[a] - v[f"mu{j}"], v[f"mu{j}"], ctx,
                )
                for j, a in ((1, "alpha1"), (2, "beta2"))
            }
            specs["w3"] = QDirichletMeasure(v["mu3"], v["gamma3"] - v["mu3"], ctx)
            for which, spec in specs.items():
                t, w = q_measure_rule(spec)
                assert np.array_equal(t, q ** np.arange(len(w), dtype=np.float64))
                lim = discrete_weight_limit(which, np.arange(len(w)), p, ctx)
                assert np.max(np.abs(lim - w)) <= 1e-14, which
