import math
import warnings

import mpmath
import numpy as np
import pytest

from saranfk import (
    CoeffSequence2D,
    ConvergenceError,
    DomainError,
    EvalSettings,
    FkParams,
    Phi3Spec,
    PoleError,
    QContext,
    QfkShiftParams,
    appell_f2,
    convolve2d,
    delta_sequence,
    fk_L,
    fk_diagonal_sequence,
    gauss_2f1,
    generic_f_a,
    geometric_sequence,
    hyper_pfq,
    in_domain_fk,
    phi3,
    phi_k_q,
    qshift_operator_kernel,
    registry_lookup,
    rphis,
    sample_parameters,
    saran_fk_reexpand,
    saran_fk_triple,
)
from saranfk import series
from saranfk.core import pochhammer
from saranfk.series import _grow, _scaled_prods, _shell_rate, _shifted_2f1


def brute_2f1(a, b, c, z, n_terms):
    total, term = 0.0, 1.0
    for n in range(n_terms):
        total += term
        term *= (a + n) * (b + n) / ((c + n) * (1.0 + n)) * z
    return total


def brute_pfq(up, lo, z, n_terms):
    total, term = 0.0, 1.0
    for n in range(n_terms):
        total += term
        num = 1.0
        for u in up:
            num *= u + n
        den = 1.0 + n
        for b in lo:
            den *= b + n
        term *= num / den * z
    return total


def brute_f2(a, b1, b2, c1, c2, y, z, box):
    total = 0.0
    rm = 1.0
    for m in range(box):
        term = rm
        for n in range(box):
            total += term
            term *= (a + m + n) * (b2 + n) / ((c2 + n) * (1.0 + n)) * z
        rm *= (a + m) * (b1 + m) / ((c1 + m) * (1.0 + m)) * y
    return total


def brute_fk(p: FkParams, x, y, z, box):
    total = 0.0
    for m in range(box):
        for n in range(box):
            for k in range(box):
                co = (
                    pochhammer(p.alpha1, m)
                    * pochhammer(p.alpha2, n + k)
                    * pochhammer(p.beta1, m + k)
                    * pochhammer(p.beta2, n)
                )
                co /= (
                    pochhammer(p.gamma1, m)
                    * pochhammer(p.gamma2, n)
                    * pochhammer(p.gamma3, k)
                    * math.factorial(m)
                    * math.factorial(n)
                    * math.factorial(k)
                )
                total += co * x**m * y**n * z**k
    return total


class TestGauss2F1:
    def test_argument_zero(self):
        assert gauss_2f1(0.3, 0.9, 1.7, 0.0).value == pytest.approx(1.0)

    def test_log_closed_form(self):
        # 2F1(1,1;2;z) = -log(1-z)/z; brute series oracle at 200 terms.
        oracle = brute_2f1(1, 1, 2, 0.5, 200)
        got = gauss_2f1(1, 1, 2, 0.5).value
        assert got == pytest.approx(2 * math.log(2), rel=1e-11)
        assert got == pytest.approx(oracle, rel=1e-11)

    def test_pfaff_self_consistency(self):
        a, b, c, z = 0.7, 1.3, 2.1, 0.45
        lhs = gauss_2f1(a, b, c, z).value
        rhs = (1 - z) ** (-a) * gauss_2f1(a, c - b, c, z / (z - 1)).value
        assert abs(lhs - rhs) < 1e-11 * (1 + abs(lhs))

    def test_near_one_route(self):
        # Compare the z -> 1-z expansion against a long direct sum.
        a, b, c, z = 0.5, 0.6, 2.0, 0.97
        oracle = brute_2f1(a, b, c, z, 2000)
        assert gauss_2f1(a, b, c, z).value == pytest.approx(oracle, rel=1e-10)

    def test_near_one_real_inputs_give_float(self):
        # The connection route's log-gamma prefactors leave rounding noise in
        # an imaginary part; real parameters and 0 < z < 1 must drop it.
        a, b, c, z = 0.5, 0.7, 1.9, 0.95
        got = gauss_2f1(a, b, c, z).value
        assert isinstance(got, float)
        assert got == pytest.approx(brute_2f1(a, b, c, z, 2000), rel=1e-10)

    def test_terminating_outside_disc(self):
        got = gauss_2f1(-3, 0.6, 2.0, 5.0).value
        oracle = brute_2f1(-3.0, 0.6, 2.0, 5.0, 4)
        assert got == pytest.approx(oracle, rel=1e-13)

    def test_pole_error(self):
        with pytest.raises(PoleError):
            gauss_2f1(0.5, 0.5, -2, 0.3)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            gauss_2f1(0.5, 0.5, 1.5, 1.6)

    @pytest.mark.parametrize(
        "a, b, c, z", [(0.7, 0.6, 1.3, 0.99), (0.5, 0.5, 1.0, 0.985), (1.2, 0.8, 2.0, 0.975)]
    )
    def test_integer_c_minus_a_minus_b_near_one(self, a, b, c, z):
        # The connection route is refused and the direct series falls like
        # z^n / n; its estimate must still bound the error.
        r = gauss_2f1(a, b, c, z)
        with mpmath.workdps(30):
            oracle = mpmath.hyp2f1(a, b, c, z)
        assert r.converged
        assert abs(r.value - oracle) <= r.est_trunc_error * (1 + abs(r.value))

    @pytest.mark.parametrize(
        "a, b, c, z",
        [
            (0.7, 0.6, 1.9, 0.99),  # the connection formula's rounding
            (0.5, 3.0, 18.52, 0.91),  # a lower parameter near -14: terms jump at n = 14
            (0.7, 0.5, 1.2001, 0.97),  # c - a - b near 0: the two parts cancel
            (2.5, 2.5, 1.0, 0.995),  # c - a - b = -4: direct terms fall like n^3 z^n
        ],
    )
    def test_near_one_estimate_bounds_error(self, a, b, c, z):
        r = gauss_2f1(a, b, c, z)
        with mpmath.workdps(30):
            oracle = mpmath.hyp2f1(a, b, c, z)
        assert r.converged
        assert abs(r.value - oracle) <= r.est_trunc_error * (1 + abs(r.value))

    def test_halving_tol_stays_within_estimate(self):
        for z in (0.3, 0.62, 0.88):
            r1 = gauss_2f1(0.8, 1.1, 1.9, z, tol=1e-8)
            r2 = gauss_2f1(0.8, 1.1, 1.9, z, tol=5e-9)
            allowed = r1.est_trunc_error * (1 + abs(complex(r1.value)))
            assert abs(complex(r1.value) - complex(r2.value)) <= allowed


class TestChebyshevProxy:
    """A real argument array of series._PROXY_MIN elements or more is summed
    from a Chebyshev proxy; the direct route is _eval_2f1 with it disabled."""

    @staticmethod
    def direct(monkeypatch, *args):
        with monkeypatch.context() as m:
            m.setattr(series, "_PROXY_MIN", math.inf)
            return series._eval_2f1(*args)

    @pytest.mark.parametrize("case_id", ["f2-curious", "manocha-reduced"])
    def test_seed42_grids_within_estimate(self, case_id, monkeypatch):
        # The reference is 30-digit mpmath at every 41st grid point, not the
        # direct route, whose own error can exceed the proxy's estimate.
        proxy, calls = series._proxy_2f1, []
        monkeypatch.setattr(series, "_proxy_2f1", lambda *args: calls.append(args) or proxy(*args))
        case = registry_lookup(case_id)
        for pt in sample_parameters(case, 42, case.default_samples):
            case.rhs(pt, EvalSettings.default())
        assert len(calls) == 2 * case.default_samples  # both 2F1 factors
        for a, b, c, z, tol, max_terms in calls:
            value, _, converged, est = proxy(a, b, c, z, tol, max_terms)
            with mpmath.workdps(30):
                want = np.array([float(mpmath.hyp2f1(a, b, c, float(x))) for x in np.ravel(z)[::41]])
            assert converged and est <= tol
            assert np.max(np.abs(np.ravel(value)[::41] - want)) <= est * (1.0 + np.max(np.abs(want)))

    @pytest.mark.parametrize("a, b, c", [(0.7, 1.3, 2.4), (0.5, 0.6, 2.0), (1.5, 0.5, 1.2)])
    @pytest.mark.parametrize("top", [0.97, 0.999])
    def test_interval_near_one(self, a, b, c, top, monkeypatch):
        # Either the proxy resolves the interval and stays within its
        # estimate, or the array falls back to the direct route's bits.
        z = np.linspace(0.5, top, 300)
        value, _, converged, est = series._eval_2f1(a, b, c, z, 1e-12)
        if series._proxy_2f1(a, b, c, z, 1e-12, 250_000) is None:
            want = self.direct(monkeypatch, a, b, c, z, 1e-12)
            assert np.array_equal(value, want[0]) and (converged, est) == want[2:]
            return
        with mpmath.workdps(30):
            want = np.array([float(mpmath.hyp2f1(a, b, c, x)) for x in z[::15]])
        assert converged
        assert np.max(np.abs(value[::15] - want)) <= est * (1.0 + np.max(np.abs(value)))

    def test_size_threshold(self, monkeypatch):
        z = np.linspace(-3.5, 0.85, 256)
        small = series._eval_2f1(0.7, 1.3, 2.4, z[:255], 1e-12)
        want = self.direct(monkeypatch, 0.7, 1.3, 2.4, z[:255], 1e-12)
        assert np.array_equal(small[0], want[0]) and small[1:] == want[1:]
        calls = []
        monkeypatch.setattr(series, "_proxy_2f1", lambda *args: calls.append(args))
        series._eval_2f1(0.7, 1.3, 2.4, z, 1e-12)
        assert len(calls) == 1

    def test_past_one_keeps_domain_error(self):
        with pytest.raises(DomainError):
            series._eval_2f1(0.5, 0.5, 1.5, np.linspace(0.5, 1.6, 300), 1e-12)


class TestHyperPfq:
    def test_argument_zero(self):
        assert hyper_pfq([0.3, 0.9], [1.7], 0.0).value == pytest.approx(1.0)

    def test_reduces_to_2f1(self):
        got = hyper_pfq([0.4, 1.2], [1.9], 0.37).value
        want = gauss_2f1(0.4, 1.2, 1.9, 0.37).value
        assert got == pytest.approx(want, rel=1e-12)

    def test_3f2_brute(self):
        up, lo, z = [0.4, 0.9, 1.3], [1.7, 0.8], 0.3
        assert hyper_pfq(up, lo, z).value == pytest.approx(brute_pfq(up, lo, z, 300), rel=1e-12)

    def test_pole(self):
        with pytest.raises(PoleError):
            hyper_pfq([0.5], [-1.0], 0.2)

    def test_estimate_bounds_error_near_one(self):
        # Terms fall like 0.995^n / n^2; the margin is 1 - |z|, not 0.03.
        r = hyper_pfq([1, 1, 1], [2, 2], 0.995)
        with mpmath.workdps(30):
            oracle = mpmath.hyper([1, 1, 1], [2, 2], 0.995)
        assert r.converged
        assert abs(r.value - oracle) <= r.est_trunc_error * (1 + abs(r.value))

    def test_divergent(self):
        with pytest.raises(DomainError):
            hyper_pfq([0.5, 0.6, 0.7], [0.8], 0.5)


class TestAppellF2:
    def test_origin(self):
        assert appell_f2(1, 1, 1, 2, 2, 0, 0).value == pytest.approx(1.0)

    def test_brute_force(self):
        got = appell_f2(0.5, 0.5, 0.5, 1.5, 1.5, 0.25, 0.25).value
        oracle = brute_f2(0.5, 0.5, 0.5, 1.5, 1.5, 0.25, 0.25, 90)
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_degenerate_reduction(self):
        # F2 with matching b' and c2 collapses to a one-variable function.
        a, b, bp, c = 0.7, 0.4, 1.1, 1.9
        y, z = 0.2, 0.3
        lhs = appell_f2(a, b, bp, c, bp, y, z).value
        rhs = (1 - z) ** (-a) * gauss_2f1(a, b, c, y / (1 - z)).value
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))

    def test_domain(self):
        with pytest.raises(DomainError):
            appell_f2(0.5, 0.5, 0.5, 1.5, 1.5, 0.6, 0.5)


class TestDomainFk:
    def test_origin(self):
        assert in_domain_fk(0, 0, 0)

    def test_boundary_strict(self):
        assert not in_domain_fk(0.5, 0.5, 0.25)

    def test_interior(self):
        assert in_domain_fk(0.2, 0.1, 0.3)


class TestSaranFk:
    def test_origin(self):
        p = FkParams(0.5, 0.5, 0.5, 0.5, 1.5, 1.5, 1.5)
        assert saran_fk_triple(p, 0, 0, 0).value == pytest.approx(1.0)
        assert saran_fk_reexpand(p, 0, 0, 0).value == pytest.approx(1.0)

    def test_z_zero_product(self):
        p = FkParams(0.5, 0.5, 0.5, 0.5, 1.5, 1.5, 1.5)
        got = saran_fk_triple(p, 0.2, 0.1, 0.0).value
        want = gauss_2f1(0.5, 0.5, 1.5, 0.2).value * gauss_2f1(0.5, 0.5, 1.5, 0.1).value
        assert got == pytest.approx(want, rel=1e-12)

    def test_cross_form(self):
        p = FkParams(0.5, 0.5, 0.5, 0.5, 1.5, 1.5, 1.5)
        t = saran_fk_triple(p, 0.2, 0.1, 0.3).value
        r = saran_fk_reexpand(p, 0.2, 0.1, 0.3).value
        assert abs(complex(t) - complex(r)) < 1e-10 * (1 + abs(complex(t)))

    def test_brute_force(self):
        p = FkParams(0.7, 0.9, 1.1, 0.6, 1.8, 2.0, 1.4)
        got = saran_fk_triple(p, 0.15, 0.12, 0.1).value
        oracle = brute_fk(p, 0.15, 0.12, 0.1, 22)
        assert got == pytest.approx(oracle, rel=1e-11)

    def test_symmetry_swap(self):
        # Exchanging (x, a1, b1, g1) with (y, b2, a2, g2) leaves F_K fixed.
        p = FkParams(0.7, 0.9, 1.1, 0.6, 1.8, 2.0, 1.4)
        swapped = FkParams(0.6, 1.1, 0.9, 0.7, 2.0, 1.8, 1.4)
        a = saran_fk_triple(p, 0.25, 0.15, 0.2).value
        b = saran_fk_triple(swapped, 0.15, 0.25, 0.2).value
        assert a == pytest.approx(b, rel=1e-11)

    def test_x_zero_reduces_to_f2(self):
        p = FkParams(0.7, 0.9, 1.1, 0.6, 1.8, 2.0, 1.4)
        got = saran_fk_reexpand(p, 0.0, 0.3, 0.25).value
        want = appell_f2(0.9, 0.6, 1.1, 2.0, 1.4, 0.3, 0.25).value
        assert got == pytest.approx(want, rel=1e-11)

    def test_domain_error(self):
        p = FkParams(0.5, 0.5, 0.5, 0.5, 1.5, 1.5, 1.5)
        with pytest.raises(DomainError):
            saran_fk_triple(p, 0.5, 0.5, 0.3)

    def test_pole_parameters(self):
        with pytest.raises(PoleError):
            FkParams(0.5, 0.5, 0.5, 0.5, -1.0, 1.5, 1.5)

    def test_near_boundary_point(self):
        # z is 0.944 of its bound (1 - x)(1 - y): the x axis decays like
        # 0.986^m, and 2F1 families of the shifted re-expansion overflow.
        # Oracle: mpmath at 40 digits, re-expansion summed to 831 terms.
        p = FkParams(0.7, 0.9, 0.6, 0.8, 1.3, 1.5, 1.7)
        r = saran_fk_reexpand(p, 0.8, 0.1, 0.17)
        v = complex(r.value)
        assert r.converged
        assert abs(v - 2.126761526122036) <= r.est_trunc_error * (1 + abs(v))
        assert r.est_trunc_error <= 1e-12

    def test_triple_near_boundary_point_without_overflow(self):
        # C(n+p, n) past the summed shells overflowed here and warned.
        p = FkParams(0.7, 0.9, 0.6, 0.8, 1.3, 1.5, 1.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = saran_fk_triple(p, 0.8, 0.1, 0.17)
        v = complex(r.value)
        assert abs(v - 2.126761526122036) <= r.est_trunc_error * (1 + abs(v))


def plane_loop_shells(p, x, y, z, N):
    """Shells s < N of the F_K triple series, summed one plane m at a time
    from the Pochhammer symbols of each term."""
    shells = np.zeros(N, dtype=complex)
    for m in range(N):
        for n in range(N - m):
            for k in range(N - m - n):
                num = pochhammer(p.alpha1, m) * pochhammer(p.alpha2, n + k)
                num *= pochhammer(p.beta1, m + k) * pochhammer(p.beta2, n)
                den = pochhammer(p.gamma1, m) * pochhammer(p.gamma2, n) * pochhammer(p.gamma3, k)
                den *= math.factorial(m) * math.factorial(n) * math.factorial(k)
                shells[m + n + k] += num / den * x**m * y**n * z**k
    return shells


class TestSaranFkTripleShells:
    """The FFT shells of saran_fk_triple against a plane loop, through the
    block function it hands to _grow, at a fixed small N."""

    @pytest.mark.parametrize(
        "params, args",
        [
            ((0.7, 0.9, 1.1, 0.6, 1.8, 2.0, 1.4), (0.3, 0.2, 0.35)),
            ((0.7, 0.9, 1.1, 0.6, 1.8, 2.0, 1.4), (-0.4, 0.3, -0.2)),
            ((0.7 + 0.2j, 0.9, 1.1 - 0.3j, 0.6, 1.8, 2.0 + 0.1j, 1.4), (0.3j, 0.2, 0.3 - 0.1j)),
        ],
        ids=["real", "mixed-sign", "complex"],
    )
    def test_build_matches_plane_loop(self, monkeypatch, params, args):
        builds = []

        def grow(build, sizes, caps, tol):
            builds.append(build)
            return _grow(build, sizes, caps, tol)

        monkeypatch.setattr(series, "_grow", grow)
        p = FkParams(*params)
        saran_fk_triple(p, *args)
        N = 14
        total, tails, _, terms = builds[0]([N])
        shells = plane_loop_shells(p, *(complex(v) for v in args), N)
        rate = _shell_rate(shells, 0.0)
        corr = shells[-1] * rate / (1.0 - rate)
        assert terms == N * (N + 1) * (N + 2) // 6
        assert abs(complex(total) - (shells.sum() + corr)) <= 1e-14 * (1 + abs(shells.sum()))
        assert tails[0] == pytest.approx(abs(shells[-1]) + abs(corr), rel=1e-10, abs=1e-15)

    def test_terms_count_the_simplex(self):
        # One build at N = 73 (from the domain ratio 0.3 / 0.72): C(75, 3)
        # terms, not the 132349 of the square planes.
        r = saran_fk_triple(FkParams(0.7, 0.9, 1.1, 0.6, 1.8, 2.0, 1.4), 0.2, 0.1, 0.3)
        assert r.converged
        assert r.terms_used == 73 * 74 * 75 // 6


class TestShiftedFamily:
    @pytest.mark.parametrize("a, b, c", [(0.7, 0.9, 1.6), (1.1, -0.4, 2.3)])
    def test_against_mpmath(self, a, b, c):
        zs = np.array([0.3, 0.45, 0.8, -0.5])
        F = _shifted_2f1(a, b, c, zs, 141, 1e-15)
        assert F.shape == (141, 4)
        with mpmath.workdps(30):
            for k in range(141):
                for i, z in enumerate(zs):
                    want = float(mpmath.hyp2f1(a + k, b, c, z))
                    assert abs(F[k, i] - want) <= 1e-13 * (1 + abs(want))

    @pytest.mark.parametrize("z", [0.3, 0.3 + 0.2j])
    def test_scalar_argument(self, z):
        F = _shifted_2f1(0.7, 0.9, 1.6, z, 40, 1e-15)
        assert F.shape == (40,)
        with mpmath.workdps(30):
            for k in range(40):
                want = complex(mpmath.hyp2f1(0.7 + k, 0.9, 1.6, z))
                assert abs(F[k] - want) <= 1e-13 * (1 + abs(want))

    @pytest.mark.parametrize("a, b, c", [(0.7, 0.9, 1.6), (0.7, -0.4, 1.6), (0.7 + 0.3j, 0.9, 1.6)])
    def test_complex_argument(self, a, b, c):
        zs = np.array([0.3 + 0.2j, -0.5 + 0.5j, 0.6j, 0.85 + 0.1j, -0.3 - 0.45j])
        F = _shifted_2f1(a, b, c, zs, 141, 1e-15)
        assert F.shape == (141, 5)
        with mpmath.workdps(30):
            for k in range(141):
                for i, z in enumerate(zs):
                    want = complex(mpmath.hyp2f1(a + k, b, c, z))
                    assert abs(F[k, i] - want) <= 1e-13 * (1 + abs(want))

    def test_family_through_zero_first_parameter(self):
        # a + 3 = 0: the recurrence step there is singular, and the
        # family goes on from a seeded F[4].
        zs = np.array([0.3, -0.5])
        F = _shifted_2f1(-3.0, 0.9, 1.6, zs, 12, 1e-15)
        with mpmath.workdps(30):
            for k in range(12):
                for i, z in enumerate(zs):
                    want = float(mpmath.hyp2f1(-3.0 + k, 0.9, 1.6, z))
                    assert abs(F[k, i] - want) <= 1e-13 * (1 + abs(want))


class TestFkL:
    def test_all_zero(self):
        r = fk_L(0.5, 0.8, [1.0, 1.2], [1.5, 1.1, 1.3], [0, 0, 0])
        assert r.value == pytest.approx(1.0)

    def test_l3_matches_saran(self):
        p = FkParams(0.7, 0.9, 1.1, 0.6, 1.8, 2.0, 1.4)
        x, y, z = 0.2, 0.1, 0.3
        want = saran_fk_triple(p, x, y, z).value
        # Chain order (z1, z2, z3) corresponds to Saran's (x, z, y).
        got = fk_L(0.7, 0.6, [1.1, 0.9], [1.8, 1.4, 2.0], [x, z, y]).value
        assert got == pytest.approx(want, rel=1e-11)

    def test_l4_degenerate_product(self):
        got = fk_L(0.5, 0.8, [1.0, 1.2, 0.9], [1.5, 1.1, 1.3, 1.7], [0.3, 0, 0, 0.4]).value
        want = gauss_2f1(0.5, 1.0, 1.5, 0.3).value * gauss_2f1(0.8, 0.9, 1.7, 0.4).value
        assert got == pytest.approx(want, rel=1e-11)

    def test_l4_brute(self):
        from functools import lru_cache

        pochhammer = lru_cache(maxsize=None)(
            lambda a, n: math.prod(a + j for j in range(n))
        )
        zs = [0.25, 0.2, 0.15, 0.3]
        b = [1.0, 1.2, 0.9]
        c = [1.5, 1.1, 1.3, 1.7]
        total = 0.0
        for n1 in range(18):
            for n2 in range(18):
                for n3 in range(18):
                    for n4 in range(18):
                        co = (
                            pochhammer(0.5, n1) * pochhammer(b[0], n1 + n2)
                            * pochhammer(b[1], n2 + n3) * pochhammer(b[2], n3 + n4)
                            * pochhammer(0.8, n4)
                        )
                        co /= (
                            pochhammer(c[0], n1) * pochhammer(c[1], n2)
                            * pochhammer(c[2], n3) * pochhammer(c[3], n4)
                        )
                        co /= (
                            math.factorial(n1) * math.factorial(n2)
                            * math.factorial(n3) * math.factorial(n4)
                        )
                        total += co * zs[0] ** n1 * zs[1] ** n2 * zs[2] ** n3 * zs[3] ** n4
        got = fk_L(0.5, 0.8, b, c, zs).value
        assert got == pytest.approx(total, rel=1e-7)

    def test_l5_conservative_domain(self):
        r = fk_L(0.5, 0.8, [1.0, 1.2, 0.9, 0.7], [1.5, 1.1, 1.3, 1.7, 1.2], [0.08] * 5)
        assert r.converged
        with pytest.raises(DomainError):
            fk_L(0.5, 0.8, [1.0, 1.2, 0.9, 0.7], [1.5, 1.1, 1.3, 1.7, 1.2], [0.12] * 5)

    def test_unsupported_length(self):
        with pytest.raises(DomainError):
            fk_L(0.5, 0.8, [1.0], [1.5, 1.1], [0.1, 0.1])


class TestConvolutionFamily:
    def test_delta_gives_product(self):
        got = generic_f_a(delta_sequence(), 0.5, 0.7, 1.5, 0.8, 0.9, 1.7, 0.3, 0.2, 0.1, 0.15).value
        want = gauss_2f1(0.5, 0.7, 1.5, 0.3).value * gauss_2f1(0.8, 0.9, 1.7, 0.2).value
        assert got == pytest.approx(want, rel=1e-11)

    def test_diagonal_gives_fk(self):
        a1p, a2p, g3 = 0.5, 0.8, 1.4
        seq = fk_diagonal_sequence(a1p, a2p, g3)
        x1, x2, x3, x4 = 0.3, 0.2, 0.25, 0.3
        got = generic_f_a(seq, a1p, 0.7, 1.5, a2p, 0.9, 1.7, x1, x2, x3, x4).value
        pk = FkParams(alpha1=0.7, alpha2=a2p, beta1=a1p, beta2=0.9,
                      gamma1=1.5, gamma2=1.7, gamma3=g3)
        want = saran_fk_triple(pk, x1, x2, x3 * x4).value
        assert got == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize(
        "seq, x1, x2, x3, x4",
        [
            (None, 0.3, 0.2, 0.1, 0.15),
            (0.3, 0.3, 0.2, 0.2, 0.15),
            (0.3, 0.3 + 0.2j, -0.2 + 0.1j, 0.2, 0.15),
        ],
    )
    def test_estimate_covers_rounding(self, seq, x1, x2, x3, x4):
        # Against 30-digit sums: the delta sequence is a product of two 2F1,
        # the geometric one r^(m+n) a product of two single sums.
        a = delta_sequence() if seq is None else geometric_sequence(seq)
        r = generic_f_a(a, 0.5, 0.7, 1.5, 0.8, 0.9, 1.7, x1, x2, x3, x4)
        assert r.converged
        with mpmath.workdps(30):
            def family_sum(alpha, beta, gamma, x, w):
                if seq is None:
                    return mpmath.hyp2f1(alpha, beta, gamma, x)
                return mpmath.fsum((seq * w) ** k * mpmath.hyp2f1(alpha + k, beta, gamma, x) for k in range(80))

            want = complex(family_sum(0.5, 0.7, 1.5, x1, x3) * family_sum(0.8, 0.9, 1.7, x2, x4))
        assert abs(complex(r.value) - want) <= r.est_trunc_error * (1 + abs(want))

    def test_first_parameter_through_zero(self):
        got = generic_f_a(delta_sequence(), -2.0, 0.7, 1.5, -1.0, 0.9, 1.7, 0.3, 0.2, 0.1, 0.15).value
        want = gauss_2f1(-2.0, 0.7, 1.5, 0.3).value * gauss_2f1(-1.0, 0.9, 1.7, 0.2).value
        assert got == pytest.approx(want, rel=1e-13)

    def test_convolution_identity_element(self):
        seq = geometric_sequence(0.3)
        conv = convolve2d(seq, delta_sequence())
        for m, n in [(0, 0), (3, 5), (8, 2)]:
            assert conv(m, n) == pytest.approx(seq(m, n), rel=1e-13)

    def test_convolution_commutes(self):
        a = geometric_sequence(0.3)
        b = geometric_sequence(0.2)
        ab, ba = convolve2d(a, b), convolve2d(b, a)
        for m, n in [(10, 10), (5, 3)]:
            assert ab(m, n) == pytest.approx(ba(m, n), rel=1e-12)

    def test_ones_count(self):
        ones = CoeffSequence2D(lambda m, n: 1.0, 1.0)
        conv = convolve2d(ones, ones)
        assert conv(3, 4) == pytest.approx(20.0)

    def test_convolution_brute(self):
        a = geometric_sequence(0.3)
        b = fk_diagonal_sequence(0.5, 0.8, 1.4)
        conv = convolve2d(a, b)
        for m in range(0, 9, 4):
            for n in range(0, 9, 4):
                brute = sum(
                    complex(a(m - i, n - j)) * complex(b(i, j))
                    for i in range(m + 1)
                    for j in range(n + 1)
                )
                assert complex(conv(m, n)) == pytest.approx(brute, rel=1e-12)

    def test_fft_table_matches_direct_sum(self):
        # A size the fa-erdelyi sampler reaches; the FFT error is absolute.
        a = fk_diagonal_sequence(0.5, 0.8, 1.4)
        b = geometric_sequence(0.3)
        M = N = 150
        ta, tb = a.table(M, N), b.table(M, N)
        direct = np.zeros((M + 1, N + 1))
        for i, j in zip(*np.nonzero(ta)):
            direct[i:, j:] += ta[i, j] * tb[: M + 1 - i, : N + 1 - j]
        got = convolve2d(a, b).table(M, N)
        assert got.shape == direct.shape
        assert np.abs(got - direct).max() <= 1e-14 * np.abs(direct).max()

    def test_diagonal_past_probe_matches_rising_factorials(self):
        mpmath = pytest.importorskip("mpmath")
        a1, a2, g3 = 0.5, 0.8, 1.4
        t = fk_diagonal_sequence(a1, a2, g3).table(150, 150)
        for n in (0, 60, 61, 100, 150):
            want = mpmath.rf(a1, n) * mpmath.rf(a2, n) / (mpmath.rf(g3, n) * mpmath.factorial(n))
            assert t[n, n] == pytest.approx(float(want), rel=1e-12)
        assert np.count_nonzero(t) == 151

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            generic_f_a(delta_sequence(), 0.5, 0.7, 1.5, 0.8, 0.9, 1.7, 1.1, 0.2, 0.1, 0.1)
        fat = CoeffSequence2D(lambda m, n: 2.0 ** (m + n), 2.0)
        with pytest.raises(DomainError):
            generic_f_a(fat, 0.5, 0.7, 1.5, 0.8, 0.9, 1.7, 0.3, 0.2, 0.6, 0.1)


class TestConvergedImpliesEstimateWithinTol:
    def test_across_engines(self):
        p = FkParams(0.7, 0.9, 1.1, 0.6, 1.8, 2.0, 1.4)
        tol = 1e-10
        ctx = QContext(q=0.5)
        q = ctx.q
        spec = Phi3Spec(bp=(q**0.9,), bpp=(q**1.1,), c=(q**0.7,), cp=(q**0.6,),
                        h=(q**1.8,), hp=(q**2.0,), hpp=(q**1.4,))
        results = [
            gauss_2f1(0.8, 1.1, 1.9, 0.62, tol),
            hyper_pfq([0.4, 0.9, 1.3], [1.7, 0.8], 0.3, tol),
            appell_f2(0.5, 0.5, 0.5, 1.5, 1.5, 0.3, 0.35, tol),
            saran_fk_triple(p, 0.25, 0.2, 0.3, tol),
            saran_fk_reexpand(p, 0.25, 0.2, 0.3, tol),
            fk_L(0.5, 0.8, [1.0, 1.2, 0.9], [1.5, 1.1, 1.3, 1.7], [0.25, 0.2, 0.15, 0.3], tol),
            generic_f_a(geometric_sequence(0.3), 0.5, 0.7, 1.5, 0.8, 0.9, 1.7,
                        0.3, 0.2, 0.2, 0.2, tol),
            # An L = 3 chain whose first box is too small, so the box grows.
            fk_L(2.23, 0.61, [2.05, 1.79], [1.22, 1.52, 0.65], [0.2, 0.28, 0.14], tol),
            phi3(spec, 0.25, 0.2, 0.3, ctx, tol),
            rphis([q**0.4, q**0.9], [q**1.3], 0.3, ctx, tol),
            phi_k_q(p, 0.25, 0.2, 0.3, ctx, tol),
        ]
        for r in results:
            assert r.converged
            assert r.est_trunc_error <= tol


_TINY = 1e-18  # below the rounding floor of every double-precision sum
_FK = FkParams(0.7, 0.9, 1.1, 0.6, 1.8, 2.0, 1.4)
_CTX = QContext(q=0.5)
_SHIFT = QfkShiftParams(alpha1=0.8, alpha2=1.1, beta1=0.9, beta2=0.7, gamma3=1.5,
                        eta1=0.9, eta2=0.6, mu2=1.0, lam1=0.5, lam2=0.8, lam3=0.4)


@pytest.mark.parametrize("converged", [
    pytest.param(lambda: gauss_2f1(0.8, 1.1, 1.9, 0.62, _TINY).converged, id="gauss_2f1"),
    pytest.param(lambda: series._eval_2f1(0.8, 1.1, 1.9, np.array([0.1, 0.3, 0.62]), _TINY)[2],
                 id="_eval_2f1-nodes"),
    pytest.param(lambda: hyper_pfq([0.4, 0.9, 1.3], [1.7, 0.8], 0.3, _TINY).converged, id="hyper_pfq"),
    pytest.param(lambda: appell_f2(0.5, 0.5, 0.5, 1.5, 1.5, 0.3, 0.35, _TINY).converged, id="appell_f2"),
    pytest.param(lambda: saran_fk_triple(_FK, 0.25, 0.2, 0.3, _TINY).converged, id="saran_fk_triple"),
    pytest.param(lambda: saran_fk_reexpand(_FK, 0.25, 0.2, 0.3, _TINY).converged, id="saran_fk_reexpand"),
    pytest.param(lambda: fk_L(0.5, 0.8, [1.0, 1.2, 0.9], [1.5, 1.1, 1.3, 1.7], [0.25, 0.2, 0.15, 0.3],
                              _TINY).converged, id="fk_L"),
    pytest.param(lambda: generic_f_a(geometric_sequence(0.3), 0.5, 0.7, 1.5, 0.8, 0.9, 1.7,
                                     0.3, 0.2, 0.2, 0.2, _TINY).converged, id="generic_f_a"),
    pytest.param(lambda: rphis([0.5**0.4, 0.5**0.9], [0.5**1.3], 0.3, _CTX, _TINY).converged, id="rphis"),
    pytest.param(lambda: rphis([0.5**0.4, 0.5**-6], [0.5**1.3], 0.3, _CTX, _TINY).converged,
                 id="rphis-terminating"),
    pytest.param(lambda: phi3(Phi3Spec(a=(0.4,), b=(0.5,), c=(0.6,), h=(0.7,), hp=(0.8,), hpp=(0.3,)),
                              0.1, 0.2, 0.15, QContext(q=0.6), _TINY).converged, id="phi3"),
    pytest.param(lambda: phi_k_q(_FK, 0.25, 0.2, 0.3, _CTX, _TINY).converged, id="phi_k_q"),
    # qshift_operator_kernel returns a value only where its sum converged.
    pytest.param(lambda: qshift_operator_kernel(_SHIFT, 0.5, 0.25, 0.5, 0.27, 0.21, 0.3, _CTX, _TINY) is not None,
                 id="qshift_operator_kernel"),
])
def test_tol_below_the_rounding_floor_is_never_converged(converged):
    try:
        assert not converged()
    except ConvergenceError:
        pass


class TestGrow:
    def test_non_finite_total_is_not_converged(self):
        def build(sizes):
            return float("nan"), [0.0], 1e-14, 1

        r = _grow(build, [4], [8], 1e-12)
        assert not r.converged

    def test_nan_estimate_fails_and_grows(self):
        seen = []

        def build(sizes):
            seen.append(sizes[0])
            return 1.0, [float("nan")], 1e-14, 1

        r = _grow(build, [4], [20], 1e-12)
        assert not r.converged
        assert seen[-1] == 20

    def test_floor_is_reported_and_not_grown(self):
        seen = []

        def build(sizes):
            seen.append(sizes[0])
            return 1.0, [0.0], 1e-9, 1

        r = _grow(build, [4], [20], 1e-12)
        assert not r.converged
        assert r.est_trunc_error == 1e-9
        assert seen == [4]

    def test_caps_function_is_read_before_each_growth(self):
        # Caps from the other axis's size hold the product of the two within
        # 400, as the chain engine holds its links.
        seen = []

        def build(sizes):
            seen.append(tuple(sizes))
            return 1.0, [1.0, 1.0], 0.0, 1

        r = _grow(build, [4, 4], lambda s: [400 // s[1], 400 // s[0]], 1e-12)
        assert not r.converged
        assert seen == [(4, 4), (14, 14), (28, 14)]


class TestScaledProducts:
    def test_prefix_products_past_double_range(self):
        # 2^-k for k up to 20000 lies far below the smallest double.
        m, e = _scaled_prods(np.full((1, 20000), 0.5))
        assert np.all(m == 0.5)
        assert np.array_equal(e[0], 1 - np.arange(20001))


class TestTolHalving:
    def test_fk_engines(self):
        p = FkParams(0.7, 0.9, 1.1, 0.6, 1.8, 2.0, 1.4)
        for fn in (saran_fk_triple, saran_fk_reexpand):
            r1 = fn(p, 0.25, 0.2, 0.3, 1e-8)
            r2 = fn(p, 0.25, 0.2, 0.3, 5e-9)
            allowed = r1.est_trunc_error * (1 + abs(complex(r1.value)))
            assert abs(complex(r1.value) - complex(r2.value)) <= allowed

    def test_f2_engine(self):
        r1 = appell_f2(0.5, 0.5, 0.5, 1.5, 1.5, 0.3, 0.35, tol=1e-8)
        r2 = appell_f2(0.5, 0.5, 0.5, 1.5, 1.5, 0.3, 0.35, tol=5e-9)
        allowed = r1.est_trunc_error * (1 + abs(complex(r1.value)))
        assert abs(complex(r1.value) - complex(r2.value)) <= allowed


class TestPfqRounding:
    """hyper_pfq carries a rounding term: a cancelling sum is not converged,
    and a converged value is within its estimate of mpmath."""

    def test_cancelling_sum_not_converged(self):
        r = hyper_pfq([0.5], [1.5], -40.0)
        assert not r.converged
        with mpmath.workdps(30):
            want = float(mpmath.hyp1f1(0.5, 1.5, -40.0))
        assert abs(r.value - want) <= r.est_trunc_error * (1.0 + abs(r.value))

    @pytest.mark.parametrize("upper,lower", [
        ([0.5], [1.5]), ([1.3], [2.7]), ([], [1.5]), ([], [0.3]), ([0.3, 1.2], [1.7, 2.5]),
    ])
    def test_converged_bounds_error(self, upper, lower):
        for z in np.linspace(-40.0, 40.0, 81):
            r = hyper_pfq(upper, lower, float(z))
            if not r.converged:
                continue
            with mpmath.workdps(30):
                want = complex(mpmath.hyper(upper, lower, z))
            assert abs(r.value - want) <= r.est_trunc_error * (1.0 + abs(r.value)), z

    @pytest.mark.parametrize("upper,lower,z", [
        ([], [1.5], -15.0),  # 0F1
        ([], [0.7], 9.0),
        ([0.7], [], 0.6),  # 1F0, (1 - z)^-a
        ([1.3], [], -0.8),
        ([0.5], [1.5], 20.0),  # entire 1F1 and 2F2
        ([0.3, 1.2], [1.7, 2.5], -6.0),
        ([0.3, 1.2], [1.7, 2.5], 20.0),
        ([-4.0, 0.5, 1.5], [2.5], 3.0),  # terminating 3F1, p > q + 1
        ([0.5, 3.0], [-9.5], 0.001),  # negative non-integer lower parameter
    ])
    def test_against_mpmath_hyper(self, upper, lower, z):
        r = hyper_pfq(upper, lower, z)
        with mpmath.workdps(30):
            want = complex(mpmath.hyper(upper, lower, z))
        assert r.converged
        assert abs(r.value - want) <= r.est_trunc_error * (1.0 + abs(r.value))

    def test_negative_lower_runs_past_its_pole(self):
        # Terms may jump where c + n passes zero: the rate bound is inf until
        # n > -Re(c) = 9.5, so the sum runs to t_10 before it may stop, and the
        # bound from there on covers the jump at c + 10 = 0.5.
        assert hyper_pfq([0.5, 3.0], [-9.5], 0.001).terms_used == 10
