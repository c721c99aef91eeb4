"""Typed errors and fallback branches of the engines.

Each engine either returns a value or raises a typed error; these tests pin
the errors raised outside each documented domain, and the fallback branches
that the identity suite never reaches: the complex FFT of convolve2d, the
complex-exponent weights of the hypergeometric measure rule, the scalar
integrand fallback of integrate_measure, and the term recurrence taking over
from _family_sum and _lattice_sum.
"""

import math

import numpy as np
import pytest

from saranfk import (
    ConvergenceError,
    DirichletMeasure,
    DiscreteFkParams,
    DomainError,
    FkParams,
    HypergeometricMeasure,
    Phi3Spec,
    PoleError,
    QContext,
    QDirichletMeasure,
    QfkShiftParams,
    appell_f2,
    delta_sequence,
    dirichlet_density,
    discrete_weight,
    fk_L,
    fk_diagonal_sequence,
    gauss_2f1,
    generic_f_a,
    hyper_pfq,
    hypergeometric_density,
    integrate_measure,
    jackson_integral,
    measure_rule,
    phi3,
    phi_k_q,
    q_gamma,
    q_moment,
    q_pochhammer_inf,
    qshift_operator_kernel,
    rphis,
)
from saranfk import qkernels
from saranfk.cli import main
from saranfk.core import pochhammer, pochhammer_table, q_binomial, q_pochhammer, q_pochhammer_table
from saranfk.measures import _slot_exponents
from saranfk.qkernels import _family_sum, _lattice_sum, _rphis_array, phi_k_p_tables
from saranfk.series import CoeffSequence2D, convolve2d

CTX = QContext(q=0.5)
SHIFT = QfkShiftParams(alpha1=0.8, alpha2=1.1, beta1=0.9, beta2=0.7, gamma3=1.5, eta1=0.9, eta2=0.6, mu2=1.0,
                       lam1=0.5, lam2=0.8, lam3=0.4)


class TestTypedErrors:
    @pytest.mark.parametrize("z", [1.0, -1.5, 2j])
    def test_pfq_p_eq_q_plus_1_outside_unit_disc(self, z):
        with pytest.raises(DomainError):
            hyper_pfq([0.5, 0.7], [1.3], z)

    def test_f2_pole(self):
        with pytest.raises(PoleError):
            appell_f2(0.5, 0.3, 0.4, -1, 1.2, 0.1, 0.2)

    def test_fk_L_parameter_counts(self):
        with pytest.raises(ValueError):
            fk_L(0.5, 0.6, [0.3], [1.1, 1.2, 1.3], [0.1, 0.1, 0.1])
        with pytest.raises(ValueError):
            fk_L(0.5, 0.6, [0.3, 0.4], [1.1, 1.2], [0.1, 0.1, 0.1])

    def test_fk_L_pole(self):
        with pytest.raises(PoleError):
            fk_L(0.5, 0.6, [0.3, 0.4], [1.1, -2, 1.3], [0.1, 0.1, 0.1])

    def test_generic_f_a_pole(self):
        with pytest.raises(PoleError):
            generic_f_a(delta_sequence(), 0.5, 0.6, -1, 0.5, 0.6, 1.2, 0.1, 0.1, 0.1, 0.1)

    def test_phi3_non_terminating_outside_unit_disc(self):
        with pytest.raises(DomainError):
            phi3(Phi3Spec(a=(0.5,), e=(0.3,)), 1.2, 0.1, 0.1, CTX)

    def test_measure_rule_rejects_a_non_spec(self):
        with pytest.raises(TypeError):
            measure_rule("x", 8)

    def test_unknown_discrete_weight(self):
        p = DiscreteFkParams(0.5, 0.6, 1.1, 1.2, 1.3, 0.7, 0.8, 0.4, 0.5, 0.6)
        with pytest.raises(DomainError):
            discrete_weight("w9", 0, 2, p, CTX)

    def test_q_pochhammer_inf_huge_base(self):
        with pytest.raises(DomainError):
            q_pochhammer_inf(1e11, CTX)

    def test_q_moment_negative_order(self):
        with pytest.raises(ValueError):
            q_moment(QDirichletMeasure(0.5, 0.6, CTX), -1)

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.2, 1.5])
    def test_density_outside_open_interval(self, t):
        with pytest.raises(DomainError):
            dirichlet_density(DirichletMeasure(0.5, 0.6), t)
        with pytest.raises(DomainError):
            hypergeometric_density(HypergeometricMeasure(0.3, 0.4, 1.2, 1.1), t)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: gauss_2f1(0.5, 0.7, math.inf, 0.3), id="2f1-c-inf"),
        pytest.param(lambda: gauss_2f1(math.nan, 0.7, 1.5, 0.3), id="2f1-a-nan"),
        pytest.param(lambda: rphis([math.nan], [0.7], 0.3, CTX), id="rphis-upper-nan"),
        pytest.param(lambda: q_gamma(math.nan, CTX), id="q_gamma-nan"),
        pytest.param(lambda: FkParams(0.5, 0.7, 0.9, 0.6, math.nan, 1.3, 1.1), id="FkParams-gamma1-nan"),
        pytest.param(lambda: phi3(Phi3Spec(a=(0.3,)), math.nan, 0.1, 0.1, CTX), id="phi3-x-nan"),
        pytest.param(lambda: phi_k_q(FkParams(0.5, 0.7, 0.9, 0.6, 1.5, 1.3, 1.1), 0.1, math.nan, 0.1, CTX),
                     id="phi_k_q-y-nan"),
        pytest.param(lambda: hyper_pfq([0.5, 0.7], [1.5], math.nan), id="pfq-z-nan"),
        pytest.param(lambda: appell_f2(math.nan, 0.7, 0.8, 1.5, 1.6, 0.1, 0.1), id="f2-a-nan"),
        pytest.param(lambda: fk_L(math.nan, 0.7, [0.6, 0.8], [1.4, 1.6, 1.8], [0.1, 0.2, 0.15]), id="fk_L-a1-nan"),
        pytest.param(lambda: generic_f_a(delta_sequence(), 0.5, 0.6, 1.5, 0.7, 0.8, 1.6, 0.1, 0.1, math.nan, 0.1),
                     id="f_a-x3-nan"),
        pytest.param(lambda: DirichletMeasure(math.nan, 1.0), id="dirichlet-nan"),
        pytest.param(lambda: HypergeometricMeasure(math.nan, 0.5, 1.5, 1.0), id="hypergeometric-nan"),
    ])
    def test_non_finite_input(self, call):
        # Raised before any sum: the engines would otherwise fail in round()
        # or run to their term caps and return NaN.
        with pytest.raises(DomainError):
            call()

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: hyper_pfq([0.5], [1.5], 0.3, max_terms=-1), id="pfq-max_terms-negative"),
        pytest.param(lambda: hyper_pfq([0.5], [1.5], 0.3, max_terms=2.5), id="pfq-max_terms-float"),
        pytest.param(lambda: q_moment(QDirichletMeasure(0.5, 0.6, CTX), 2.5), id="q_moment-float"),
        pytest.param(lambda: jackson_integral(lambda t: t, 2.5, CTX), id="jackson-float"),
        pytest.param(lambda: qshift_operator_kernel(SHIFT, 0.5, 0.25, 0.5, 0.27, 0.21, 0.3, CTX, kmax=-1),
                     id="shift-kmax-negative"),
        pytest.param(lambda: qshift_operator_kernel(SHIFT, 0.5, 0.25, 0.5, 0.27, 0.21, 0.3, CTX, kmax=2.5),
                     id="shift-kmax-float"),
        pytest.param(lambda: q_binomial(5, 2.5, CTX), id="q_binomial-float"),
        pytest.param(lambda: pochhammer(3, 2.5), id="pochhammer-float"),
        pytest.param(lambda: q_pochhammer(0.3, 2.5, CTX), id="q_pochhammer-float"),
        pytest.param(lambda: pochhammer(3, True), id="pochhammer-bool"),
        pytest.param(lambda: pochhammer_table(0.5, -1), id="pochhammer_table-negative"),
        pytest.param(lambda: pochhammer_table(0.5, 2.5), id="pochhammer_table-float"),
        pytest.param(lambda: q_pochhammer_table(0.5, -1, 0.5), id="q_pochhammer_table-negative"),
        pytest.param(lambda: fk_diagonal_sequence(0.5, 0.6, 1.5, probe=2.5), id="fk_diagonal-probe-float"),
        pytest.param(lambda: phi_k_p_tables(FkParams(0.5, 0.6, 0.7, 0.8, 1.1, 1.2, 1.3), 0.1, 0.1, CTX, -1),
                     id="phi_k_p_tables-negative"),
        pytest.param(lambda: phi_k_p_tables(FkParams(0.5, 0.6, 0.7, 0.8, 1.1, 1.2, 1.3), 0.1, 0.1, CTX, 2.5),
                     id="phi_k_p_tables-float"),
        pytest.param(lambda: QContext(q=0.5, inf_product_terms=2.5), id="qcontext-inf_terms-float"),
        pytest.param(lambda: QContext(q=0.5, inf_product_terms=True), id="qcontext-inf_terms-bool"),
    ])
    def test_index_not_a_non_negative_int(self, call):
        # core._check_indices rejects these before any sum or table lookup;
        # a bool is not an index.
        with pytest.raises(DomainError):
            call()

    def test_shift_kernel_non_convergent_k_sum(self):
        # alpha2 < eta2 makes |w z| q^(alpha2 - eta2) = 0.99 q^-0.7 > 1.
        p = QfkShiftParams(alpha1=0.5, alpha2=0.2, beta1=0.9, beta2=0.6, gamma3=1.5, eta1=0.8,
                           eta2=0.9, mu2=0.7, lam1=0.6, lam2=0.5, lam3=0.4)
        with pytest.raises(ConvergenceError):
            qshift_operator_kernel(p, 0.5, 0.5, 1.0, 0.1, 0.1, 0.99, CTX)


class TestCliExit2:
    @pytest.mark.parametrize("argv", [
        ["eval", "2f1", "--a", "0.3", "--b", "0.7", "--c", "1.9"],
        ["eval", "phi3", "--x", "0.1", "--y", "0.1", "--z", "0.1"],
        ["eval", "measure-moment", "--measure", "gaussian", "--params", "0.5,0.6", "--ell", "1"],
        ["eval", "q-moment", "--measure", "dirichlet", "--params", "0.5,0.6", "--ell", "1"],
    ])
    def test_missing_or_unknown_option(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


class TestFallbackBranches:
    def test_convolve2d_complex_matches_direct_sum(self):
        def ta(M, N):
            return np.array([[(0.3 + 0.2j) ** m * 0.5**n for n in range(N + 1)] for m in range(M + 1)])

        def tb(M, N):
            return np.array([[0.4**m * (0.1 - 0.3j) ** n for n in range(N + 1)] for m in range(M + 1)])

        got = convolve2d(CoeffSequence2D(None, 0.6, ta), CoeffSequence2D(None, 0.6, tb)).table(5, 4)
        a, b = ta(5, 4), tb(5, 4)
        want = np.array([
            [sum(a[m - i, n - j] * b[i, j] for i in range(m + 1) for j in range(n + 1)) for n in range(5)]
            for m in range(6)
        ])
        assert np.iscomplexobj(got)
        assert np.abs(got - want).max() < 1e-15

    COMPLEX_SLOTS = (1.8 + 0.1j, 2.1 + 0.3j, 1.3 - 0.1j, 0.6 + 0.2j)  # eta, gamma, lam, nu

    def test_complex_exponent_weights(self):
        # Conjugate exponents give the same nodes and conjugate weights, and
        # the mass approaches one as the order grows.
        spec = HypergeometricMeasure(*_slot_exponents(*self.COMPLEX_SLOTS))
        conj = HypergeometricMeasure(*(np.conj(v) for v in _slot_exponents(*self.COMPLEX_SLOTS)))
        t, w = measure_rule(spec, 64)
        tc, wc = measure_rule(conj, 64)
        assert np.iscomplexobj(w)
        assert np.array_equal(t, tc)
        assert np.abs(w - np.conj(wc)).max() <= 1e-15 * np.abs(w).max()
        errs = [abs(measure_rule(spec, n)[1].sum() - 1.0) for n in (32, 128)]
        assert errs[1] < errs[0] / 4 and errs[1] < 1e-3

    @pytest.mark.xfail(strict=True, reason="a complex exponent's t^(i Im) factor sits in the "
                                           "weights, so the rule converges only algebraically")
    def test_complex_exponent_rule_is_spectral(self):
        eta, gamma, lam, nu = self.COMPLEX_SLOTS
        t, w = measure_rule(HypergeometricMeasure(*_slot_exponents(eta, gamma, lam, nu)), 96)
        assert abs(w.sum() - 1.0) < 1e-10

    def test_complex_exponent_moments(self):
        # Moments of order >= 1 damp the t = 0 endpoint and match the slot
        # measure's closed form (nu)_l (lam)_l / ((gamma)_l (eta)_l).
        eta, gamma, lam, nu = self.COMPLEX_SLOTS
        t, w = measure_rule(HypergeometricMeasure(*_slot_exponents(eta, gamma, lam, nu)), 128)
        for ell in (1, 2, 3):
            want = pochhammer(nu, ell) * pochhammer(lam, ell) / (pochhammer(gamma, ell) * pochhammer(eta, ell))
            assert abs(np.sum(w * t**ell) - want) < 1e-8

    def test_integrate_measure_scalar_fallback(self):
        # math.exp rejects arrays, so the integrand is applied node by node;
        # the mean of e^t under Beta(a, b) is 1F1(a; a + b; 1).
        spec = DirichletMeasure(0.7, 1.3)
        got = integrate_measure(math.exp, spec, 32)
        want = hyper_pfq([0.7], [2.0], 1.0).value
        assert got == pytest.approx(want, rel=1e-13)
        assert integrate_measure(lambda t: 2.0, spec, 32) == pytest.approx(2.0, rel=1e-13)

    def test_family_sum_declines_a_non_finite_sum(self, monkeypatch):
        # _power_sum declines the overflowing table, and the recurrence that
        # sums it instead reports it unconverged.
        sums = []
        power_sum = qkernels._power_sum
        monkeypatch.setattr(qkernels, "_power_sum", lambda *args: sums.append(power_sum(*args)) or sums[-1])
        X = np.array([1e200, 2e200, 3e200])
        with np.errstate(all="ignore"):
            _, _, converged, _ = _family_sum([np.array([0.3, 0.4]), 0.5], [0.7], X, CTX, 1e-12)
        assert sums == [None] and not converged

    @pytest.mark.parametrize("shift", [1.0, 1.001])
    def test_lattice_sum_declines_off_lattice_upper(self, shift):
        # An upper entry off q^-n leaves the terminating 3phi1 to the term
        # recurrence; both routes match a direct term sum.
        q = 0.5
        n = np.arange(6)
        u = q ** -n.astype(np.float64) * shift
        z = 0.3 * q**n
        lattice = _lattice_sum([0.3, 0.4, u], [0.6], z, n, q, np.float64)
        assert (lattice is None) == (shift != 1.0)
        got, _, converged, _ = _rphis_array([0.3, 0.4, u], [0.6], z, CTX, terminate_after=n)

        def direct(c, x, top):
            total, term = 0.0, 1.0
            for k in range(top + 1):
                total += term
                term *= ((1 - 0.3 * q**k) * (1 - 0.4 * q**k) * (1 - c * q**k)
                         / ((1 - 0.6 * q**k) * (1 - q ** (k + 1))) * x * -(q**-k))
            return total

        want = [direct(u[i], z[i], n[i]) for i in range(n.size)]
        assert converged
        assert np.abs(got - want).max() < 1e-14
