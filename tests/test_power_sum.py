"""The power route of node-array pFq series against the term recurrence.

A direct pFq with p = q + 1, scalar parameters and two or more arguments
inside the unit disc shares one coefficient row over all arguments, and
series._series_pfq sums it as one product of argument powers and that row
(series._power_sum).  _series_2f1_raw's recurrence stays the reference: the
route may differ from it in the last digits, but must never be less accurate
against 30-digit mpmath by more than a set margin, and must report the same
converged flag.
"""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from saranfk import PoleError
from saranfk import series
from saranfk.series import _eval_2f1, _series_2f1_raw, _series_pfq, _snap_terminating

TOL = 1e-12
MAX_TERMS = 250_000


def mp_hyper(upper, lower, zs) -> np.ndarray:
    with mpmath.workdps(30):
        return np.array([complex(mpmath.hyper(list(upper), list(lower), complex(z))) for z in zs])


def assert_no_less_accurate(got, ref, want, margin):
    """got is within margin (1 + |want|) of being as close to want as ref."""
    assert not np.isnan(got).any()
    excess = np.abs(got - want) - np.abs(ref - want)
    assert np.all(excess <= margin * (1.0 + np.abs(want))), float(np.max(excess))


def _real(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False)


def _cplx(lo, hi, im=2.0):
    return st.builds(complex, _real(lo, hi), _real(-im, im))


# Arguments in the 0.9 disc, as r e^(i theta).
_DISC = st.builds(lambda r, t: r * complex(math.cos(t), math.sin(t)), _real(0.0, 0.9), _real(0.0, 2 * math.pi))


@hsettings(max_examples=60, deadline=None)
@given(a=_real(-3, 3), b=_real(-3, 3), c=_real(0.1, 4), zs=st.lists(_real(-0.9, 0.9), min_size=2, max_size=64))
def test_real_2f1_route_no_less_accurate(a, b, c, zs):
    z = np.array(zs)
    a, b = _snap_terminating(a), _snap_terminating(b)
    got, _, ok, _ = _eval_2f1(a, b, c, z, TOL)
    ref, _, ref_ok, _ = _series_2f1_raw((a, b), (c,), z, TOL, MAX_TERMS)
    assert ok == ref_ok
    assert_no_less_accurate(got, ref, mp_hyper((a, b), (c,), z).real, 1e-14)


@hsettings(max_examples=40, deadline=None)
@given(a=_cplx(-3, 3), b=_cplx(-3, 3), c=_cplx(0.1, 4), zs=st.lists(_DISC, min_size=2, max_size=64))
def test_complex_2f1_route_no_less_accurate(a, b, c, zs):
    z = np.array(zs)
    got, _, ok, _ = _eval_2f1(a, b, c, z, TOL)
    ref, _, ref_ok, _ = _series_2f1_raw((a, b), (c,), z, TOL, MAX_TERMS)
    assert ok == ref_ok
    assert_no_less_accurate(got, ref, mp_hyper((a, b), (c,), z), 1e-12)


@hsettings(max_examples=40, deadline=None)
@given(upper=st.tuples(_real(0.1, 2.2), _real(0.1, 2.2), _real(0.1, 2.0)),
       lower=st.tuples(_real(0.4, 2.5), _real(0.4, 0.8)),
       zs=st.lists(_real(0.0, 0.7), min_size=2, max_size=64))
def test_erdelyi3_3f2_route_no_less_accurate(upper, lower, zs):
    # erdelyi-3's right-hand side: 3F2(alpha, beta, eta; lam, nu; z t) over
    # the nodes t of its measure rule.
    z = np.array(zs)
    got, _, ok, _ = _series_pfq(upper, lower, z, TOL, MAX_TERMS)
    ref, _, ref_ok, _ = _series_2f1_raw(upper, lower, z, TOL, MAX_TERMS)
    assert ok == ref_ok
    assert_no_less_accurate(got, ref, mp_hyper(upper, lower, z).real, 1e-14)


class TestEdges:
    Z = np.linspace(-0.8, 0.8, 64)

    def test_nonpositive_integer_c_raises(self):
        with pytest.raises(PoleError):
            _eval_2f1(0.3, 0.7, -2.0, self.Z, TOL)

    def test_terminating_a_gives_the_cubic(self):
        got, _, ok, est = _eval_2f1(-3.0, 0.7, 1.9, self.Z, TOL)
        with mpmath.workdps(30):
            coef = [mpmath.rf(-3, n) * mpmath.rf(0.7, n) / (mpmath.rf(1.9, n) * mpmath.factorial(n))
                    for n in range(4)]
            want = np.array([float(sum(cn * mpmath.mpf(z) ** n for n, cn in enumerate(coef))) for z in self.Z])
        assert ok and est == 0.0
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * (1.0 + np.abs(want)))

    def test_negative_c_runs_past_its_pole_index(self):
        # The terms of (c)_n with c = -2.5 fall and then jump where c + n
        # passes zero, so the sum must run past n = 3 before it may stop.
        z = np.array([0.0, 1e-3, -2e-3])
        got, n, ok, _ = _eval_2f1(0.3, 0.7, -2.5, z, TOL)
        want = mp_hyper((0.3, 0.7), (-2.5,), z).real
        assert ok and n > 3
        assert np.all(np.abs(got - want) <= 1e-14 * (1.0 + np.abs(want)))

    def test_array_above_the_block_budget_is_summed_in_pieces(self):
        # One power matrix for this array would hold about three million
        # entries; the route forms it a bounded number of rows at a time.
        z = np.linspace(-0.85, 0.85, 15_000) + 0.01j
        tracemalloc.start()
        try:
            got, _, ok, _ = _series_pfq((0.3, 0.7), (1.9,), z, TOL, MAX_TERMS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok and got.shape == z.shape
        assert peak <= 8 * z.nbytes
        sub = slice(None, None, 997)
        want = mp_hyper((0.3, 0.7), (1.9,), z[sub])
        assert np.all(np.abs(got[sub] - want) <= 1e-14 * (1.0 + np.abs(want)))

    def test_overflowing_coefficients_decline_without_a_warning(self):
        def coef(N):
            return np.cumprod(np.full((1, N + 1), 1e30), axis=1)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert series._power_sum(coef, np.array([0.5, -0.5]), TOL, 0.5, MAX_TERMS, 24) is None

    def test_one_argument_keeps_the_recurrence(self):
        for z in (0.45, np.array([0.45]), np.array([[0.45]])):
            got = _series_pfq((0.3, 0.7), (1.9,), z, TOL, MAX_TERMS)
            want = _series_2f1_raw((0.3, 0.7), (1.9,), z, TOL, MAX_TERMS)
            assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]


def test_node_array_needs_no_term_recurrence(monkeypatch):
    def no_recurrence(*args, **kwargs):
        raise AssertionError("term recurrence called")

    monkeypatch.setattr(series, "_sum_terms", no_recurrence)
    z = np.linspace(-0.8, 0.8, 64)
    value, _, ok, _ = _eval_2f1(0.3, 0.7, 1.9, z, TOL)
    want = mp_hyper((0.3, 0.7), (1.9,), z).real
    assert ok and np.all(np.abs(value - want) <= 1e-14 * (1.0 + np.abs(want)))


@pytest.mark.xfail(strict=True, reason="a node-array 2F1's estimate has no rounding term: where its "
                   "terms cancel heavily, converged=True does not bound the error")
def test_converged_error_within_estimate_under_cancellation():
    z = np.array([0.6, 0.3])
    value, _, ok, est = _eval_2f1(-20.5, 15.0, 1.5, z, TOL)
    want = mp_hyper((-20.5, 15.0), (1.5,), z).real
    assert ok
    assert np.max(np.abs(value - want) / (1.0 + np.abs(want))) <= est
