"""Block-summed term recurrences against the term-at-a-time loops they replace.

`_series_2f1_raw` and `_rphis_array` form their terms W at a time, W = 8, 16,
32, ... (fewer for large arrays), and apply the three-small-terms rule to the
rows afterwards.  The reference loops below form one term per step and test
the rule after each.  Both must stop at the same term with the same flag;
real series give bit-identical values, complex ones agree to 1e-12 (1 + |v|).
"""

import math
import warnings

import numpy as np
import pytest

from saranfk import PoleError, QContext
from saranfk.qkernels import _rphis_array
from saranfk.series import _series_2f1_raw, _tail_est

# Stop counts on both sides of the block edges at 8 and 24 terms.
EDGE_STOPS = {8, 15, 16, 17, 23, 24, 25}


def ref_series_2f1(a, b, c, z, tol, max_terms, min_terms=8):
    arrs = [np.asarray(v) for v in (a, b, c, z)]
    shape = np.broadcast_shapes(*(v.shape for v in arrs))
    dtype = np.complex128 if any(np.iscomplexobj(v) for v in arrs) else np.float64
    a, b, c, z = (np.broadcast_to(v, shape).astype(dtype) for v in arrs)
    term = np.ones(shape, dtype=dtype)
    total = np.ones(shape, dtype=dtype)
    top = float(np.max(np.abs(z)))
    margin = 1.0 - top if top < 1.0 else 0.03
    small = 0
    n = 0
    est = math.inf
    while n < max_terms:
        term = term * ((a + n) * (b + n)) / ((c + n) * (n + 1.0)) * z
        total = total + term
        n += 1
        est = _tail_est(float(np.max(np.abs(term))), margin, float(np.max(np.abs(total))))
        if est <= tol:
            small += 1
            if small >= 3 and n >= min_terms:
                break
        else:
            small = 0
    return total, n, small >= 3, est


def ref_rphis(uppers, lowers, z, ctx, tol=1e-12, terminate_after=None, max_terms=5000):
    q = ctx.q
    spow = 1 + len(lowers) - len(uppers)
    arrays = [np.asarray(v) for v in (*uppers, *lowers, z)]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    if terminate_after is not None:
        ta = np.broadcast_to(np.asarray(terminate_after, dtype=np.int64), shape)
        nsteps = int(ta.max()) if ta.size else 0
    else:
        ta = None
        nsteps = max_terms
    dtype = np.complex128 if any(np.iscomplexobj(a) for a in arrays) else np.float64
    zb = np.broadcast_to(np.asarray(z), shape).astype(dtype)
    term = np.ones(shape, dtype=dtype)
    total = np.ones(shape, dtype=dtype)
    small = 0
    converged = ta is not None
    est = 0.0
    ell = 0
    while ell < nsteps:
        ql = q**ell
        num = np.ones(shape, dtype=dtype)
        for u in uppers:
            num = num * (1.0 - np.asarray(u) * ql)
        den = np.full(shape, 1.0 - q ** (ell + 1), dtype=dtype)
        for b in lowers:
            den = den * (1.0 - np.asarray(b) * ql)
        if ta is not None:
            den = np.where(ell + 1 <= ta, den, 1.0)
        if np.any(np.abs(den) < 1e-280):
            raise PoleError("q-series denominator factor vanished")
        term = term * (num / den) * zb
        if spow:
            sign = -1.0 if spow % 2 else 1.0
            term = term * (sign * q ** (ell * spow))
        ell += 1
        if ta is not None:
            term = np.where(ell <= ta, term, 0.0)
        total = total + term
        if ta is None:
            est = _tail_est(float(np.max(np.abs(term))), 0.25, float(np.max(np.abs(total))))
            if est <= tol:
                small += 1
                if small >= 3 and ell >= 8:
                    converged = True
                    break
            else:
                small = 0
    return total, ell, converged, est


def assert_same(got, ref):
    value, n, converged, est = got
    ref_value, ref_n, ref_converged, ref_est = ref
    assert (n, converged) == (ref_n, ref_converged)
    assert np.shape(value) == np.shape(ref_value)
    if np.iscomplexobj(ref_value):
        scale = 1e-12 * (1.0 + np.abs(ref_value))
        assert np.all(np.abs(np.asarray(value) - ref_value) <= scale)
        assert est == pytest.approx(ref_est, rel=1e-9, abs=1e-300)
    else:
        np.testing.assert_array_equal(value, ref_value)
        assert est == ref_est


ZS = np.linspace(0.005, 0.45, 90)


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("as_array", [False, True])
def test_2f1_stops_across_block_edges(cplx, as_array):
    a, b, c = (0.3 + 0.2j, 0.7, 1.9 - 0.1j) if cplx else (0.3, 0.7, 1.9)
    stops = set()
    for z in ZS:
        zz = np.array([z, -0.5 * z]) if as_array else z
        ref = ref_series_2f1(a, b, c, zz, 1e-12, 250_000)
        assert_same(_series_2f1_raw((a, b), (c,), zz, 1e-12, 250_000), ref)
        stops.add(ref[1])
    assert EDGE_STOPS <= stops


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("as_array", [False, True])
def test_rphis_stops_across_block_edges(cplx, as_array):
    ctx = QContext(q=0.7)
    uppers, lowers = ([0.3 + 0.1j, 0.4], [0.7j]) if cplx else ([0.3, 0.4], [0.7])
    stops = set()
    for z in ZS:
        zz = np.array([z, -0.5 * z]) if as_array else z
        ref = ref_rphis(uppers, lowers, zz, ctx)
        assert_same(_rphis_array(uppers, lowers, zz, ctx), ref)
        stops.add(ref[1])
    assert EDGE_STOPS <= stops


@pytest.mark.parametrize("max_terms", [8, 9, 16, 17, 24, 25, 40])
def test_max_terms_cap(max_terms):
    z = np.array([0.85, -0.6])
    ref = ref_series_2f1(0.3, 0.7, 1.9, z, 1e-12, max_terms)
    assert ref[1] == max_terms and not ref[2]
    assert_same(_series_2f1_raw((0.3, 0.7), (1.9,), z, 1e-12, max_terms), ref)
    ctx = QContext(q=0.9)
    ref = ref_rphis([0.3, 0.4], [0.7], z, ctx, max_terms=max_terms)
    assert ref[1] == max_terms and not ref[2]
    assert_same(_rphis_array([0.3, 0.4], [0.7], z, ctx, max_terms=max_terms), ref)


@pytest.mark.parametrize("size", [5000, 40_000])
def test_large_arrays(size):
    """5000 elements take blocks of 6 terms; 40 000 take one term per block."""
    z = np.linspace(-0.6, 0.6, size)
    c = 1.9 + np.linspace(0.0, 1.0, size)
    ref = ref_series_2f1(0.3, 0.7, c, z, 1e-12, 250_000)
    assert_same(_series_2f1_raw((0.3, 0.7), (c,), z, 1e-12, 250_000), ref)
    ctx = QContext(q=0.5)
    assert_same(_rphis_array([0.3, 0.4], [0.7], z, ctx), ref_rphis([0.3, 0.4], [0.7], z, ctx))


def test_2f1_broadcast_parameters():
    rng = np.random.default_rng(5)
    a = rng.uniform(-2.0, 2.0, (7, 1))
    c = rng.uniform(0.5, 3.0, (1, 9)) + 0.2j
    z = rng.uniform(-0.7, 0.7, (7, 9))
    for args in ((a, 0.4, c.real, z), (a, 0.4, c, z), (-6.0, 0.4, c.real, z)):
        got = _series_2f1_raw(args[:2], args[2:3], args[3], 1e-12, 250_000)
        assert_same(got, ref_series_2f1(*args, 1e-12, 250_000))


@pytest.mark.parametrize("q", [0.6, 0.8])
@pytest.mark.parametrize(
    "extra_uppers, lowers",
    [([0.4], [0.7]), ([0.4, -0.3], [0.7]), ([], [0.5, 0.6]), ([0.4], [0.7 + 0.2j])],
    ids=["r=s+1", "r>s+1", "r<s+1", "complex"],
)
def test_mixed_terminate_after(q, extra_uppers, lowers):
    ctx = QContext(q=q)
    ta = np.array([[0, 1, 7, 8, 9], [15, 16, 17, 23, 24], [25, 26, 3, 30, 12]])
    uppers = [q ** -ta.astype(float), *extra_uppers]
    z = np.array([0.2, -0.4, 0.6, 0.3, -0.1])
    ref = ref_rphis(uppers, lowers, z, ctx, terminate_after=ta)
    assert ref[1] == 30 and np.all(np.isfinite(ref[0]))
    assert_same(_rphis_array(uppers, lowers, z, ctx, terminate_after=ta), ref)


def test_pole_raises_only_where_the_term_loop_reaches_it():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ctx = QContext(q=0.5)
        with pytest.raises(PoleError):
            _rphis_array([0.3, 0.4], [0.5**-3], 0.2, ctx)
        # The stop at 8 terms needs the step from term 7, whose denominator
        # vanishes.
        with pytest.raises(PoleError):
            _rphis_array([0.3, 0.4], [0.5**-7], 0.001, ctx)
        assert _rphis_array([0.3, 0.4], [0.5**-8], 0.001, ctx)[1] == 8
        value, n, converged, _ = _rphis_array([0.3, 0.4], [0.5**-3], 0.2, ctx, terminate_after=2)
        assert (n, converged) == (2, True)
        assert value == pytest.approx(0.97745066666666667, rel=1e-14)
        # The pole at l = 22 sits in the block of terms 9..24, past the stop.
        ctx = QContext(q=0.9)
        ref = ref_rphis([0.3, 0.4], [0.9**-22], 0.3, ctx)
        assert ref[1] == 15
        assert_same(_rphis_array([0.3, 0.4], [0.9**-22], 0.3, ctx), ref)
