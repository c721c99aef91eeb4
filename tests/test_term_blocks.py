"""Block-summed term recurrences against the term-at-a-time loops they replace.

`_series_2f1_raw` and `_rphis_array` form their terms W at a time, W = 8
first and then doubling (within a cap that is lower for large arrays), and
apply the stopping rule to the rows afterwards.  The reference loop below
forms one term per step and states the rule once, tested after each term.
Both must stop at the same term with the same flag; real series give
bit-identical values, complex ones agree to 1e-12 (1 + |v|), and estimates
agree to 1e-9, since a block adds its |t| in its own order.  A series of one
element (shape (), (1,) or (1, 1)) is summed in Python scalars instead of the
array row loop, and must match that loop as well.
"""

import math
import warnings

import numpy as np
import pytest

from saranfk import PoleError, QContext, gauss_2f1
from saranfk import series
from saranfk.qkernels import _rphis_array
from saranfk.series import _series_2f1_raw

# Stop counts on both sides of the block edges at 8 and 24 terms.
EDGE_STOPS = {8, 15, 16, 17, 23, 24, 25}
EPS = np.finfo(np.float64).eps


def ref_sum(step, shape, dtype, max_terms, tol, margin, min_terms=8):
    """1 + t_1 + ... + t_n, t_{n+1} = step(n, t_n), one term at a time.

    The rule: a term's tail is max_i |t_i| / (margin (1 + |S_i|)) over the
    elements i, and the sum stops at the first n >= min_terms that ends a
    run of three tails <= tol.  Its floor is
    max_i eps (1 + sum |t_i| + sqrt(n) |S_i|) / (1 + |S_i|).  It has
    converged when it stopped and its floor is <= tol; the estimate is the
    larger of the last tail and the floor.  margin None marks a terminating
    series: tail zero, max_terms steps, stopped at the end."""
    term = np.ones(shape, dtype=dtype)
    total = np.ones(shape, dtype=dtype)
    absum = np.ones(shape)
    run, n, tail = 0, 0, 0.0
    stopped = margin is None
    while n < max_terms:
        term = step(n, term)
        total = total + term
        absum = absum + np.abs(term)
        n += 1
        if margin is not None:
            tail = float(np.max(np.abs(term) / (margin * (1.0 + np.abs(total)))))
            run = run + 1 if tail <= tol else 0
            if run >= 3 and n >= min_terms:
                stopped = True
                break
    floor = float(np.max(EPS * (absum + math.sqrt(n) * np.abs(total)) / (1.0 + np.abs(total))))
    return total, n, stopped and floor <= tol, max(floor, tail)


def ref_series_2f1(a, b, c, z, tol, max_terms, min_terms=8):
    arrs = [np.asarray(v) for v in (a, b, c, z)]
    shape = np.broadcast_shapes(*(v.shape for v in arrs))
    dtype = np.complex128 if any(np.iscomplexobj(v) for v in arrs) else np.float64
    a, b, c, z = (np.broadcast_to(v, shape).astype(dtype) for v in arrs)
    top = float(np.max(np.abs(z)))

    def step(n, term):
        return term * ((a + n) * (b + n)) / ((c + n) * (n + 1.0)) * z

    return ref_sum(step, shape, dtype, max_terms, tol, 1.0 - top if top < 1.0 else 0.03, min_terms)


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

    def step(ell, term):
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
        return term if ta is None else np.where(ell + 1 <= ta, term, 0.0)

    return ref_sum(step, shape, dtype, nsteps, tol, None if ta is not None else 0.25)


def assert_same(got, ref):
    value, n, converged, est = got
    ref_value, ref_n, ref_converged, ref_est = ref
    assert (n, converged) == (ref_n, ref_converged)
    assert np.shape(value) == np.shape(ref_value)
    if np.iscomplexobj(ref_value):
        scale = 1e-12 * (1.0 + np.abs(ref_value))
        assert np.all(np.abs(np.asarray(value) - ref_value) <= scale)
    else:
        np.testing.assert_array_equal(value, ref_value)
    assert est == pytest.approx(ref_est, rel=1e-9, abs=1e-300)


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


# ---------------------------------------------------------------------------
# Series of one element, summed term by term in Python scalars
# ---------------------------------------------------------------------------

SIZE_ONE = [(), (1,), (1, 1)]


def on_arrays(monkeypatch, fn, *args, **kwargs):
    """fn(*args, **kwargs) with every series summed by the array row loop."""

    def refuse(*_args, **_kwargs):
        raise ZeroDivisionError

    with monkeypatch.context() as m:
        m.setattr(series, "_sum_scalar", refuse)
        return fn(*args, **kwargs)


def assert_like_arrays(got, arr):
    """Same result as the array row loop, as the same type, shape and dtype."""
    assert_same(got, arr)
    assert type(got[0]) is type(arr[0])
    assert np.asarray(got[0]).dtype == np.asarray(arr[0]).dtype


@pytest.mark.parametrize("shape", SIZE_ONE)
@pytest.mark.parametrize("cplx", [False, True])
def test_size_one_2f1_across_block_edges(monkeypatch, shape, cplx):
    a, b, c = (0.3 + 0.2j, 0.7, 1.9 - 0.1j) if cplx else (0.3, 0.7, 1.9)
    stops = set()
    for z in ZS:
        zz = np.full(shape, z)
        ref = ref_series_2f1(a, b, c, zz, 1e-12, 250_000)
        got = _series_2f1_raw((a, b), (c,), zz, 1e-12, 250_000)
        assert_same(got, ref)
        assert_like_arrays(got, on_arrays(monkeypatch, _series_2f1_raw, (a, b), (c,), zz, 1e-12, 250_000))
        stops.add(ref[1])
    assert EDGE_STOPS <= stops


@pytest.mark.parametrize("shape", SIZE_ONE)
@pytest.mark.parametrize("cplx", [False, True])
def test_size_one_rphis_across_block_edges(monkeypatch, shape, cplx):
    ctx = QContext(q=0.7)
    uppers, lowers = ([0.3 + 0.1j, 0.4], [0.7j]) if cplx else ([0.3, 0.4], [0.7])
    stops = set()
    for z in ZS:
        zz = np.full(shape, z)
        ref = ref_rphis(uppers, lowers, zz, ctx)
        got = _rphis_array(uppers, lowers, zz, ctx)
        assert_same(got, ref)
        assert_like_arrays(got, on_arrays(monkeypatch, _rphis_array, uppers, lowers, zz, ctx))
        stops.add(ref[1])
    assert EDGE_STOPS <= stops


def test_size_one_3f2_and_size_one_parameters(monkeypatch):
    for args in (((0.3, 0.7, -0.4), (1.9, 2.5), 0.6), ((np.array([0.3]), 0.7), (1.9,), -0.55)):
        got = _series_2f1_raw(*args, 1e-12, 250_000)
        assert_like_arrays(got, on_arrays(monkeypatch, _series_2f1_raw, *args, 1e-12, 250_000))


@pytest.mark.parametrize("shape", SIZE_ONE)
@pytest.mark.parametrize("max_terms", [8, 9, 16, 17, 24, 25, 40])
def test_size_one_max_terms_cap(monkeypatch, shape, max_terms):
    z = np.full(shape, 0.85)
    ref = ref_series_2f1(0.3, 0.7, 1.9, z, 1e-12, max_terms)
    assert ref[1] == max_terms and not ref[2]
    got = _series_2f1_raw((0.3, 0.7), (1.9,), z, 1e-12, max_terms)
    assert_same(got, ref)
    assert_like_arrays(got, on_arrays(monkeypatch, _series_2f1_raw, (0.3, 0.7), (1.9,), z, 1e-12, max_terms))
    ctx = QContext(q=0.9)
    ref = ref_rphis([0.3, 0.4], [0.7], z, ctx, max_terms=max_terms)
    assert ref[1] == max_terms and not ref[2]
    got = _rphis_array([0.3, 0.4], [0.7], z, ctx, max_terms=max_terms)
    assert_same(got, ref)
    assert_like_arrays(got, on_arrays(monkeypatch, _rphis_array, [0.3, 0.4], [0.7], z, ctx, max_terms=max_terms))


@pytest.mark.parametrize("shape", SIZE_ONE)
@pytest.mark.parametrize("lowers", [[0.7], [0.7 + 0.2j]], ids=["real", "complex"])
def test_size_one_terminate_after(monkeypatch, shape, lowers):
    ctx = QContext(q=0.6)
    for ta in (0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 30):
        uppers = [np.full(shape, 0.6**-ta), 0.4]
        args = (uppers, lowers, -0.4, ctx)
        ref = ref_rphis(*args, terminate_after=ta)
        assert ref[1] == ta and np.all(np.isfinite(ref[0]))
        got = _rphis_array(*args, terminate_after=ta)
        assert_same(got, ref)
        assert_like_arrays(got, on_arrays(monkeypatch, _rphis_array, *args, terminate_after=ta))


@pytest.mark.parametrize("shape", [(1,), (1, 1)])
def test_size_one_pole_rows(shape):
    """As test_pole_raises_only_where_the_term_loop_reaches_it, with the
    pole in a (1,) or (1, 1) lower parameter."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ctx = QContext(q=0.5)
        for k in (3, 7):
            with pytest.raises(PoleError):
                _rphis_array([0.3, 0.4], [np.full(shape, 0.5**-k)], 0.001, ctx)
        assert _rphis_array([0.3, 0.4], [np.full(shape, 0.5**-8)], 0.001, ctx)[1] == 8
        ctx = QContext(q=0.9)
        lowers = [np.full(shape, 0.9**-22)]
        ref = ref_rphis([0.3, 0.4], lowers, 0.3, ctx)
        assert ref[1] == 15
        assert_same(_rphis_array([0.3, 0.4], lowers, 0.3, ctx), ref)


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("a", [0.3, -2.0], ids=["inf", "nan"])
def test_size_one_zero_denominator_ends_as_in_an_array(a, cplx):
    """c = -2 zeroes the denominator of the step from term 2 to 3.  Python
    would raise ZeroDivisionError there; the series ends as the same element
    does inside a 2-element array, with inf or nan terms up to max_terms."""
    upper = (a + 0.1j if cplx else a, 0.7)
    with np.errstate(divide="ignore", invalid="ignore"):
        one = _series_2f1_raw(upper, (-2.0,), 0.5, 1e-12, 60)
        pair = _series_2f1_raw(upper, (-2.0,), np.array([0.5, 0.25]), 1e-12, 60)
    assert (one[1], one[2]) == (pair[1], pair[2]) == (60, False)
    np.testing.assert_array_equal(one[0], pair[0][0])
    assert not np.isfinite(one[0])
    assert math.isnan(one[3]) and math.isnan(pair[3])


def test_size_one_blocks_stay_narrow():
    widths = []

    def block(n0, W):
        widths.append(W)
        return [(np.multiply, np.full(W, 0.999))], None

    # A terminating series (margin None) runs all 5000 steps.
    total, n, converged, _, _ = series._sum_terms(block, (), np.float64, 5000, 1e-12)
    assert (n, converged, sum(widths)) == (5000, True, 5000)
    assert max(widths) == series._SCALAR_WIDTH
    assert total == pytest.approx((1.0 - 0.999**5001) / (1.0 - 0.999), rel=1e-10)


def test_size_one_series_at_the_term_cap():
    """gauss_2f1(1, 1, 2, 1 - 1e-7) runs its size-one series to the
    250 000-term cap; its value keeps every bit of the array row loop's."""
    res = gauss_2f1(1, 1, 2, 1 - 1e-7)
    assert (res.terms_used, res.converged) == (250_000, False)
    assert float(res.value).hex() == "0x1.9f6938c1b8041p+3"


# ---------------------------------------------------------------------------
# Doubling blocks over geometric and rising terms
# ---------------------------------------------------------------------------


def ref_stop(ratios, tol, max_terms, margin=1.0, min_terms=8):
    """ref_sum over ratio rows: t_{n+1} = t_n ratios[n]."""
    return ref_sum(lambda n, term: term * ratios[n], ratios.shape[1:], np.float64, max_terms, tol, margin,
                   min_terms)


def counted_sum(ratios, tol, max_terms, margin=1.0):
    """_sum_terms over the rows of ratios, and the rows its blocks formed."""
    formed = []

    def block(n0, W):
        formed.append(W)
        return [(np.multiply, ratios[n0 : n0 + W])], None

    total, n, converged, est, _ = series._sum_terms(block, ratios.shape[1:], np.float64, max_terms, tol, margin)
    return (total, n, converged, est), sum(formed)


@pytest.mark.parametrize("size", [4, 64])
@pytest.mark.parametrize("r", [0.3, 0.6, 0.9, 0.97])
def test_geometric_blocks_stop_as_the_term_loop(r, size):
    # Margin 1 - r, as for a direct 2F1 at max|z| = r: the doubling blocks
    # form rows past the stop, but stop at its term with its value.
    rows = np.broadcast_to(r * np.linspace(0.5, 1.0, size), (5000, size))
    want = ref_stop(rows, 1e-12, 5000, 1.0 - r)
    got, formed = counted_sum(rows, 1e-12, 5000, 1.0 - r)
    assert want[2]
    assert_same(got, want)
    assert want[1] <= formed


def test_rising_terms_reach_their_stop():
    # x^n / n! with x up to 40: the terms rise for 40 rows, over blocks that
    # keep doubling, before they fall to the stop.  At x = -25 they add in
    # magnitude to e^25 against a sum of e^-25: the floor is far above tol,
    # and the element's error shows that it must be.
    x = np.array([40.0, 12.0, -25.0])
    rows = x / np.arange(1.0, 401.0)[:, None]
    want = ref_stop(rows, 1e-12, 400)
    got, formed = counted_sum(rows, 1e-12, 400)
    assert want[1] == 94 and not want[2]
    assert_same(got, want)
    total, _, converged, est = got
    assert total[0] == pytest.approx(math.exp(40.0), rel=1e-12)
    err = abs(total[2] - math.exp(-25.0)) / (1.0 + math.exp(-25.0))
    assert not converged and 1e-12 < err <= est
