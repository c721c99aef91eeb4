"""Property tests of the chain-coupled engines against mpmath oracles.

appell_f2, saran_fk_reexpand and fk_L share one summation engine, so an
agreement test between them compares the engine with itself.  Each draw here
is checked against an independent oracle at 30 digits instead: every value
must be finite and lie within its own estimate, |value - oracle| <=
est_trunc_error (1 + |value|), and converged unless an interior argument of
the chain is negative.  Arguments of both signs are drawn, and fixed cases
cover a zero coupling and end arguments near +-1.  The F_K draws also check
saran_fk_triple, the second form of F_K.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from saranfk import FkParams, appell_f2, fk_L, gauss_2f1, saran_fk_reexpand, saran_fk_triple

PARAM = st.floats(min_value=0.2, max_value=3.0)
FRACTION = st.floats(min_value=0.05, max_value=0.95)
SIGN = st.sampled_from([-1.0, 1.0])


def check(r, oracle, zs=()):
    """zs are the chain's arguments in order.  The engine Pfaff transforms a
    negative end argument, so only a negative interior one can cancel enough
    for the rounding estimate to pass tol and leave a sum unconverged."""
    v = complex(r.value)
    assert np.isfinite(v)
    assert r.converged or min(zs[1:-1], default=0.0) < 0
    assert abs(v - complex(oracle)) <= r.est_trunc_error * (1 + abs(v))


def fk_reexpansion_oracle(p, x, y, z):
    """sum_k (alpha2)_k (beta1)_k z^k / ((gamma3)_k k!)
    2F1(beta1 + k, alpha1; gamma1; x) 2F1(alpha2 + k, beta2; gamma2; y)."""
    total, coef, small, k = mpmath.mpf(0), mpmath.mpf(1), 0, 0
    while small < 3:
        term = (
            coef
            * mpmath.hyp2f1(p.beta1 + k, p.alpha1, p.gamma1, x)
            * mpmath.hyp2f1(p.alpha2 + k, p.beta2, p.gamma2, y)
        )
        total += term
        small = small + 1 if abs(term) < 1e-22 * abs(total) else 0
        coef *= mpmath.mpf(p.alpha2 + k) * (p.beta1 + k) / ((p.gamma3 + k) * (k + 1)) * z
        k += 1
    return total


def f2_row_oracle(a, b1, b2, c1, c2, y, z):
    """sum_m (a)_m (b1)_m y^m / ((c1)_m m!) 2F1(a + m, b2; c2; z), with rows
    over the smaller argument; mpmath sums it where its own appellf2 stalls,
    near |y| = 1 or |z| = 1."""
    if abs(y) > abs(z):
        b1, b2, c1, c2, y, z = b2, b1, c2, c1, z, y
    total, coef, small, m = mpmath.mpf(0), mpmath.mpf(1), 0, 0
    while small < 3:
        term = coef * mpmath.hyp2f1(a + m, b2, c2, z)
        total += term
        small = small + 1 if abs(term) < 1e-22 * abs(total) else 0
        coef *= mpmath.mpf(a + m) * (b1 + m) / ((c1 + m) * (m + 1)) * y
        m += 1
    return total


def nested_chain_oracle(a1, a2, b, c, zs, N):
    """The L-fold sum over n_i < N, innermost index first: the sum over n_1
    for each n_2, then over n_2 for each n_3, and so on."""
    mpf = mpmath.mpf

    def rising(a, n):
        out = [mpf(1)]
        for j in range(n - 1):
            out.append(out[-1] * (a + j))
        return out

    fact = rising(1, 2 * N)
    L = len(zs)
    inner = [mpf(1)] * N
    for i in range(L):
        ends = rising(a1, N) if i == 0 else rising(a2, N) if i == L - 1 else [1] * N
        ci = rising(c[i], N)
        node = [inner[n] * ends[n] * mpf(zs[i]) ** n / (ci[n] * fact[n]) for n in range(N)]
        if i == L - 1:
            return mpmath.fsum(node)
        link = rising(b[i], 2 * N)
        inner = [mpmath.fsum(node[j] * link[j + k] for j in range(N)) for k in range(N)]


def oracle_size(zs, tol=1e-22):
    """Truncation N of the nested oracle from the slowest axis rate of the
    chain, with each neighbouring part summed geometrically."""
    az = [abs(v) for v in zs]
    left, right = [0.0], [0.0]
    for v in az[:-1]:
        left.append(v / (1 - left[-1]))
    for v in az[:0:-1]:
        right.append(v / (1 - right[-1]))
    rate = max(v / ((1 - lo) * (1 - hi)) for v, lo, hi in zip(az, left, right[::-1]))
    return int(math.log(tol) / math.log(rate)) + 16


@hsettings(max_examples=40, deadline=None, derandomize=True)
@given(a=PARAM, b1=PARAM, b2=PARAM, c1=PARAM, c2=PARAM,
       s=st.floats(min_value=0.05, max_value=0.9), f=FRACTION, sy=SIGN, sz=SIGN)
def test_appell_f2_against_mpmath(a, b1, b2, c1, c2, s, f, sy, sz):
    y, z = sy * s * f, sz * s * (1 - f)
    with mpmath.workdps(30):
        oracle = mpmath.appellf2(a, b1, b2, c1, c2, y, z)
    check(appell_f2(a, b1, b2, c1, c2, y, z), oracle)


@hsettings(max_examples=25, deadline=None, derandomize=True)
@given(params=st.tuples(*[PARAM] * 7),
       x=st.floats(min_value=-0.7, max_value=0.7), y=st.floats(min_value=-0.7, max_value=0.7),
       f=st.floats(min_value=0.05, max_value=0.8), sz=SIGN)
def test_saran_fk_against_reexpansion_oracle(params, x, y, f, sz):
    p = FkParams(*params)
    z = sz * f * (1 - abs(x)) * (1 - abs(y))
    with mpmath.workdps(30):
        oracle = fk_reexpansion_oracle(p, x, y, z)
    check(saran_fk_reexpand(p, x, y, z), oracle, (x, z, y))
    # The triple series has no Pfaff step, so a negative argument may leave
    # it unconverged; a converged result must lie within its estimate.
    r = saran_fk_triple(p, x, y, z)
    v = complex(r.value)
    assert np.isfinite(v)
    assert r.converged or min(x, y, z) < 0
    if r.converged:
        assert abs(v - complex(oracle)) <= r.est_trunc_error * (1 + abs(v))


@hsettings(max_examples=20, deadline=None, derandomize=True)
@given(a=st.tuples(*[PARAM] * 9), z1=st.floats(min_value=0.0, max_value=0.5),
       z4=st.floats(min_value=0.0, max_value=0.5), s=st.floats(min_value=0.05, max_value=0.7),
       f=FRACTION, signs=st.tuples(*[SIGN] * 4))
def test_fk_L4_against_nested_sum(a, z1, z4, s, f, signs):
    # Domain: |z2| / (1 - |z1|) + |z3| / (1 - |z4|) < 1.
    zs = [z1, s * f * (1 - z1), s * (1 - f) * (1 - z4), z4]
    zs = [v * sg for v, sg in zip(zs, signs)]
    a1, a2, b, c = a[0], a[1], list(a[2:5]), list(a[5:9])
    with mpmath.workdps(30):
        oracle = nested_chain_oracle(a1, a2, b, c, zs, oracle_size(zs))
    check(fk_L(a1, a2, b, c, zs), oracle, zs)


@hsettings(max_examples=20, deadline=None, derandomize=True)
@given(a=st.tuples(*[PARAM] * 11), w=st.tuples(*[FRACTION] * 5),
       s=st.floats(min_value=0.05, max_value=0.45), signs=st.tuples(*[SIGN] * 5))
def test_fk_L5_against_nested_sum(a, w, s, signs):
    # Domain: sum |z_i| < 1/2.
    zs = [s * wi / sum(w) * sg for wi, sg in zip(w, signs)]
    a1, a2, b, c = a[0], a[1], list(a[2:6]), list(a[6:11])
    with mpmath.workdps(30):
        oracle = nested_chain_oracle(a1, a2, b, c, zs, oracle_size(zs))
    check(fk_L(a1, a2, b, c, zs), oracle, zs)


@pytest.mark.parametrize(
    "params, x, y, z",
    [
        ((1.4426159767589923, 1.9016325450681597, 0.7585289096404244, 1.1437409008305996,
          2.8674817234010104, 2.925527269915171, 0.28771734171200014), 0.57233975189246, 0.018346257927840615,
         0.31306331800088283),
        ((2.138381498717787, 2.3869535055153577, 2.7970072719239116, 0.6192584866056522,
          1.953164441687068, 0.6021400407173942, 1.4407666355971511), 0.4007987040732248, 0.5525769111606036,
         0.16606462980905515),
    ],
    ids=["N264", "N276"],
)
def test_saran_fk_triple_long_products(params, x, y, z):
    # N = 264 and 276 shells: each term is a product of up to 2N roundings,
    # 4.2 and 4.5 times the floor of a plain sum of the terms.
    p = FkParams(*params)
    with mpmath.workdps(30):
        oracle = fk_reexpansion_oracle(p, x, y, z)
    r = saran_fk_triple(p, x, y, z)
    assert r.converged
    assert abs(complex(r.value) - complex(oracle)) <= r.est_trunc_error * (1 + abs(complex(r.value)))


P = FkParams(0.7, 0.9, 0.6, 0.8, 1.3, 1.5, 1.7)


@pytest.mark.parametrize(
    "x, y, z",
    [
        (0.99, 0.1, 0.001),  # the x axis falls like 0.995^m
        (0.999, 0.1, 1e-4),  # tens of thousands of terms on the x axis
        (-0.95, 0.1, 0.01),
        (-0.95, -0.9, 0.004),
        (0.3, -0.95, -0.03),
        (0.99, 0.1, 0.0),  # 2F1(0.7, 0.6; 1.3; 0.99): c - a - b = 0, no connection route
    ],
)
def test_saran_fk_near_unit_arguments(x, y, z):
    with mpmath.workdps(30):
        oracle = fk_reexpansion_oracle(P, x, y, z)
    check(saran_fk_reexpand(P, x, y, z), oracle)


@pytest.mark.parametrize(
    "y, z", [(0.005, 0.99), (-0.95, 0.04), (0.04, -0.95), (-0.5, -0.45)]
)
def test_appell_f2_near_unit_arguments(y, z):
    args = (0.7, 0.9, 0.6, 1.3, 1.5, y, z)
    with mpmath.workdps(30):
        oracle = f2_row_oracle(*args)
    check(appell_f2(*args), oracle)


def near(r, oracle, tol=1e-12):
    """A piece summed by gauss_2f1, whose estimate covers truncation but not
    the rounding of its near-one route, is checked at tol instead."""
    assert r.converged
    assert abs(complex(r.value) - complex(oracle)) <= tol * (1 + abs(r.value))


def test_zero_coupling_is_a_2f1_product():
    # z = 0 leaves 2F1(alpha1, beta1; gamma1; x) 2F1(alpha2, beta2; gamma2; y);
    # at x = 0.99 only the 2F1 routes near one converge.
    p = FkParams(0.7, 0.9, 0.6, 0.8, 1.9, 1.5, 1.7)
    r = saran_fk_reexpand(p, 0.99, 0.1, 0.0)
    with mpmath.workdps(30):
        near(r, mpmath.hyp2f1(0.7, 0.6, 1.9, 0.99) * mpmath.hyp2f1(0.9, 0.8, 1.5, 0.1))
    want = gauss_2f1(0.7, 0.6, 1.9, 0.99).value * gauss_2f1(0.9, 0.8, 1.5, 0.1).value
    assert r.value == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("y, z", [(0.0, 0.99), (0.99, 0.0), (0.0, -0.99)])
def test_appell_f2_on_an_axis_is_a_2f1(y, z):
    # F2(a; b1, b2; c1, c2; y, 0) = 2F1(a, b1; c1; y), and likewise in z.
    a, b, c, w = (0.7, 0.9, 1.9, y) if z == 0 else (0.7, 0.6, 1.5, z)
    r = appell_f2(0.7, 0.9, 0.6, 1.9, 1.5, y, z)
    assert r.value == pytest.approx(gauss_2f1(a, b, c, w).value, rel=1e-12)
    with mpmath.workdps(30):
        near(r, mpmath.hyp2f1(a, b, c, w))


def test_fk_L_cut_by_a_zero_interior_argument():
    # z2 = 0 leaves 2F1(a1, b1; c1; z1) times the L = 2 chain of z3, z4,
    # whose outer parameters are b2 and a2.
    a1, a2, b, c = 0.7, 0.9, [0.6, 0.8, 1.1], [1.9, 1.5, 1.7, 1.2]
    r = fk_L(a1, a2, b, c, [0.99, 0.0, 0.1, 0.2])
    with mpmath.workdps(30):
        f2 = mpmath.appellf2(b[2], b[1], a2, c[2], c[3], 0.1, 0.2)
        near(r, mpmath.hyp2f1(a1, b[0], c[0], 0.99) * f2)
