"""The one tail rule against 30-40 digit mpmath: a result reported converged
lies within its est_trunc_error, |value - oracle| <= est (1 + |value|).

The fixed points are series whose terms fall slower than a fixed margin
assumed: a direct 2F1 with a + b > c + 1, whose term ratio tends to |z| from
above; generic_f_a at slow decay, whose rows fall at decay |x3| / (1 - |x1|)
rather than 0.8; and a 2F1 on the Pfaff route, whose series estimate must
carry the prefactor (1 - z)^-a.  Each failed at the fixed margins: reported
converged, outside its estimate.  The sweeps draw from fixed seeds, so every
run checks the same points.
"""

import mpmath
import numpy as np
import pytest

from saranfk import gauss_2f1, hyper_pfq
from saranfk.series import _ratio_rate, generic_f_a, geometric_sequence


def within(r, oracle):
    v = complex(r.value)
    return abs(v - complex(oracle)) <= r.est_trunc_error * (1.0 + abs(v))


def mp_shifted_sum(a, b, c, x, w):
    """sum_m w^m 2F1(a + m, b; c; x) at the working precision, its members by
    the contiguous recurrence DLMF 15.5.11 run forward."""
    a, b, c, x, w = (mpmath.mpf(v) for v in (a, b, c, x, w))
    prev, cur = mpmath.hyp2f1(a, b, c, x), mpmath.hyp2f1(a + 1, b, c, x)
    total, power, small, k = prev + w * cur, w, 0, 1
    while small < 3:
        cur, prev = ((2 * (a + k) - c + (b - a - k) * x) * cur + (c - a - k) * prev) / ((a + k) * (1 - x)), cur
        power *= w
        term = power * cur
        total += term
        small = small + 1 if abs(term) < mpmath.mpf(10) ** -32 * abs(total) else 0
        k += 1
    return total


def mp_separable_f_a(r, alpha1, beta1, gamma1, alpha2, beta2, gamma2, x1, x2, x3, x4):
    """generic_f_a of geometric_sequence(r), whose a(m, n) = r^m r^n splits
    the double series into two shifted sums."""
    with mpmath.workdps(40):
        return (mp_shifted_sum(alpha1, beta1, gamma1, x1, r * x3)
                * mp_shifted_sum(alpha2, beta2, gamma2, x2, r * x4))


def test_direct_2f1_whose_terms_fall_slower_than_z():
    # The whole error is the tail after about 600 terms, whose ratio is 0.92,
    # not |z| = 0.8894.
    r = gauss_2f1(10.110, 11.840, 0.397, 0.8894)
    with mpmath.workdps(40):
        oracle = mpmath.hyp2f1(10.110, 11.840, 0.397, 0.8894)
    assert r.converged
    assert within(r, oracle)


@pytest.mark.parametrize("r, x3, x1", [(0.5, 1.6, 0.1), (0.5, 1.8, 0.02), (0.9, 0.95, 0.03)])
def test_generic_f_a_at_slow_decay(r, x3, x1):
    args = (0.5, 0.7, 1.3, 0.5, 0.7, 1.3, x1, 0.1, x3, 0.2)
    res = generic_f_a(geometric_sequence(r), *args)
    assert res.converged
    assert within(res, mp_separable_f_a(r, *args))


def test_pfaff_estimate_carries_its_prefactor():
    # (1 - z)^-a is about 227 here and the transformed series sums to 8e-4,
    # so its truncation, relative to 1 + |S|, grows about 190 times relative
    # to 1 + |value|: the series is summed that much further.
    r = gauss_2f1(-2.152, -1.507, 2.833, -11.4555)
    with mpmath.workdps(40):
        oracle = mpmath.hyp2f1(-2.152, -1.507, 2.833, -11.4555)
    assert r.converged
    assert within(r, oracle)


def test_pfq_ratio_rate_bounds_every_later_ratio():
    rng = np.random.default_rng(20)
    for _ in range(200):
        upper = list(rng.uniform(-3.0, 12.0, rng.integers(1, 4)))
        lower = list(rng.uniform(-4.5, 3.0, len(upper) - rng.integers(0, 2)))
        z = float(rng.uniform(-0.95, 0.95))
        rate = _ratio_rate(upper, lower, z)
        k = np.arange(300.0)
        ratios = abs(z) * np.prod([np.abs(u + k) for u in upper], axis=0)
        ratios /= (k + 1.0) * np.prod([np.abs(c + k) for c in lower], axis=0)
        for n in (0, 1, 3, 10, 40, 150):
            assert ratios[n:].max() <= rate(n) * (1.0 + 1e-12), (upper, lower, z, n)
    # Complex lowers with real parts down to -40: |c + k| stays at least
    # |Im c| where k passes -Re c.
    for _ in range(200):
        upper = list(rng.uniform(-3.0, 12.0, rng.integers(1, 4)))
        lower = list(rng.uniform(-40.0, 3.0, len(upper) - rng.integers(0, 2))
                     + 1j * rng.uniform(-3.0, 3.0, 1))
        z = float(rng.uniform(-0.95, 0.95))
        rate = _ratio_rate(upper, lower, z)
        k = np.arange(300.0)
        ratios = abs(z) * np.prod([np.abs(u + k) for u in upper], axis=0)
        ratios /= (k + 1.0) * np.prod([np.abs(c + k) for c in lower], axis=0)
        for n in (0, 1, 3, 10, 40, 150):
            assert ratios[n:].max() <= rate(n) * (1.0 + 1e-12), (upper, lower, z, n)


def test_q_ratio_rate_bounds_every_later_ratio():
    rng = np.random.default_rng(21)
    for _ in range(200):
        q = float(rng.uniform(0.1, 0.9))
        lower = list(rng.uniform(-3.0, 3.0, rng.integers(0, 3)) * np.exp(1j * rng.uniform(0, 6.3, 1)))
        upper = list(rng.uniform(-3.0, 3.0, len(lower) + 1 - rng.integers(0, 2)))
        z = float(rng.uniform(-0.95, 0.95))
        rate = _ratio_rate(upper, lower, z, q)
        qk = q ** np.arange(300.0)
        ratios = abs(z) * np.prod([np.abs(1.0 - u * qk) for u in upper], axis=0) * qk ** (1 + len(lower) - len(upper))
        ratios /= np.abs(1.0 - q * qk) * np.prod([np.abs(1.0 - c * qk) for c in lower], axis=0)
        for n in (0, 1, 3, 10, 40):
            assert ratios[n:].max() <= rate(n) * (1.0 + 1e-12), (upper, lower, z, q, n)
    # Negative real lower bases, whose |1 - b q^k| exceeds 1.
    for _ in range(200):
        q = float(rng.uniform(0.1, 0.9))
        lower = list(-rng.uniform(0.0, 3.0, rng.integers(1, 3)))
        upper = list(rng.uniform(-3.0, 3.0, len(lower) + 1 - rng.integers(0, 2)))
        z = float(rng.uniform(-0.95, 0.95))
        rate = _ratio_rate(upper, lower, z, q)
        qk = q ** np.arange(300.0)
        ratios = abs(z) * np.prod([np.abs(1.0 - u * qk) for u in upper], axis=0) * qk ** (1 + len(lower) - len(upper))
        ratios /= np.abs(1.0 - q * qk) * np.prod([np.abs(1.0 - c * qk) for c in lower], axis=0)
        for n in (0, 1, 3, 10, 40):
            assert ratios[n:].max() <= rate(n) * (1.0 + 1e-12), (upper, lower, z, q, n)


def test_complex_lower_with_negative_real_part_stops_early():
    # |c + k| >= |Im c| = 3 for every k, so the rate bound is finite from
    # the first term, though Re c + k <= 0 up to k = 20.
    r = hyper_pfq([1.5, 0.5], [-20.5 + 3j], 0.1)
    with mpmath.workdps(30):
        oracle = mpmath.hyper([1.5, 0.5], [-20.5 + 3j], 0.1)
    assert r.converged and r.terms_used < 21
    assert within(r, oracle)


def draws(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        z = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 0.9))
        yield float(rng.uniform(0.0, 12.0)), float(rng.uniform(0.0, 12.0)), float(rng.uniform(0.2, 3.0)), z


def test_direct_2f1_sweep():
    converged = 0
    for a, b, c, z in draws(34, 600):
        r = gauss_2f1(a, b, c, z)
        converged += r.converged
        if r.converged:
            with mpmath.workdps(40):
                assert within(r, mpmath.hyp2f1(a, b, c, z)), (a, b, c, z)
    assert converged >= 300


def test_hyper_pfq_sweep():
    converged = 0
    rng = np.random.default_rng(35)
    for a, b, c, z in draws(36, 300):
        upper, lower = [a, b], [c]
        if rng.random() < 0.5:  # a 3F2 with one more pair
            upper.append(float(rng.uniform(0.0, 12.0)))
            lower.append(float(rng.uniform(0.2, 3.0)))
        r = hyper_pfq(upper, lower, z)
        converged += r.converged
        if r.converged:
            with mpmath.workdps(40):
                assert within(r, mpmath.hyper(upper, lower, z)), (upper, lower, z)
    assert converged >= 150


def test_generic_f_a_geometric_sweep():
    rng = np.random.default_rng(37)
    converged = 0
    for _ in range(24):
        r = float(rng.uniform(0.3, 0.9))
        params = [float(v) for v in rng.uniform(0.2, 1.5, 6)]
        params[2] += 0.6
        params[5] += 0.6
        x1, x2 = (float(v) for v in rng.uniform(-0.3, 0.3, 2))
        x3, x4 = (float(s * v / r) for s, v in zip(rng.choice([-1.0, 1.0], 2), rng.uniform(0.2, 0.93, 2)))
        args = (*params, x1, x2, x3, x4)
        res = generic_f_a(geometric_sequence(r), *args)
        converged += res.converged
        if res.converged:
            assert within(res, mp_separable_f_a(r, *args)), (r, args)
    assert converged >= 12
