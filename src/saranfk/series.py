"""Classical hypergeometric series engines.

Covers Gauss 2F1 (with Pfaff and argument-near-one routes), generalized pFq,
the chain-coupled series (Appell F2, Saran's F_K and its L-variable
extension) through one chain engine, F_K again as a triple series, shifted
2F1 families by their contiguous recurrence, and the convolution family built
from shifted 2F1 products.

Truncation follows one rule.  An engine measures the part of the series it
summed last (a term, the last index shell, the summed boundary faces of an
index box, or the last slab of a chain axis) against the partial sum, as
tail / (margin (1 + |S|)): margin 1 - r for terms falling like r^n (r =
max|z| for a direct 2F1 or pFq with p = q + 1, 0.03 for a terminating one
at |z| >= 1, 0.5 for other pFq, 0.25 for r_phi_s; r observed for F_K shells
and chain slabs, times 0.25 and 0.025), 0.2 for box faces.  A series has
converged once that and the rounding floor (_floor), which no more terms
reduce, are at most tol; est_trunc_error is the larger.  The term drivers,
_sum_terms through _stop and _power_sum for a coefficient row times the
powers of many arguments, judge per element; a terminating sum reports its
floor.  Block engines grow through _grow, each to its own cap.
An upper parameter within pole tolerance of a non-positive integer is
rounded onto it, and the estimate carries the first term that cuts off.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from itertools import accumulate, groupby, repeat
from typing import Callable

import numpy as np
from numpy.polynomial.chebyshev import chebval

from .core import _BLOCK_ELEMS, _as_scalar, _check_indices, is_nonpositive_integer, pochhammer_table, sp
from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "SeriesResult",
    "FkParams",
    "CoeffSequence2D",
    "gauss_2f1",
    "hyper_pfq",
    "appell_f2",
    "in_domain_fk",
    "saran_fk_triple",
    "saran_fk_reexpand",
    "fk_L",
    "generic_f_a",
    "convolve2d",
    "delta_sequence",
    "geometric_sequence",
    "fk_diagonal_sequence",
]


@dataclass(frozen=True)
class SeriesResult:
    """Value of a truncated series plus how it was obtained.

    est_trunc_error is relative to (1 + |value|); converged=True implies it
    does not exceed the tolerance the evaluation was asked for.
    """

    value: complex
    terms_used: int
    converged: bool
    est_trunc_error: float

    def __complex__(self):
        return complex(self.value)

    def __iter__(self):
        """The fields in order, so _checked(*result) reads a record like an engine's tuple."""
        return iter((self.value, self.terms_used, self.converged, self.est_trunc_error))


@dataclass(frozen=True)
class FkParams:
    """Parameter set (alpha1, alpha2, beta1, beta2, gamma1, gamma2, gamma3)
    for Saran's F_K.  The gammas must avoid the non-positive integers."""

    alpha1: complex
    alpha2: complex
    beta1: complex
    beta2: complex
    gamma1: complex
    gamma2: complex
    gamma3: complex

    def __post_init__(self):
        for name in ("gamma1", "gamma2", "gamma3"):
            if is_nonpositive_integer(getattr(self, name)):
                raise PoleError(f"F_K parameter {name} is a non-positive integer")


def _snap_terminating(a):
    """Round an upper parameter onto Z_{<=0} when it is within pole tolerance,
    so terminating series cut off exactly."""
    if is_nonpositive_integer(a):
        return float(round(complex(a).real))
    return a


def _snapped(upper, lower, z):
    """The upper parameters through _snap_terminating, and the estimate that
    adds: the first term it cuts off, from the parameters as given, at
    max|z| and over the margin max(1 - max|z|, 0.03); 0.0 if none moved."""
    snapped = [_snap_terminating(u) for u in upper]
    if snapped == list(upper):
        return snapped, 0.0
    top, term = float(np.max(np.abs(z))), 1.0
    for k in range(min(-round(s) for s in snapped if is_nonpositive_integer(s)) + 1):
        term *= math.prod(complex(u) + k for u in upper) * top
        term /= math.prod((complex(c) + k for c in lower), start=k + 1.0)
    return snapped, abs(term) / max(1.0 - top, 0.03)


# ---------------------------------------------------------------------------
# Truncation core
# ---------------------------------------------------------------------------

_EPS = float(np.finfo(np.float64).eps)


def _tail_est(tail, margin: float, total) -> float:
    """Relative truncation estimate tail / (margin (1 + |total|)) of the
    block engines; _grow compares it with tol."""
    return tail / (margin * (1.0 + abs(total)))


def _floor(absum, n=0, total=0.0):
    """The rounding floor eps (sum |t| + sqrt(n) |S|) / (1 + |S|) of n terms t
    whose magnitudes add to absum and which sum to S, the largest over array
    elements (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., 4.2); no more terms reduce it.  Terms whose |t| add to at most
    k (1 + |S|) have a floor of at most _floor(k + sqrt(n))."""
    s = abs(total)
    floor = _EPS * (absum + math.sqrt(n) * s) / (1.0 + s)
    return float(floor.max()) if isinstance(floor, np.ndarray) else floor


def _series_len(ratio: float, tol: float, lo=24, hi=220) -> int:
    """First truncation length of a series whose terms fall like ratio^n:
    where ratio^n reaches tol/100, plus 8, clipped to [lo, hi].  A zero ratio
    leaves only the constant term."""
    if ratio <= 0.0:
        return 1
    return min(max(math.ceil(math.log(tol * 1e-2) / math.log(min(ratio, 0.98))) + 8, lo), hi)


def _grow(build, sizes, caps, tol: float, margin: float) -> SeriesResult:
    """Sum a block, growing it until it is accepted.

    build(sizes) returns (total, tails, floor, terms): a tail measure per axis
    (0.0 once complete) and the relative error no growth reduces (rounding,
    or inf where an inner series failed).  The block is accepted when its
    total is finite and floor and each _tail_est(tail, margin, total) are
    <= tol (a NaN fails); the largest is reported.  Each failing axis grows in
    turn to min(cap, int(1.5 n) + 8) until then or until all failing axes are
    capped.  caps lists the caps per axis, or is a function of the sizes that
    returns them, read again before each axis grows."""
    sizes = list(sizes)
    cap = caps if callable(caps) else lambda sizes: caps
    terms = 0
    while True:
        total, tails, floor, n = build(sizes)
        terms += n
        ests = [_tail_est(t, margin, total) for t in tails]
        failing = [i for i, e in enumerate(ests) if not e <= tol]
        converged = floor <= tol and not failing and bool(np.isfinite(total))
        grow = [i for i in failing if sizes[i] < cap(sizes)[i]]
        if converged or not grow:
            est = float(max(np.max(ests), floor))
            return SeriesResult(_as_scalar(total), terms, converged, est)
        for i in grow:
            sizes[i] = min(cap(sizes)[i], int(1.5 * sizes[i]) + 8)


def _face_tails(tensor: np.ndarray, complete=()) -> list:
    """Summed absolute terms on the last slab of each axis of an index box;
    0.0 for an axis of length one or one listed in complete."""
    return [
        0.0 if n < 2 or i in complete else float(np.abs(np.take(tensor, n - 1, axis=i)).sum())
        for i, n in enumerate(tensor.shape)
    ]


def _stop(rows, absum, n, margin, tol, run, lo, end):
    """The stopping rule of _sum_terms.  rows holds |t| and the partial sum S
    after terms n + 1, n + 2, ..., per element i: a pair of arrays with a
    leading row per term or, for one element, an iterator of pairs, read
    only up to the stop; absum is 1 + sum |t_i| before them.  A row's tail
    is max_i |t_i| / (margin (1 + |S_i|)), formed per element.  The sum
    stops at the first row past lo terms that ends a run of three tails
    within tol (none for margin None, a terminating sum), or at end terms,
    with the _floor of its terms.  Returns (stopping row or None, run,
    converged, estimate: the larger of tail and floor, or the last tail
    where no row stops, absum through that row)."""
    if not isinstance(rows, tuple):
        for last, (m, s) in enumerate(rows):
            s, absum = abs(s), absum + m
            e = 0.0 if margin is None else m / (margin * (1.0 + s))
            run = run + 1 if e <= tol else 0
            ok = (run >= 3 or margin is None) and n + last + 1 >= lo
            if ok or n + last + 1 >= end:
                floor = _floor(absum, n + last + 1, s)
                return last, run, ok and floor <= tol, max(floor, e), absum
        return None, run, False, e, absum
    j, R = None, len(rows[0])
    mags, sums = rows[0].reshape(R, -1), np.abs(rows[1]).reshape(R, -1)
    tails = [0.0] * R if margin is None else (mags / (margin * (1.0 + sums))).max(axis=1).tolist()
    for last, e in enumerate(tails):
        run = run + 1 if e <= tol else 0
        ok = (run >= 3 or margin is None) and n + last + 1 >= lo
        if ok or n + last + 1 >= end:
            j = last
            break
    absum = absum + mags[: last + 1].sum(axis=0)
    if j is None:
        return None, run, False, e, absum
    floor = _floor(absum, n + j + 1, sums[j])
    return j, run, ok and floor <= tol, max(floor, e), absum


# A block of W terms holds at most _BLOCK_ELEMS elements per array, so an
# input of that size or more is summed one term per block.
_SCALAR_WIDTH = 512  # rows per block of a one-element series, held as lists
_PY_OPS = {np.multiply: operator.mul, np.true_divide: operator.truediv}


@dataclass(frozen=True)
class _Same:
    """A _sum_terms operand that every step shares."""

    value: object


def _sum_terms(block, shape, dtype, max_terms, tol, margin=None, min_terms=8):
    """Partial sums 1 + t_1 + ... + t_n of a term-ratio recurrence, formed W
    terms at a time, and _stop's verdict on them (margin None for a
    terminating series of max_terms steps): (partial sum, n, converged,
    estimate, 1 + sum |t| per element, flat).

    block(n0, W) describes the steps from term n to term n+1 for n = n0 ..
    n0+W-1 as (ops, poles).  ops lists (ufunc, operand) pairs, applied in
    order to term n, each operand with one leading row per step or a _Same
    that every step shares; poles is None or a bool per row, True where that
    step's denominator vanished (PoleError if the sum reaches it).  A short
    loop over the rows forms each term as a term-at-a-time loop over arrays
    would, so real series keep their values to the bit; for one element
    _sum_scalar forms them in Python scalars until a denominator vanishes.
    W starts at 8 and doubles, within _SCALAR_WIDTH for one element and
    _BLOCK_ELEMS / size for arrays: only block boundaries depend on W."""
    scalar = math.prod(shape) == 1
    if scalar:
        state = [np.ones((), dtype=dtype).item()] * 2
    else:
        term, total = np.ones(shape, dtype=dtype), np.ones(shape, dtype=dtype)
    cap = _SCALAR_WIDTH if scalar else max(1, _BLOCK_ELEMS // max(1, math.prod(shape)))
    lo = max_terms if margin is None else min_terms
    if not max_terms:  # no steps: the constant term alone, converged where nothing follows it
        floor, tail = _floor(1.0, 0, 1.0), 0.0 if margin is None else 1.0 / (margin * 2.0)
        return np.ones(shape, dtype=dtype)[()], 0, margin is None and floor <= tol, max(floor, tail), 1.0
    absum, width, run, n = 1.0, 8, 0, 0
    while True:
        W = min(width, cap, max_terms - n)
        width = 2 * W
        ops, poles = block(n, W)
        rows = int(np.argmax(poles)) if poles is not None and poles.any() else W
        if scalar and rows:
            start = state[:]
            try:
                j, run, converged, est, absum = _stop(scan := _sum_scalar(state, ops, rows), absum, n, margin, tol,
                                                      run, lo, max_terms)
                scan.close()
                if j is not None:
                    return np.full(shape, state[1], dtype=dtype)[()], n + j + 1, converged, est, absum
            except ZeroDivisionError:
                # numpy gives inf or nan, or warns, as the caller's errstate says.
                scalar = False
                term, total = (np.full(shape, v, dtype=dtype) for v in start)
        if not scalar:
            steps = np.empty((W,) + shape, dtype=dtype)
            sums = np.empty_like(steps)
            (first, f0), *rest = [(uf, [f.value] * W if isinstance(f, _Same) else f) for uf, f in ops]
            for j in range(W):
                # [j, ...] keeps a 0-d view for scalar series, which out= needs.
                step = steps[j, ...]
                first(term, f0[j], out=step)
                for uf, f in rest:
                    uf(step, f[j], out=step)
                term = step
                total = np.add(total, step, out=sums[j, ...])
            if rows:
                mags = np.abs(steps[:rows])
                j, run, converged, est, absum = _stop((mags, sums[:rows]), absum, n, margin, tol, run, lo, max_terms)
                if j is not None:
                    return sums[j].copy()[()], n + j + 1, converged, est, absum
        if rows < W:
            raise PoleError("series denominator factor vanished")
        n += W


def _sum_scalar(state, ops, rows):
    """(|t|, partial sum) of a _sum_terms block's first rows for one element in
    Python scalars, formed as read by the row loop's operations in its order
    from state's term and sum, where the last ones read are left on close."""
    fns = [_PY_OPS[uf] for uf, _ in ops]
    cols = [repeat(np.asarray(f.value).item(), rows) if isinstance(f, _Same)
            else np.asarray(f).ravel()[:rows].tolist() for _, f in ops]
    term, total = state
    try:
        for vals in zip(*cols):
            for fn, v in zip(fns, vals):
                term = fn(term, v)
            total += term
            yield abs(term), total
    finally:
        state[:] = term, total


def _power_sum(coef, z, tol, margin, max_terms, N):
    """sum_n C[:, n] z^n for every row of C = coef(N) and argument in z, as
    (z^n) @ C^T of shape (z.size, rows), its power matrix formed for as many
    arguments at a time as keep it within _BLOCK_ELEMS entries.  N grows to
    min(max_terms, 1.5 N + 8) until the per-element tail of the last three
    terms is within tol.  Returns (sums, N, converged, estimate), or None,
    leaving the series to the caller's recurrence, where a power row would
    exceed _BLOCK_ELEMS, coef returns None (a vanishing denominator), a sum
    is not finite or its terms add in magnitude past 4 (1 + |sum|), so that
    its floor is at most _floor(4 + sqrt(N + 1)).  Overflow there is not
    warned of."""
    zflat = np.ravel(z)
    az = np.abs(zflat)
    top = float(az.max())

    def powers(w, D):
        return np.concatenate([np.vander(w[i : i + step], N + 1, increasing=True) @ D.T
                               for i in range(0, w.size, step)])
    while N < _BLOCK_ELEMS:
        step = _BLOCK_ELEMS // (N + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            C = coef(N)
            if C is None:
                return None
            total = powers(zflat, C)
            if not np.isfinite(total).all():
                return None
            last = np.abs(C[:, -3:])
            peak = float((last.max(axis=0) * top ** np.arange(N - 2.0, N + 1.0)).max())
        mag = np.abs(total)
        # The last three terms' largest |t| against the largest |S| first.
        if peak / (margin * (1.0 + float(mag.max()))) <= tol or N >= max_terms:
            # The product's strided partial sums lose digits where terms cancel.
            # A row whose bound sum_n |C[r, n]| max|z|^n passes at every
            # argument needs no magnitude product of its own.
            if np.iscomplexobj(C) or np.iscomplexobj(zflat) or min(C.min(), zflat.min()) < 0.0:
                absC, room = np.abs(C), 4.0 * (1.0 + mag)
                rows = absC @ top ** np.arange(N + 1.0) > room.min(axis=0)
                if rows.any() and not (powers(az, absC[rows]) <= room[:, rows]).all():
                    return None
            # Per element |t| / (1 + |S|), first bounded by max|t| / (1 + min|S|).
            tail = peak / (1.0 + float(mag.min())) / margin
            if not tail <= tol:
                with np.errstate(over="ignore", invalid="ignore"):
                    mags = (last.T[:, None, :] * az[:, None] ** np.arange(N - 2.0, N + 1.0)[:, None, None]).max(axis=0)
                    tail = float((mags / (1.0 + mag)).max()) / margin
            if tail <= tol or N >= max_terms:
                floor = _floor(4.0 + math.sqrt(N + 1.0))
                return total, N, tail <= tol and floor <= tol, max(floor, tail)
        N = min(max_terms, int(1.5 * N) + 8)
    return None


# ---------------------------------------------------------------------------
# Gauss 2F1
# ---------------------------------------------------------------------------


def _pfq_terms(upper, lower, z, tol, max_terms):
    """Direct power series of pFq(upper; lower; z) for any p and q (2F1, the
    3F2 of erdelyi-3, hyper_pfq), broadcasting over all inputs, as
    _sum_terms returns it.  The terms are formed as (a+n)(b+n)... /
    ((n+1)(c+n)...) z, in that order, with margin 1 - max|z| for p = q + 1
    (0.03 for a terminating such series at |z| >= 1) and 0.5 otherwise.
    """
    arrs = [np.asarray(v) for v in (*upper, *lower, z)]
    shape = np.broadcast_shapes(*(v.shape for v in arrs))
    dtype = np.complex128 if any(np.iscomplexobj(v) for v in arrs) else np.float64
    *params, z = (v.astype(dtype) for v in arrs)
    upper, lower = params[: len(upper)], params[len(upper) :]
    top = float(np.abs(z).max())
    margin = 0.5 if len(upper) != len(lower) + 1 else 1.0 - top if top < 1.0 else 0.03
    # Terms may fall and then jump where a lower parameter c + n passes
    # zero, so the series runs past n = -Re(c) before it may stop.
    min_terms = max(8, 2 + math.ceil(-min((float(v.real.min()) for v in lower), default=0.0)))
    col = (1,) * max((v.ndim for v in params), default=0)
    zop = _Same(z)

    def block(n0, W):
        # One row per term index over the parameters' axes only; with scalar
        # parameters a row is a numpy scalar, the cheapest ufunc operand.
        n = np.arange(n0, n0 + W, dtype=np.float64).reshape((W,) + col)
        num = upper[0] + n if upper else np.ones_like(n)
        for u in upper[1:]:
            num = num * (u + n)
        den = n + 1.0
        for c in lower:
            den = den * (c + n)
        return [(np.multiply, num), (np.true_divide, den), (np.multiply, zop)], None

    return _sum_terms(block, shape, dtype, max_terms, tol, margin, min_terms)


def _series_2f1_raw(upper, lower, z, tol, max_terms):
    """_pfq_terms as (value array, terms, converged, relative estimate)."""
    return _pfq_terms(upper, lower, z, tol, max_terms)[:4]


def _series_pfq(upper, lower, z, tol, max_terms):
    """_series_2f1_raw, or _power_sum where p = q + 1, every parameter is a
    scalar and z holds two or more arguments, all with |z| < 1: they share
    one coefficient row, the cumulative product of the term ratios
    (a+n)(b+n)... / ((n+1)(c+n)...), summed at margin 1 - max|z| from
    N = _series_len(max|z|, tol) terms, or past -Re(c) of a negative lower
    parameter.  Where _power_sum declines, the recurrence sums the series."""
    z = np.asarray(z)
    if z.size >= 2 and len(upper) == len(lower) + 1 and not any(np.ndim(v) for v in (*upper, *lower)):
        top = float(np.abs(z).max())
        if top < 1.0:
            def coef(N):
                k = np.arange(N, dtype=np.float64)
                num = math.prod(u + k for u in upper)
                den = math.prod((c + k for c in lower), start=k + 1.0)
                return np.cumprod(np.concatenate([[1.0], num / den]))[None] if den.all() else None

            N = max(_series_len(top, tol), 8, 2 + math.ceil(-min((complex(c).real for c in lower), default=0.0)))
            res = _power_sum(coef, z, tol, 1.0 - top, max_terms, N)
            if res is not None:
                return (res[0].reshape(z.shape), *res[1:])
    return _series_2f1_raw(upper, lower, z, tol, max_terms)


def _connection_ok(a, b, c) -> bool:
    """The 1-z expansion needs c-a-b away from the integers and a, b off the
    pole lattice of the leading gamma factors."""
    cab = complex(c) - complex(a) - complex(b)
    if abs(cab.imag) < 1e-12 and abs(cab.real - round(cab.real)) < 1e-6:
        return False
    return True


def _connection_coeffs(a, b, c):
    """(A, B) of 2F1(a,b;c;1-w) = A 2F1(a,b;a+b-c+1;w) + B w^(c-a-b)
    2F1(c-a,c-b;c-a-b+1;w).  rgamma sends the denominator poles (an upper
    parameter in Z_{<=0}) to a clean zero coefficient instead of a NaN."""
    cab = c - a - b
    A = np.exp(sp.loggamma(c) + sp.loggamma(cab)) * sp.rgamma(c - a) * sp.rgamma(c - b)
    B = np.exp(sp.loggamma(c) + sp.loggamma(-cab)) * sp.rgamma(a) * sp.rgamma(b)
    return A, B


def _series_2f1_near_one(a, b, c, w, tol, max_terms):
    """2F1(a, b; c; 1-w) = A s1 + B w^cab s2 by the connection formula, for
    small |w| and scalar a, b, c.  Taking w itself spares callers that hold
    it exactly the rounding of 1 - (1 - w).

    The estimate is the two series' tails plus rounding, first order in eps:
    each part's summed |terms| (a negative lower parameter makes them far
    exceed its sum), |A| sum |t1| and |B w^cab| sum |t2|, times 4 plus
    |ln Gamma(x)| + |x psi(x)| (exponent and condition number) over the
    Gamma factors of its coefficient, and |cab ln w| for the power; and the
    rounding of cab and of the two lower parameters, taken as
    eps (|a| + |b| + |c| + 1), times the result's derivative in each.  Near
    an integer c - a - b the two parts cancel and this grows past tol."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    c = np.asarray(c, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    cab = c - a - b
    c1 = a + b - c + 1.0
    A, B = _connection_coeffs(a, b, c)
    s1, n1, ok1, e1, abs1 = _pfq_terms((a, b), (c1,), w, tol, max_terms)
    s2, n2, ok2, e2, abs2 = _pfq_terms((c - a, c - b), (cab + 1.0,), w, tol, max_terms)
    Bp = B * np.power(w, cab)
    out = A * s1 + Bp * s2
    t1, t2 = np.abs(A) * abs1, np.abs(Bp) * abs2
    x = np.array([c, cab, c - a, c - b, c, -cab, a, b])
    psi = sp.psi(x if x.imag.any() else x.real)
    with np.errstate(invalid="ignore"):
        cond = np.abs(sp.loggamma(x)) + np.abs(x * psi)
    # A pole of an rgamma factor (a or b at 0, say) zeroes its coefficient.
    cond[~np.isfinite(cond)] = 0.0
    log_w = np.log(w)
    rounding = (4.0 + cond[:4].sum()) * t1 + (4.0 + cond[4:].sum() + np.abs(cab * log_w)) * t2
    # d/d cab through Gamma(+-cab) and w^cab; a series' relative change per
    # unit of its lower parameter is at most sum 1 / |lower + k|.
    d_cab = np.abs(A * psi[1] * s1 - Bp * (psi[5] - log_w) * s2)
    d_low = t1 * np.sum(1.0 / np.abs(c1 + np.arange(n1)))
    d_low += t2 * np.sum(1.0 / np.abs(cab + 1.0 + np.arange(n2)))
    rounding += (abs(a) + abs(b) + abs(c) + 1.0) * (d_cab + d_low)
    est = e1 + e2 + float(np.max(_tail_est(_EPS * rounding, 1.0, out)))
    return out, n1 + n2, ok1 and ok2 and est <= tol, est


# An array of this many real arguments or more, with scalar parameters, is
# summed from a Chebyshev proxy: at most 25 + 41 + 65 point evaluations then
# stand in for all of its elements, which pays once they outnumber the
# degree-64 nodes about four to one.
_PROXY_MIN = 256


def _cheb_table(n: int):
    """Chebyshev points of the second kind on [-1, 1], ends included, and the
    matrix taking values there to the coefficients of their interpolant."""
    k = np.arange(n + 1)
    T = np.cos(np.pi / n * np.outer(k, k)) * (2.0 / n)
    T[:, [0, -1]] *= 0.5
    T[[0, -1]] *= 0.5
    return np.cos(np.pi / n * k), T


_CHEB = [_cheb_table(n) for n in (24, 40, 64)]  # proxy degrees, in the order tried


def _proxy_2f1(a, b, c, z, tol, max_terms):
    """2F1 over a large real argument array z < 1 from a Chebyshev proxy on
    [min z, max z], or None where the per-element routes must take it.

    The proxy interpolates point values from _eval_2f1 at degree 24, 40, then
    64, stopping at the first whose last four coefficients (the trailing part
    of chebfun's chopping rule) fall below tol relative to the values, and
    sums at every element by Clenshaw.  The estimate is the largest point
    estimate plus the trailing coefficients' size and Clenshaw's rounding,
    (n + 1) eps sum |c_j| at degree n, relative to 1 + max |value|; the
    result is converged when the point evaluations are and the estimate is
    at most tol, and an unconverged point evaluation is passed on.  None when
    z reaches 1 or is not spread over an interval, or the coefficients have
    not decayed by degree 64."""
    lo, hi = float(z.min()), float(z.max())
    if not lo < hi < 1.0:
        return None
    terms = 0
    for t, T in _CHEB:
        f, n, ok, e = _eval_2f1(a, b, c, 0.5 * (hi + lo) + 0.5 * (hi - lo) * t, tol, max_terms)
        terms += n
        coef = T @ f
        top = float(np.max(np.abs(f)))
        tail = _tail_est(float(np.abs(coef[-4:]).sum()), 1.0, top)
        est = e + tail + _tail_est(coef.size * _EPS * float(np.abs(coef).sum()), 1.0, top)
        if not ok or est <= tol:
            x = (2.0 * z - (hi + lo)) / (hi - lo)
            return chebval(x, coef), terms, ok, est
    return None


def _eval_2f1(a, b, c, z, tol, max_terms=250_000):
    """Route a 2F1 evaluation with scalar a, b and c over a scalar or array
    argument z.

    A real argument array of _PROXY_MIN elements or more is summed from a
    Chebyshev proxy (_proxy_2f1) where one resolves it; each element
    otherwise takes one of the routes below, split by argument: the direct
    series for |z| <= 0.9 (and for a terminating series), Pfaff's z / (z - 1),
    the expansion around z = 1, or the slow direct series up to |z| < 1.

    Returns (value, terms, converged, relative tail estimate).  Raises
    DomainError when no convergent route covers some argument.
    """
    if is_nonpositive_integer(c):
        raise PoleError(f"2F1 lower parameter c={c} is a non-positive integer")
    (a, b), cut = _snapped((a, b), (c,), z)
    if cut:
        value, terms, converged, est = _eval_2f1(a, b, c, z, tol, max_terms)
        return value, terms, converged and est + cut <= tol, est + cut

    zarr = np.asarray(z)
    if zarr.size >= _PROXY_MIN and not np.iscomplexobj(zarr):
        res = _proxy_2f1(a, b, c, zarr, tol, max_terms)
        if res is not None:
            return res
    az = np.abs(zarr)
    if is_nonpositive_integer(a) or is_nonpositive_integer(b) or np.all(az <= 0.9):
        return _series_pfq((a, b), (c,), zarr, tol, max_terms)

    # Mixed regimes: split the argument array by the transform that converges.
    with np.errstate(divide="ignore", invalid="ignore"):
        zp = zarr / (zarr - 1.0)
    azp = np.abs(zp)
    m_direct = az <= 0.9
    m_pfaff = ~m_direct & (azp <= 0.9)
    rest = ~m_direct & ~m_pfaff
    # The 1-z expansion only serves points inside the unit disc; outside it
    # the function continues onto the branch cut and the contract is a
    # domain error instead.
    m_conn = rest & (np.abs(1.0 - zarr) <= 0.9) & (az < 1.0) if _connection_ok(a, b, c) else np.zeros_like(rest)
    rest = rest & ~m_conn
    m_slow = rest & (az < 1.0)
    m_pfaff_slow = rest & ~m_slow & (azp < 1.0)
    if np.any(rest & ~m_slow & ~m_pfaff_slow):
        raise DomainError("2F1 argument outside |z|<1 and every transform range")

    cplx = any(np.iscomplexobj(v) for v in (a, b, c, zarr))
    out = np.zeros(zarr.shape, dtype=np.complex128 if cplx else np.float64)
    terms = 0
    converged = True
    est = 0.0

    def do(mask, fn):
        nonlocal terms, converged, est, out
        if not np.any(mask):
            return
        vals, n, ok, e = fn(zarr[mask])
        if np.iscomplexobj(vals) and not np.iscomplexobj(out):
            out = out.astype(np.complex128)
        out[mask] = vals
        terms += n
        converged = converged and ok
        est = max(est, e)

    def direct(Z, B=b):
        return _series_pfq((a, B), (c,), Z, tol, max_terms)

    def slow(Z, B=b, cap=max_terms):
        # Past |z| = 0.9 the terms fall like r^n, r the ratio of the last
        # step, which a + b > c + 1 keeps above |z|: summed to tol / 2, the
        # estimate is scaled by (1 - |z|) / (1 - r).
        v, n, ok, e = _series_2f1_raw((a, B), (c,), Z, tol / 2, cap)
        top = float(np.max(np.abs(Z)))
        r = max(top, top * abs((a + n) * (B + n) / ((c + n) * (n + 1.0))))
        e = e * (1.0 - top) / (1.0 - r) if r < 1.0 else math.inf
        return v, n, ok and e <= tol, e

    def pfaff(Z, series=direct):
        # A real Z here lies below 1/2, so 1 - Z > 0.
        v, n, ok, e = series(Z / (Z - 1.0), c - b)
        return np.power(1.0 - Z, -a) * v, n, ok, e

    def near_one(Z):
        # Near an integer c - a - b the connection formula cancels and its
        # estimate exceeds tol; the direct series, up to 20000 terms, then
        # takes over where it converges.
        res = _series_2f1_near_one(a, b, c, 1.0 - Z, tol, max_terms)
        if res[2]:
            return res
        v, n, ok, e = slow(Z, cap=min(max_terms, 20_000))
        return (v, res[1] + n, ok, e) if ok else res

    do(m_direct, direct)
    do(m_pfaff, pfaff)
    do(m_conn, near_one)
    do(m_slow, slow)
    do(m_pfaff_slow, lambda Z: pfaff(Z, slow))

    if not cplx and np.iscomplexobj(out):
        # Real parameters and 0 < z < 1 give a real function; the imaginary
        # residue is rounding noise from the log-gamma prefactors.
        out = out.real
    # out[()] is the scalar of a 0-d out and out itself otherwise.
    return out[()], terms, converged, est


def _checked(value, terms, converged, est):
    """The value of a (value, terms, converged, estimate) evaluation, an
    engine's tuple or a SeriesResult unpacked; ConvergenceError if it did not
    converge."""
    if not converged:
        raise ConvergenceError(f"series did not converge after {terms} terms (estimate {est:.1e})")
    return value


def _shifted_2f1_rows(a, b, c, z, K: int, tol: float):
    """Yield F[k] = 2F1(a+k, b; c; z) for k < K, one at a time in the dtype
    of a, b, c, z and the first seed, over a scalar or array z with scalar a,
    b and c.

    Two seed series by _eval_2f1, converged or, for a tol below their
    rounding floor, within _floor(5 + sqrt(n)), that of n terms whose |t|
    add to at most 4 (1 + |S|) after the first (ConvergenceError otherwise),
    then DLMF 15.5.11 run forward,

        (a+k)(1-z) F[k+1] = (2(a+k) - c + (b-a-k) z) F[k] + (c-a-k) F[k-1].

    A step where a + k is zero is singular; F[k+1] is then seeded too.  For
    real z < 1 the family grows like (1-z)^-k k^(b-c) or falls like k^-b,
    and the other solution of the recurrence falls behind it, so forward is
    the stable direction: errors stay relative to F.  If b is near a
    non-positive integer the first term vanishes and F is the small
    solution; the error is then eps (1-z)^-k, relative to the growth that
    the callers' outer series is built to absorb.  Only the two latest
    members are held."""

    def seed(ak):
        value, n, converged, est = _eval_2f1(ak, b, c, z, tol)
        return _checked(value, n, converged or tol < est <= _floor(5.0 + math.sqrt(n)), est)

    F0 = seed(a)
    dtype = np.result_type(F0, a, b, c, z)
    prev = np.asarray(F0, dtype)
    yield prev
    if K < 2:
        return
    cur = np.asarray(seed(a + 1.0), dtype)
    yield cur
    k0 = -round(complex(a).real) if is_nonpositive_integer(a) else 0
    scalar = np.ndim(z) == 0
    if scalar:
        # Python scalars: the same operations in the same order as on arrays,
        # without numpy's per-operation overhead on 0-d values.
        a, b, c, z = (np.asarray(v).item() for v in (a, b, c, z))
        prev, cur = prev.item(), cur.item()
    inv = 1.0 / (1.0 - z)
    for k in range(1, K - 1):
        ak = a + k
        if k == k0:
            new = seed(ak + 1.0)
        else:
            step = ((2.0 * ak - c) / ak + (b - ak) / ak * z) * inv
            new = step * cur + (c - ak) / ak * inv * prev
        prev, cur = cur, new if scalar else np.asarray(new, dtype)
        yield dtype.type(cur) if scalar else cur


def _shifted_2f1(a, b, c, z, K: int, tol: float) -> np.ndarray:
    """The K members of _shifted_2f1_rows stacked on a new first axis."""
    rows = _shifted_2f1_rows(a, b, c, z, K, tol)
    F0 = next(rows)
    F = np.empty((K,) + F0.shape, dtype=F0.dtype)
    F[0] = F0
    for k, row in enumerate(rows, 1):
        F[k] = row
    return F


def gauss_2f1(a, b, c, z, tol: float = 1e-12) -> SeriesResult:
    """Gauss hypergeometric 2F1(a, b; c; z).

    Direct series for |z| <= 0.9; the Pfaff transform z -> z/(z-1) or the
    expansion around z = 1 otherwise, and the direct series again where that
    expansion's rounding estimate exceeds tol (c - a - b near an integer).
    Raises DomainError when |z| >= 1 and no transform applies, PoleError for
    c in Z_{<=0}.  A scalar z never takes the Chebyshev proxy that
    _eval_2f1 keeps for large argument arrays.
    """
    value, terms, converged, est = _eval_2f1(a, b, c, z, tol)
    return SeriesResult(_as_scalar(value), terms, converged, est)


# ---------------------------------------------------------------------------
# Generalized pFq
# ---------------------------------------------------------------------------


def hyper_pfq(upper, lower, z, tol: float = 1e-12, max_terms: int = 200_000) -> SeriesResult:
    """Generalized hypergeometric sum_n prod(upper)_n / prod(lower)_n z^n / n!.

    Entire for p <= q; requires |z| < 1 for p = q + 1 unless an upper
    parameter terminates the series.  The estimate and the flag are _stop's,
    tail and rounding floor, with the term a snapped upper parameter cuts off.
    """
    _check_indices(max_terms=max_terms)
    for ell in lower:
        if is_nonpositive_integer(ell):
            raise PoleError(f"pFq lower parameter {ell} is a non-positive integer")
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"pFq argument {z} is not finite")
    upper, cut = _snapped(upper, lower, z)
    terminating = any(is_nonpositive_integer(u) for u in upper)
    if len(upper) > len(lower) + 1 and not terminating and z != 0:
        raise DomainError("pFq with p > q+1 diverges for z != 0")
    if len(upper) == len(lower) + 1 and abs(z) >= 1.0 and not terminating:
        raise DomainError("pFq with p = q+1 requires |z| < 1")

    # A real z is summed in floats: complex arithmetic with zero imaginary
    # parts rounds the same way.
    total, n, converged, est = _series_2f1_raw(
        upper, lower, z.real if z.imag == 0 else z, tol, max_terms)
    return SeriesResult(_as_scalar(total), n, converged and est + cut <= tol, est + cut)


# ---------------------------------------------------------------------------
# Chain-coupled series: Appell F2, Saran F_K and its L-variable extension
# ---------------------------------------------------------------------------

# Cap of the chain engine: a link between neighbouring axes holds at most
# _CHAIN_CAP^2 entries, so an axis grows to _CHAIN_CAP beside one as long and
# to 32 _CHAIN_CAP beside short ones (an end node with |z| near 1).
_CHAIN_CAP = 2000
# Block width of the prefix products in _scaled_prods.
_SCALE_BLOCK = 16
# Exponent of a zero entry: below any real one, so it never sets a scale.
_ZERO_EXP = -(1 << 40)


def _scaled(v):
    """v as m 2^e with |m| in [0.5, 1); a zero gets e = _ZERO_EXP, a subnormal
    keeps e = -1021 and a smaller m."""
    e = np.maximum(np.frexp(np.abs(v))[1], -1021)
    return v * np.ldexp(1.0, -e), np.where(v == 0, _ZERO_EXP, e)


def _scaled_prods(ratios):
    """Prefix products 1, r_0, r_0 r_1, ... of each row as _scaled pairs, so no
    entry overflows or underflows.  Each block of _SCALE_BLOCK is a cumprod,
    carried by the product of the block ends before it: their powers of two
    summed, their mantissas multiplied by this same function."""
    T, n = ratios.shape
    pad = np.ones((T, _SCALE_BLOCK - 1 - n % _SCALE_BLOCK))
    r = np.concatenate([np.ones((T, 1)), ratios, pad], axis=1)
    blocks = np.cumprod(r.reshape(T, -1, _SCALE_BLOCK), axis=2)
    carry_e = np.zeros((T, blocks.shape[1]), np.int64)
    if blocks.shape[1] > 1:
        end_m, end_e = _scaled(blocks[:, :-1, -1])
        carry_m, carry_e = _scaled_prods(end_m)
        carry_e[:, 1:] += np.cumsum(end_e, axis=1)
        blocks = blocks * carry_m[:, :, None]
    m, e = _scaled(blocks)
    e = e + carry_e[:, :, None]
    return m.reshape(T, -1)[:, : n + 1], e.reshape(T, -1)[:, : n + 1]


def _hankel(h, rows: int, ks: range):
    """Read-only view H[j, k] = h[j + k] for j < rows and k in ks.  It is
    what sliding_window_view gives, at a tenth of its call overhead."""
    H = np.ndarray((rows, len(ks)), h.dtype, h, ks.start * h.strides[0], h.strides * 2)
    H.flags.writeable = False
    return H


def _link(hm, he, ve, ks: range, absv, signed=None):
    """sum_j v_j h_{j+k} for k in ks, where v = absv 2^ve and h = hm 2^he, each
    k under its largest power: (absolute sum, signed sum of signed, powers).
    A sum's mantissa lies within a factor len(ve) of its leading term's, so
    messages passed on need no renormalising."""
    X = _hankel(he, len(ve), ks) + ve[:, None]
    top = X.max(axis=0)
    A = _hankel(hm, len(ve), ks) * np.ldexp(1.0, np.subtract(X, top, out=X))
    signed_sum = None if signed is None else signed @ A
    return absv @ np.abs(A), signed_sum, top


def _chain_run(a1, a2, b, c, zs, tol: float) -> SeriesResult:
    """The chain series of _chain_sum for L >= 2 nonzero arguments.

    Node i multiplies a message by z^n / ((c)_n n!) (and (a1)_n, (a2)_n at the
    ends), the Hankel link (b_i)_{j+k} carries it on; tables are mantissas and
    powers of two, so no box n_i < N_i overflows.  The forward pass sums, the
    backward one gives each axis's last slabs: an axis reports its last slab
    over 1 - r, r as _shell_rate reads them, with _grow's margin 0.025, a tenth
    of saran_fk_triple's, so the two forms converged at tol agree well within
    it.  The estimate also covers rounding, 4 times the _floor of the sum
    |S| and sum |t| over sum N_i terms, which no growth reduces."""
    L = len(zs)
    v = np.array([a1, a2, *b, *c, *zs]) + 0.0
    a1, a2 = v[0], v[1]
    b, c, zs = v[2 : L + 1], v[L + 1 : 2 * L + 1], v[2 * L + 1 :]

    # First sizes: each side of node i sums like a geometric series.
    def side(az):
        return np.array(list(accumulate(az, lambda r, v: min(0.99, v / (1.0 - r)), initial=0.0)))

    left, right = side(np.abs(zs[:-1])), side(np.abs(zs[:0:-1]))[::-1]
    rates = np.abs(zs) / ((1.0 - left) * (1.0 - right))

    def caps(sizes):
        padded = [1, *sizes, 1]
        return [
            min(32 * _CHAIN_CAP, _CHAIN_CAP**2 // max(padded[i], padded[i + 2]))
            for i in range(L)
        ]

    def build(sizes):
        # The links need their tables up to N_i + N_{i+1}, the nodes up to N_i.
        K = np.arange(max(n + m for n, m in zip(sizes, sizes[1:])), dtype=np.float64)
        nodes = zs[:, None] / ((c[:, None] + K) * (K + 1.0))
        nodes[0] *= a1 + K
        nodes[-1] *= a2 + K
        tm, te = _scaled_prods(np.concatenate([nodes, b[:, None] + K]))
        dm = [tm[i, :n] for i, n in enumerate(sizes)]
        de = [te[i, :n] for i, n in enumerate(sizes)]
        fwd = [(np.abs(dm[0]), de[0])]
        signed = dm[0]
        for i in range(1, L):
            absv, ve = fwd[-1]
            ab, sg, top = _link(tm[L + i - 1], te[L + i - 1], ve, range(sizes[i]), absv, signed)
            fwd.append((ab * np.abs(dm[i]), top + de[i]))
            signed = sg * dm[i]
        scale = np.ldexp(1.0, fwd[-1][1])
        total = signed @ scale
        absum = fwd[-1][0] @ scale
        bwd = [(np.ones(sizes[-1]), np.zeros(sizes[-1], dtype=np.int64))]
        for i in range(L - 2, -1, -1):
            # Node 0 needs its backward message only on the slabs its tail reads.
            ks = range(max(0, sizes[0] - 4) if i == 0 else 0, sizes[i])
            bm, be = bwd[0]
            ab, _, top = _link(tm[L + i], te[L + i], be + de[i + 1], ks, bm * np.abs(dm[i + 1]))
            bwd.insert(0, (ab, top))
        tails = []
        for (fm, fe), (bm, be) in zip(fwd, bwd):
            m = (fm[-4:] * bm[-4:]).tolist()
            e = (fe[-4:] + be[-4:]).tolist()
            rate = _shell_rate([math.ldexp(x, y - max(e)) for x, y in zip(m, e)], len(m) - 1, 0.0)
            tails.append(math.ldexp(m[-1], e[-1]) / (1.0 - rate))
        return total, tails, 4.0 * _floor(absum, sum(sizes), total), sum(n * m for n, m in zip(sizes, sizes[1:]))

    sizes = [_series_len(r, tol, 10, _CHAIN_CAP) for r in rates]
    return _grow(build, sizes, caps, tol, 0.025)


def _chain_sum(a1, a2, b, c, zs, tol: float) -> SeriesResult:
    """sum over n_1..n_L of (a1)_{n_1} (b_1)_{n_1+n_2} ... (b_{L-1})_{n_{L-1}+n_L}
    (a2)_{n_L} prod_i z_i^{n_i} / ((c_i)_{n_i} n_i!), L >= 2, in its domain.

    A zero argument cuts the chain into pieces whose sums multiply.  A piece
    of one node is 2F1(a, a'; c; z) of the parameters on either side of it,
    summed by gauss_2f1 with its Pfaff and near-one routes; a longer piece
    goes to _chain_run.  Before that, each end node of a piece with
    |1 - z| > 1 is Pfaff transformed: its sum (a)_n (b)_{n+k} z^n / ((c)_n n!)
    is (b)_k 2F1(a, b+k; c; z) = (1-z)^-b (b)_k (1-z)^-k 2F1(c-a, b+k; c; z/(z-1)),
    so a -> c - a, z -> z/(z-1), the neighbour's argument is divided by 1 - z
    and the piece gains (1 - z)^-b.  For F2 this is (1-x)^-a F2(a; c-b, b';
    c, c'; x/(x-1), y/(1-x)).  Every argument shrinks in modulus and a
    negative end turns positive, so it adds no cancellation.  Pieces are
    summed to tol / (number of pieces) and their errors d_i bounded together,
    prod(|v_i| + d_i) - |prod v_i|; the product has converged when every
    piece has and that bound is within tol."""
    outer = [a1, *b, a2]
    if not all(cmath.isfinite(complex(v)) for v in (*outer, *c, *zs)):
        raise DomainError("chain parameters and arguments must be finite")
    runs = [list(g) for live, g in groupby(range(len(zs)), lambda i: zs[i] != 0) if live]
    exact = []
    pieces = []
    for run in runs:
        start = run[0]
        stop = run[-1] + 1
        ends = [outer[start], outer[stop]]
        links = outer[start + 1 : stop]
        cs = c[start:stop]
        args = list(zs[start:stop])
        for j, nb in ((0, 1), (-1, -2)) if len(run) > 1 else ():
            w = 1.0 - args[j]
            if abs(w) > 1.0:
                exact.append(w ** -links[j])
                ends[j] = cs[j] - ends[j]
                args[nb] = args[nb] / w
                args[j] = -args[j] / w
        pieces.append((ends, links, cs, args))
    if not exact and runs == [list(range(len(zs)))]:
        return _chain_run(a1, a2, b, c, zs, tol)

    value = math.prod(exact)
    bound = 0.0
    terms = 0
    converged = True
    for (a, a_end), links, cs, args in pieces:
        piece_tol = tol / len(pieces)
        if len(args) == 1:
            r = gauss_2f1(a, a_end, cs[0], args[0], piece_tol)
        else:
            r = _chain_run(a, a_end, links, cs, args, piece_tol)
        d = r.est_trunc_error * (1.0 + abs(r.value))
        bound = abs(value) * d + abs(r.value) * bound + bound * d
        value = value * r.value
        terms += r.terms_used
        converged = converged and r.converged
    est = bound / (1.0 + abs(value))
    return SeriesResult(_as_scalar(value), max(terms, 1), converged and est <= tol, est)


def appell_f2(a, b1, b2, c1, c2, y, z, tol: float = 1e-12) -> SeriesResult:
    """Appell F2 double series on |y| + |z| < 1, as the two-node chain
    (b1)_m (a)_{m+n} (b2)_n y^m z^n / ((c1)_m (c2)_n m! n!) of _chain_sum:
    2F1(a, b2; c2; z) by gauss_2f1 when y = 0 (and likewise in y), and
    Pfaff transformed in a negative argument."""
    for name, cval in (("c1", c1), ("c2", c2)):
        if is_nonpositive_integer(cval):
            raise PoleError(f"F2 parameter {name} is a non-positive integer")
    modulus = abs(complex(y)) + abs(complex(z))
    if modulus >= 1.0:
        raise DomainError(f"F2 requires |y|+|z| < 1, got {modulus:.4f}")
    return _chain_sum(b1, b2, (a,), (c1, c2), (y, z), tol)


def saran_fk_reexpand(p: FkParams, x, y, z, tol: float = 1e-12) -> SeriesResult:
    """Saran F_K as the chain (alpha1)_m (beta1)_{m+p} (alpha2)_{p+n} (beta2)_n
    of _chain_sum over (x, z, y): the product 2F1(alpha1, beta1; gamma1; x)
    2F1(alpha2, beta2; gamma2; y) by gauss_2f1 when z = 0, and Pfaff
    transformed in a negative x or y.  saran_fk_triple is its independent
    form."""
    if not in_domain_fk(x, y, z):
        raise DomainError(f"arguments ({x}, {y}, {z}) outside D_K")
    b, c = (p.beta1, p.alpha2), (p.gamma1, p.gamma3, p.gamma2)
    return _chain_sum(p.alpha1, p.beta2, b, c, (x, z, y), tol)


def _fk_L_domain_ok(L: int, zs) -> bool:
    if L == 3:
        # The chain (z1, z2, z3) is the three-variable F_K at (x, z, y).
        return in_domain_fk(zs[0], zs[2], zs[1])
    az = [abs(complex(v)) for v in zs]
    if L == 4:
        if az[0] >= 1 or az[3] >= 1:
            return False
        return az[1] / (1 - az[0]) + az[2] / (1 - az[3]) < 1
    if L == 5:
        return sum(az) < 0.5
    return False


def fk_L(a1, a2, b, c, zs, tol: float = 1e-12) -> SeriesResult:
    """L-variable chain-coupled F_K, for L in {3, 4, 5}: the chain of
    _chain_sum, (a1)_{n1} (b_i)_{n_i + n_{i+1}} (a2)_{nL} / prod (c_i)_{n_i} n_i!.
    A zero argument cuts it into a product of shorter chains and 2F1s."""
    L = len(zs)
    if L not in (3, 4, 5):
        raise DomainError(f"fk_L supports L in {{3,4,5}}, got L={L}")
    if len(b) != L - 1 or len(c) != L:
        raise ValueError("need L-1 chain parameters and L denominators")
    for ci in c:
        if is_nonpositive_integer(ci):
            raise PoleError("fk_L denominator parameter is a non-positive integer")
    if not _fk_L_domain_ok(L, zs):
        raise DomainError(f"arguments {zs} outside the L={L} convergence region")
    return _chain_sum(a1, a2, b, c, zs, tol)


# ---------------------------------------------------------------------------
# Saran F_K
# ---------------------------------------------------------------------------


def in_domain_fk(x, y, z) -> bool:
    """Membership test for the F_K convergence region:
    |x| < 1, |y| < 1 and |z| < (1-|x|)(1-|y|) (all strict)."""
    ax, ay, az = abs(complex(x)), abs(complex(y)), abs(complex(z))
    return ax < 1.0 and ay < 1.0 and az < (1.0 - ax) * (1.0 - ay)


def _shell_rate(shells: np.ndarray, s: int, fallback: float) -> float:
    """Observed geometric decay rate near shell s.

    The true rate can exceed the domain ratio (joint Pochhammer growth), so
    the stopping margin must come from the computed shells themselves."""
    rate = fallback
    for k in (s, s - 1, s - 2):
        if k >= 1 and shells[k - 1] != 0:
            rate = max(rate, abs(shells[k] / shells[k - 1]))
    return min(rate, 0.99)


def saran_fk_triple(p: FkParams, x, y, z, tol: float = 1e-12) -> SeriesResult:
    """Saran F_K by direct triple-series summation, accumulated over index
    shells m+n+p = s so the geometric tail bound on the convergence region
    applies shell-wise.

    The coefficient tensor is built in the balanced split

        T1[m] = (a1)_m x^m / (g1)_m      T2[n] = (b2)_n y^n / (g2)_n
        T3[p] = p! z^p / (g3)_p
        TJ1[n,p] = (a2)_{n+p} / (n! p!)  TJ2[m,p] = (b1)_{m+p} / (m! p!)

    whose factors all stay inside double range; the raw joint Pochhammers and
    bare inverse factorials separately do not.  Only the shells s < N, the
    simplex m + n + p < N, are summed.  For each p, shell s takes the
    convolution in (m, n) of T1 TJ2[., p] and T2 T3[p] TJ1[., p] at s - p, so
    all p are summed by FFT: rows p0 .. are shifted right by p - p0, and the
    products of their transforms summed before one inverse transform.  Each
    chunk of rows uses length 2 (N - p0).  The tables are built, and their
    rows transformed, in blocks of max(8, _BLOCK_ELEMS // N) rows (one block
    up to N = 181), each chunk's spectra added in row order, so no buffer
    holds more than about 2 _BLOCK_ELEMS entries.

    N starts from the domain ratio and grows through _grow to at most 560.  A
    build returns the shell sum plus its geometric tail at the observed shell
    rate r, the tail |last shell| / (1 - r) at margin 0.25, and 4 times the
    _floor of N terms, which also bounds the FFT's rounding.
    """
    if not in_domain_fk(x, y, z):
        raise DomainError(f"arguments ({x}, {y}, {z}) outside D_K")
    x, y, z = complex(x), complex(y), complex(z)
    ax, ay = abs(x), abs(y)
    rho = max(ax, ay, abs(z) / ((1.0 - ax) * (1.0 - ay)))
    N = int(np.clip(1.25 * math.log(tol * 1e-3) / math.log(max(rho, 1e-6)) + 24, 24, 560))
    cplx = any(v.imag for v in (x, y, z)) or any(
        complex(getattr(p, f)).imag
        for f in ("alpha1", "alpha2", "beta1", "beta2", "gamma1", "gamma2", "gamma3")
    )
    fwd, inv = (np.fft.fft, np.fft.ifft) if cplx else (np.fft.rfft, np.fft.irfft)

    def build(sizes):
        (N,) = sizes
        f = np.arange(N, dtype=np.float64)

        def ratio_coef(top, bottom, arg, extra_fact=False):
            base = 1.0 if top is None else top + f[:-1]
            if extra_fact:
                base = base * (1.0 + f[:-1])
            step = base / (bottom + f[:-1]) * arg
            out = np.ones(N, dtype=np.asarray(step).dtype)
            np.cumprod(step, out=out[1:])
            return out

        def over_fact(base):
            s = np.arange(2 * N - 2, dtype=np.float64)
            dtype = np.complex128 if complex(base).imag else np.float64
            out = np.ones(2 * N - 1, dtype=dtype)
            np.cumprod((base + s) / (1.0 + s), out=out[1:])
            return out

        xm = ratio_coef(p.alpha1, p.gamma1, x if x.imag else x.real)
        yn = ratio_coef(p.beta2, p.gamma2, y if y.imag else y.real)
        zp = ratio_coef(None, p.gamma3, z if z.imag else z.real, extra_fact=True)
        fb1, fa2 = over_fact(p.beta1), over_fact(p.alpha2)
        idx = np.arange(N, dtype=np.int64)
        lb = sp.gammaln(np.arange(2 * N - 1) + 1.0)
        shells = np.zeros(N, dtype=np.complex128 if cplx else np.float64)
        absum, acc = 0.0, None
        p0, K = 0, N
        rows = min(K, max(8, K // 2))
        R = max(8, _BLOCK_ELEMS // N)
        for r0 in range(0, N, R):
            r1 = min(N, r0 + R)
            np_idx = idx[r0:r1, None] + idx[None, :]
            # C(n+p, n) only where n + p < N: the shells past N are not summed,
            # and there it overflows.
            binom = np.zeros((r1 - r0, N))
            np.exp(lb[np_idx] - lb[r0:r1, None] - lb[None, :N], out=binom, where=np_idx < N)
            # Row p of A is T1 TJ2[., p], of B T2 T3[p] TJ1[., p] (TJ1 and TJ2
            # are symmetric); both vanish past N - p.
            A = fb1[np_idx] * binom * xm[None, :]
            B = fa2[np_idx] * binom * (zp[r0:r1, None] * yn[None, :])
            # sum |t|: row p of |A| at m meets the sum of row p of |B| over
            # n < N - m.
            absum += float((np.abs(A) * np.cumsum(np.abs(B), axis=1)[:, ::-1]).sum())
            r = r0
            while r < r1:
                # Rows r .. end - 1 of the chunk from p0: the j-th of them is
                # written from j (L + 1) + r - p0 and read from j L, so row p
                # lies p - p0 places to the right before the transform.
                end, L, j0 = min(r1, p0 + rows), 2 * K, r - p0
                flat = np.zeros(j0 + (end - r) * (L + 1), dtype=A.dtype)
                flat[j0:].reshape(end - r, L + 1)[:, :K] = A[r - r0 : end - r0, :K]
                spectra = fwd(flat[: (end - r) * L].reshape(end - r, L)) * fwd(B[r - r0 : end - r0, :K], L)
                # The chunk's spectra added in row order, as one sum over it would.
                if acc is not None:
                    spectra[0] += acc
                acc, r = spectra.sum(axis=0), end
                if r == p0 + rows:
                    shells[p0:] += inv(acc, L)[:K]
                    acc, p0 = None, p0 + rows
                    K = N - p0
                    rows = min(K, max(8, K // 2))
        total = shells.sum()
        rate = _shell_rate(shells, N - 1, 0.0)
        corr = shells[-1] * rate / (1.0 - rate)
        return total + corr, [abs(shells[-1]) + abs(corr)], 4.0 * _floor(absum, N, total), N * (N + 1) * (N + 2) // 6

    return _grow(build, [N], [560], tol, 0.25)


# ---------------------------------------------------------------------------
# Convolution family of shifted-2F1 double series
# ---------------------------------------------------------------------------


class CoeffSequence2D:
    """A two-index coefficient sequence with a declared geometric decay bound.

    The bound asserts |a(m, n)| <= decay_bound^(m+n) over the truncation
    ranges actually summed.  table(M, N) is the (M+1) x (N+1) table from
    table_builder; without one, the table is built entry by entry from
    evaluator(m, n).
    """

    def __init__(
        self,
        evaluator: Callable[[int, int], complex] | None,
        decay_bound: float,
        table_builder: Callable[[int, int], np.ndarray] | None = None,
    ):
        if table_builder is None:
            def table_builder(M, N):
                t = np.array([[complex(evaluator(m, n)) for n in range(N + 1)] for m in range(M + 1)])
                return t.real.copy() if np.all(t.imag == 0.0) else t
        self.decay_bound = float(decay_bound)
        self._table_builder = table_builder

    def table(self, M: int, N: int) -> np.ndarray:
        return np.asarray(self._table_builder(M, N))

    def __call__(self, m: int, n: int) -> complex:
        m, n = int(m), int(n)
        return complex(self.table(m, n)[m, n])


def delta_sequence() -> CoeffSequence2D:
    def build(M, N):
        t = np.zeros((M + 1, N + 1))
        t[0, 0] = 1.0
        return t

    return CoeffSequence2D(None, 1.0, table_builder=build)


def geometric_sequence(r: float) -> CoeffSequence2D:
    if not (0 <= r < 1):
        raise ValueError("geometric ratio must lie in [0,1)")

    def build(M, N):
        # Python's r**k, gathered: np.power differs from it by an ulp on
        # some k, which would move downstream digits.
        powers = np.array([r**k for k in range(M + N + 1)], dtype=np.float64)
        return powers[np.add.outer(np.arange(M + 1), np.arange(N + 1))]

    return CoeffSequence2D(None, max(r, 1e-9), table_builder=build)


def fk_diagonal_sequence(a1, a2, g3, probe: int = 60) -> CoeffSequence2D:
    """Diagonal sequence (a1)_n (a2)_n / (n! (g3)_n) on m = n, zero elsewhere.
    Feeding it to the convolution family reproduces Saran's F_K."""
    _check_indices(probe=probe)
    t1 = pochhammer_table(a1, probe)
    t2 = pochhammer_table(a2, probe)
    t3 = pochhammer_table(g3, probe)
    fact = sp.gamma(np.arange(probe + 1, dtype=np.float64) + 1.0)
    diag = t1 * t2 / (t3 * fact)

    def build(M, N):
        K = min(M, N) + 1
        d = diag[:K]
        if K > probe + 1:
            # Past the probe, a running product of term ratios from the last
            # probed entry, multiplied in the same order as a scalar loop.
            j = np.arange(probe, K - 1, dtype=np.float64)
            step = (a1 + j) * (a2 + j) / ((g3 + j) * (j + 1.0))
            d = np.concatenate([diag[:probe], np.cumprod(np.concatenate([diag[probe:], step]))])
        t = np.zeros((M + 1, N + 1), dtype=d.dtype)
        t[np.arange(K), np.arange(K)] = d
        return t

    vals = np.abs(diag[1:])
    bound = float(np.max(vals ** (1.0 / (2.0 * np.arange(1, probe + 1))))) if len(vals) else 1.0
    return CoeffSequence2D(None, max(1.0, bound) * 1.05, table_builder=build)


def convolve2d(a: CoeffSequence2D, b: CoeffSequence2D) -> CoeffSequence2D:
    """Discrete convolution (a*b)(m,n) = sum_{i<=m, j<=n} a(m-i, n-j) b(i, j).

    Whole tables come from one zero-padded 2-D FFT of the factor tables, real
    transforms when both are real.  Its rounding error is absolute, about
    eps * max|entry| on every entry, not relative to each entry, so entries far
    below the largest lose their relative accuracy.  That is harmless in
    generic_f_a: there entry (m, n) is weighted by x3^m x4^n, so the noise in
    the small far entries is damped like the entries themselves, and where it
    dominates an entry it can only make the boundary slabs, and so the tail
    estimate, read larger."""

    def build(M, N):
        ta = a.table(M, N)
        tb = b.table(M, N)
        # Padding to 2M+1 x 2N+1 keeps the circular wrap-around out of the
        # leading (M+1) x (N+1) block.
        shape = (2 * M + 1, 2 * N + 1)
        if np.isrealobj(ta) and np.isrealobj(tb):
            prod = np.fft.rfft2(ta, shape) * np.fft.rfft2(tb, shape)
            return np.fft.irfft2(prod, shape)[: M + 1, : N + 1]
        prod = np.fft.fft2(ta, shape) * np.fft.fft2(tb, shape)
        return np.fft.ifft2(prod, shape)[: M + 1, : N + 1]

    return CoeffSequence2D(None, a.decay_bound + b.decay_bound, table_builder=build)


def generic_f_a(
    a: CoeffSequence2D,
    alpha1,
    beta1,
    gamma1,
    alpha2,
    beta2,
    gamma2,
    x1,
    x2,
    x3,
    x4,
    tol: float = 1e-12,
) -> SeriesResult:
    """Double series sum a(m,n) 2F1(alpha1+m, beta1; gamma1; x1)
    2F1(alpha2+n, beta2; gamma2; x2) x3^m x4^n, both families by the
    recurrence of _shifted_2f1 (ConvergenceError if a seed series does not
    converge).  The M x N box grows through _grow; its estimate includes
    4 times the _floor of M N terms."""
    for name, g in (("gamma1", gamma1), ("gamma2", gamma2)):
        if is_nonpositive_integer(g):
            raise PoleError(f"generic_f_a parameter {name} is a non-positive integer")
    x1, x2, x3, x4 = (complex(v) for v in (x1, x2, x3, x4))
    if not (abs(x1) < 1.0 and abs(x2) < 1.0):
        raise DomainError("generic_f_a needs |x1| < 1 and |x2| < 1")
    if not all(a.decay_bound * abs(v) < 1.0 for v in (x3, x4)):
        raise DomainError("decay bound times max(|x3|, |x4|) must stay below 1")

    r3 = min(0.95, a.decay_bound * abs(x3) / (1.0 - abs(x1)))
    r4 = min(0.95, a.decay_bound * abs(x4) / (1.0 - abs(x2)))

    def build(sizes):
        M, N = sizes
        f1 = _shifted_2f1(alpha1, beta1, gamma1, x1, M, tol * 1e-2)
        f2 = _shifted_2f1(alpha2, beta2, gamma2, x2, N, tol * 1e-2)
        coefs = a.table(M - 1, N - 1)
        tensor = coefs * np.outer(f1 * np.power(x3, np.arange(M)), f2 * np.power(x4, np.arange(N)))
        total = tensor.sum()
        return total, _face_tails(tensor), 4.0 * _floor(float(np.abs(tensor).sum()), M * N, total), M + N + tensor.size

    sizes = [_series_len(r3, tol, 12, 220), _series_len(r4, tol, 12, 220)]
    return _grow(build, sizes, [320, 320], tol, 0.2)
