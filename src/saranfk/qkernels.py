"""q-side machinery: basic hypergeometric series, the q-analogue of Saran's
F_K, triple q-series, Jackson integrals, q-measures, the shift-operator
kernel and the discrete finite-sum weights.

Conventions.  Public Phi-level operations take exponent parameters (a stands
for the base q^a); the raw-base entry points are the primitive series `rphis`
and the discrete double-sum RHS `gasper_discrete_3phi2`, whose free
parameters genuinely live at base level.

Numerics.  Series are summed by term recurrence (series._sum_terms), each
term the one before times its ratio: _rphis_array's blocks are rows of the
ratios z (1 - a q^l) ... / ((1 - q^(l+1)) (1 - b q^l) ...) (-q^l)^(1+s-r),
which stay moderate where q-shifted factorials overflow, so a terminating
series on the q-lattice cuts off exactly at its termination index
(`terminate_after`) and reports its rounding floor.  _lattice_sum sums
the terminating 3phi1 of the q-measure densities and limit weights as one
q-binomial convolution, and _family_sum the shifted tables of phi_k_p_tables
by series._power_sum.  Every (a;q)_k table comes from core._q_tables, one
stacked call per build (the row of a base q^-r is zero past k = r), except
the densities' (q^x; q)_n / (q; q)_n, a cumulative product of factor ratios,
since (q; q)_n alone underflows near q = 1.

Sums.  phi3, jackson_integral, the Phi_K sum `_phi_k_sum` and the
shift-operator sum `_shift_sum` grow through series._grow; q_measure_rule,
which returns a lattice rule, doubles its lattice itself.  `_phi_k_sum` sums the
q-F_K once, over its third index against three lattice rules: `phi_k_q` is
that sum at one node, and `phi3` the independent triple series.  The
discrete identity's sums cancel heavily and are formed in long double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .core import (
    QContext,
    _as_scalar,
    _check_indices,
    _q_tables,
    q_gamma,
    q_pochhammer_inf,
    q_termination_index,
)
from .errors import ConvergenceError, DomainError, PoleError
from .measures import DirichletMeasure, HypergeometricMeasure, _moment_powers, _rule_sum, _slot_inverse
from .series import (
    FkParams, SeriesResult, _checked, _floor, _grow, _power_sum, _ratio_rate, _series_len, _shell_rate,
    _slab_build, _sum_terms, _tail,
)

__all__ = [
    "Phi3Spec",
    "QDirichletMeasure",
    "QHypergeometricMeasure",
    "QfkShiftParams",
    "DiscreteFkParams",
    "rphis",
    "phi_k_q",
    "phi3",
    "jackson_integral",
    "q_measure_density",
    "q_measure_rule",
    "q_moment",
    "qshift_operator_kernel",
    "discrete_weight",
    "discrete_weight_limit",
    "gasper_discrete_3phi2",
]


def _check_lower_poles(lowers, q: float, below: int | None = None):
    """Reject lower parameters of the form q^{-n}.

    When the series terminates after `below` terms, only poles with n < below
    are ever reached, so larger n are allowed.
    """
    for b in lowers:
        for bv in np.atleast_1d(np.asarray(b)).ravel():
            n = q_termination_index(bv, q)
            if n is not None and (below is None or n < below):
                raise PoleError(f"lower parameter {bv} equals q^-{n}: series undefined")


def _lattice_sum(uppers, lowers, z, ta, q: float, dtype):
    """The terminating r_phi_s with r = s + 2 along a q-lattice and 8 sum |t|
    (below), or None.  It applies where one upper entry is an array equal to
    q^-n, n = ta, and z q^-n is one value W, each to 8 ulp, and every other
    entry is a scalar.  W is the middle of the sorted z q^-n, which most of
    them round to, so a lattice cut into blocks sums with the W of the whole.
    By (q^-n; q)_k = (-1)^k q^(k(k-1)/2 - nk) (q; q)_n / (q; q)_(n-k) every
    row is one q-binomial convolution,

        S(n) = (q; q)_n sum_{k<=n} c_k / (q; q)_(n-k),
        c_k = prod (A; q)_k / (prod (C; q)_k (q; q)_k) W^k,

    of two sequences no n changes.  None also where (q; q)_K, K = max n, is
    not a normal double, or where a sum is not finite: the term recurrence
    then decides, with its pole and overflow behaviour.  sum |t| is the same
    convolution of |c_k|, 8 times over for the rounding floor: each term
    counts the 8 ulp its inputs are taken to, more than its products carry."""
    var = [i for i, u in enumerate(uppers) if np.ndim(u)]
    if (len(uppers) != len(lowers) + 2 or len(var) != 1 or not ta.size
            or any(np.ndim(b) for b in lowers)):
        return None
    K = int(ta.max())
    u = np.asarray(uppers[var[0]])
    fixed = [v for i, v in enumerate(uppers) if i != var[0]]
    ulps = 8 * np.finfo(np.float64).eps
    with np.errstate(all="ignore"):
        if not (abs(u * q ** ta.astype(np.float64) - 1.0) <= ulps).all():
            return None
        zu = np.broadcast_to(z * u, ta.shape)
        W = np.sort(zu, axis=None)[(zu.size - 1) // 2]
        if not (abs(zu - W) <= ulps * abs(W)).all():
            return None
        tables = _q_tables([q, *fixed, *lowers], K, q)
        qq = tables[0].real
        if not qq[-1] >= np.finfo(np.float64).tiny:
            return None
        num = np.prod(tables[1 : len(uppers)], axis=0)
        c = num / (np.prod(tables[len(uppers) :], axis=0) * qq) * W ** np.arange(K + 1)
        total = (qq * np.convolve(c, 1.0 / qq)[: K + 1]).astype(dtype)[ta]
        absum = (qq * np.convolve(np.abs(c), 1.0 / qq)[: K + 1])[ta]
    return (total, 8.0 * absum) if np.isfinite(total).all() else None


# The recurrence's cap on the terms of a non-terminating series.
_MAX_TERMS = 5000


def _family_sum(uppers, lowers, X, ctx: QContext, tol: float):
    """The shifted r_phi_s table of phi_k_p_tables, r = s + 1, by
    series._power_sum, as an array of shape X.shape + (uppers[0].size,).

    uppers[0] is the array of shifted bases and every other entry a scalar,
    so the n-th term is C[p, n] X^n, with C from one _q_tables call, summed
    from N = _series_len(max|X|, tol) terms.  Where a denominator (b; q)_n
    or (q; q)_n vanishes, or _power_sum declines, _rphis_array's recurrence
    sums the table.  Returns (value, terms, converged, estimate)."""
    q, x = ctx.q, np.asarray(X)
    P, nlow = len(uppers[0]), len(lowers) + 1
    bases = np.concatenate([uppers[0], uppers[1:], lowers, [q]])
    dtype = np.complex128 if np.iscomplexobj(bases) or np.iscomplexobj(x) else np.float64

    def coef(N):
        tables = _q_tables(bases, N, q)
        den = math.prod(tables[-nlow:])
        if not (abs(den) >= 1e-280).all():
            return None
        return math.prod([tables[:P], *tables[P:-nlow]]) / den

    N = max(_series_len(float(np.abs(x).max()), tol), 8)
    res = _power_sum(coef, x.astype(dtype), tol, _ratio_rate(uppers, lowers, x, q), _MAX_TERMS, N)
    if res is None:
        return _rphis_array(uppers, lowers, x[..., None], ctx, tol)
    total, N, converged, est = res
    return total.reshape(x.shape + (P,)).astype(dtype, copy=False), N, converged, est


def _rphis_array(
    uppers: Sequence,
    lowers: Sequence,
    z,
    ctx: QContext,
    tol: float = 1e-12,
    terminate_after=None,
    max_terms: int = _MAX_TERMS,
):
    """Basic hypergeometric series with full broadcasting over parameters and
    argument.  Returns (value array, terms, converged, estimate).

    terminate_after gives, per broadcast element, the index of the last
    nonzero term; later terms are forced to zero, since the q^{-l} step
    factors of r > s + 1 would amplify their rounding residue.  An array
    terminate_after first tries _lattice_sum; where it declines, for an int,
    and without terminate_after, the block recurrence sums the series.
    """
    q = ctx.q
    spow = 1 + len(lowers) - len(uppers)
    arrays = [np.asarray(v) for v in (*uppers, *lowers, z)]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    ta = None if terminate_after is None else np.broadcast_to(np.asarray(terminate_after, dtype=np.int64), shape)
    nsteps = max_terms if ta is None else int(ta.max()) if ta.size else 0
    dtype = np.complex128 if any(np.iscomplexobj(a) for a in arrays) else np.float64
    zs = np.asarray(z).astype(dtype)
    sign = -1.0 if spow % 2 else 1.0

    def block(n0, W):
        ells = range(n0, n0 + W)
        col = (W,) + (1,) * len(shape)
        ql = np.array([q**ell for ell in ells]).reshape(col)
        num = np.ones(col, dtype=dtype)
        for u in uppers:
            num = num * (1.0 - np.asarray(u) * ql)
        den = np.array([1.0 - q ** (ell + 1) for ell in ells], dtype=dtype).reshape(col)
        for b in lowers:
            den = den * (1.0 - np.asarray(b) * ql)
        if ta is not None:
            # Elements already past their termination index produce zero terms;
            # keep their denominators off the pole lattice so the batch step
            # stays finite.
            live = np.arange(n0 + 1, n0 + W + 1).reshape(col) <= ta
            den = np.where(live, den, 1.0)
        # A vanished denominator raises only if the sum reaches its row, so
        # it is not divided by here.
        dead = np.abs(den) < 1e-280
        poles = dead.reshape(W, -1).any(axis=1)
        if poles.any():
            den = np.where(dead, 1.0, den)
        ratio = (num / den if ta is None else np.where(live, num / den, 0.0)) * zs
        if spow:
            ratio = ratio * np.array([sign * q ** (ell * spow) for ell in ells]).reshape(col)
        return ratio, poles

    lattice = isinstance(terminate_after, np.ndarray) and _lattice_sum(uppers, lowers, np.asarray(z), ta, q, dtype)
    if lattice:  # a terminating sum, whose estimate is its floor
        total, absum = lattice
        est = _floor(absum, nsteps, total)
        return total, nsteps, est <= tol, est
    rate = None if ta is not None else _ratio_rate(uppers, lowers, z, q)
    return _sum_terms(block, shape, dtype, nsteps, tol, rate)[:4]


def rphis(upper, lower, z, ctx: QContext, tol: float = 1e-12) -> SeriesResult:
    """Basic hypergeometric series r_phi_s with raw base parameters.

    A terminating upper entry q^{-N} is detected and the series summed
    exactly in N+1 terms; otherwise |z| < 1 is required for r = s+1, r <= s
    converges everywhere, and r > s+1 is rejected for z != 0.  A sum that
    overflows raises ConvergenceError.
    """
    z = complex(z)
    known = [t for t in (q_termination_index(u, ctx.q) for u in upper) if t is not None]
    n_stop = min(known) if known else None
    _check_lower_poles(lower, ctx.q, below=n_stop)
    r, s = len(upper), len(lower)
    if n_stop is None:
        if r > s + 1 and z != 0:
            raise DomainError("r_phi_s with r > s+1 diverges unless terminating")
        if r == s + 1 and abs(z) >= 1.0:
            raise DomainError("r_phi_s with r = s+1 requires |z| < 1")
    value, n, ok, est = _rphis_array(upper, lower, z, ctx, tol=tol, terminate_after=n_stop)
    if not np.isfinite(value):
        raise ConvergenceError(f"r_phi_s sum is not finite after {n + 1} terms")
    return SeriesResult(_as_scalar(value[()]), n + 1, ok, est)


# ---------------------------------------------------------------------------
# Triple q-series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Phi3Spec:
    """Parameter groups of the three-variable basic hypergeometric series.

    Group -> coupled index: a: m+n+p | b: m+n | bp: n+p | bpp: p+m | c: m |
    cp: n | cpp: p, with the same split (e, g, gp, gpp, h, hp, hpp) in the
    denominator.  All entries are raw bases; no denominator entry may equal
    q^{-m}.
    """

    a: tuple = ()
    b: tuple = ()
    bp: tuple = ()
    bpp: tuple = ()
    c: tuple = ()
    cp: tuple = ()
    cpp: tuple = ()
    e: tuple = ()
    g: tuple = ()
    gp: tuple = ()
    gpp: tuple = ()
    h: tuple = ()
    hp: tuple = ()
    hpp: tuple = ()

    def validate(self, q: float):
        for group in (self.e, self.g, self.gp, self.gpp, self.h, self.hp, self.hpp):
            _check_lower_poles(group, q)


def _group_terminations(group, q: float):
    return [t for t in (q_termination_index(v, q) for v in group) if t is not None]


def _axis_size(zval, tol: float, terminations) -> int:
    if terminations:
        return min(terminations) + 1
    az = abs(complex(zval))
    if not az < 1.0:
        raise DomainError("phi3 argument must satisfy |arg| < 1 unless terminating")
    return _series_len(az, tol, 10, 64)


def phi3(spec: Phi3Spec, x, y, z, ctx: QContext, tol: float = 1e-12) -> SeriesResult:
    """Triple basic hypergeometric series, summed over an adaptive index box
    with the joint q-shifted factorials gathered from cumulative tables,
    judged by _slab_build at the rates |x|, |y|, |z|, 4 times its _floor
    included.  ConvergenceError when a box sums to a value that is not
    finite: a larger box keeps every term of it."""
    q = ctx.q
    spec.validate(q)
    x, y, z = complex(x), complex(y), complex(z)

    tm = _group_terminations((*spec.c, *spec.a, *spec.b, *spec.bpp), q)
    tn = _group_terminations((*spec.cp, *spec.a, *spec.b, *spec.bp), q)
    tp = _group_terminations((*spec.cpp, *spec.a, *spec.bp, *spec.bpp), q)
    sizes = [_axis_size(v, tol, t) for v, t in ((x, tm), (y, tn), (z, tp))]
    # A terminating axis is summed to its last nonzero term already.
    complete = [i for i, t in enumerate((tm, tn, tp)) if t]

    # One stacked table call per build: q for the (q; q) factors, then each
    # group's bases, the base 0 (a table of ones) for an empty group, so that
    # one reduceat multiplies out every group's rows.
    groups = (spec.c, spec.h, spec.cp, spec.hp, spec.cpp, spec.hpp,
              spec.a, spec.e, spec.b, spec.g, spec.bp, spec.gp, spec.bpp, spec.gpp)
    filled = [group or (0.0,) for group in groups]
    bases = [q, *(v for group in filled for v in group)]
    starts = list(accumulate((len(group) for group in filled[:-1]), initial=1))

    def build(sizes):
        M, N, P = sizes
        m = np.arange(M)[:, None, None]
        n = np.arange(N)[None, :, None]
        p = np.arange(P)[None, None, :]
        tables = _q_tables(bases, M + N + P - 3, q)
        qfact = tables[0]
        prods = np.multiply.reduceat(tables, starts, axis=0)

        def axis_vec(val, length, num, den):
            vec = np.power(val if val.imag else val.real, np.arange(length)) / qfact[:length]
            return vec * num[:length] / den[:length]

        vx = axis_vec(x, M, *prods[0:2])
        vy = axis_vec(y, N, *prods[2:4])
        vz = axis_vec(z, P, *prods[4:6])
        tensor = vx[:, None, None] * vy[None, :, None] * vz[None, None, :]
        for j, idx in zip((6, 8, 10, 12), (m + n + p, m + n, n + p, m + p)):
            if groups[j] or groups[j + 1]:
                tensor = tensor * (prods[j] / prods[j + 1])[idx]
        res = _slab_build(tensor, [abs(x), abs(y), abs(z)], complete, 4.0)
        if not np.isfinite(res[0]):
            raise ConvergenceError(f"phi3 gave the non-finite value {_as_scalar(res[0])}")
        return res

    return _grow(build, sizes, [96, 96, 96], tol)


# ---------------------------------------------------------------------------
# q-analogue of Saran's F_K
# ---------------------------------------------------------------------------


def _phi_k_spec(p: FkParams, q: float) -> Phi3Spec:
    """Phi_K as a phi3 triple series, the independent form of phi_k_q."""
    return Phi3Spec(bp=(q**p.alpha2,), bpp=(q**p.beta1,), c=(q**p.alpha1,), cp=(q**p.beta2,),
                    h=(q**p.gamma1,), hp=(q**p.gamma2,), hpp=(q**p.gamma3,))


def phi_k_p_tables(p: FkParams, X, Y, ctx: QContext, pmax: int, tol: float = 1e-13, extra=()):
    """Decomposition of the q-F_K over its third index:

        Phi_K(X, Y, Z) = sum_p coef[p] A[..., p] B[..., p] Z^p

    with A, B shifted 2phi1 tables over argument arrays X, Y; parameters are
    exponents.  extra gives, per gamma slot j, one exponent pair (u_j, l_j)
    whose factor (q^u_j; q) / (q^l_j; q) joins that slot's index, so A, B
    become 3phi2 tables: Corollary 4.2 with (eta_j, lam_j) and nu_j as gamma_j.
    Tables take the dtype of the parameters and arguments.  A gamma whose
    base q^gamma_j is some q^-n, possible for a complex gamma_j, raises
    PoleError.  Returns (coef, A, B, A converged, B converged).
    """
    _check_indices(pmax=pmax)
    q = ctx.q
    _check_lower_poles([q**p.gamma1, q**p.gamma2, q**p.gamma3], q)
    (u1, l1), (u2, l2), (u3, l3) = [([q**u], [q**l]) for u, l in extra] or [([], [])] * 3
    qa2, qb1 = q**p.alpha2, q**p.beta1
    tables = _q_tables([qa2, qb1, *u3, q**p.gamma3, *l3, q], pmax, q)
    coef = np.divide(*np.multiply.reduceat(tables, [0, 2 + len(u3)], axis=0))
    shifts = q ** np.arange(pmax + 1, dtype=np.float64)
    A, _, okA, _ = _family_sum([qb1 * shifts, q**p.alpha1, *u1], [q**p.gamma1, *l1], X, ctx, tol)
    B, _, okB, _ = _family_sum([qa2 * shifts, q**p.beta2, *u2], [q**p.gamma2, *l2], Y, ctx, tol)
    return coef, A, B, okA, okB


# The one node 1 with weight 1, whose rule sums are point values; it has no node axis.
_ONE_NODE = (np.float64(1.0), np.float64(1.0))
_PMAX = 800  # the cap on the p rows of the Phi_K decomposition


def _phi_k_sum(p: FkParams, rules, x, y, z, ctx: QContext, tol: float, extra=()) -> SeriesResult:
    """Phi_K(x t1, y t2, z t3) summed against three lattice rules (t_j, w_j)
    through its third-index decomposition (`phi_k_p_tables`, with extra):

        sum_p coef[p] (sum_i w1_i A_ip) (sum_j w2_j B_jp) sum_l w3_l (z t3_l)^p.

    Three _ONE_NODE rules give the point value Phi_K(x, y, z).  The rows
    p <= P grow through _grow from P = _series_len(|z| max t3, tol, 8, 160)
    to _PMAX, judged by _slab_build at the rate |z| max t3.
    """
    (t1, w1), (t2, w2), (t3, w3) = rules
    zmag = abs(z) * float(np.max(t3))

    def build(sizes):
        (pmax,) = sizes
        coef, A, B, okA, okB = phi_k_p_tables(p, x * t1, y * t2, ctx, pmax, tol * 1e-2, extra)
        rows = coef * _rule_sum(w1, A) * _rule_sum(w2, B) * _moment_powers(t3, w3, z, pmax)
        return _slab_build(rows, [zmag], floors=1.0 if okA and okB else math.inf)

    return _grow(build, [_series_len(zmag, tol, 8, 160)], [_PMAX], tol)


def phi_k_q(p: FkParams, x, y, z, ctx: QContext, tol: float = 1e-12) -> SeriesResult:
    """q-analogue of Saran's F_K with exponent parameters, summed once: by the
    2phi1 reexpansion over its third index, `_phi_k_sum` at one node.  The
    triple series `phi3` of `_phi_k_spec` is its independent form."""
    if not all(abs(v) < 1.0 for v in (x, y, z)):
        raise DomainError("Phi_K requires |x| < 1, |y| < 1, |z| < 1")
    return _phi_k_sum(p, [_ONE_NODE] * 3, x, y, z, ctx, tol)


# ---------------------------------------------------------------------------
# Jackson integrals and q-measures
# ---------------------------------------------------------------------------


def _lattice_size(ctx: QContext, decay: float = 1.0) -> int:
    n = math.ceil(math.log(ctx.jackson_tail_tol) / (decay * math.log(ctx.q)))
    return max(40, n + 8)


def jackson_integral(f, k: int, ctx: QContext):
    """k-dimensional Jackson integral (1-q)^k sum_n f(q^n) q^(n1+...+nk).

    f receives open-mesh arrays of lattice values and must broadcast.  Each
    axis starts at max(40, log_q ctx.jackson_tail_tol) points and grows
    through _grow until its _slab_build tail at the rate q is within that
    tolerance; ConvergenceError when it reaches its cap first.  The
    tolerance is the only cut-off: a smaller one gives longer lattices.
    """
    _check_indices(k=k)
    if not (1 <= k <= 3):
        raise DomainError("jackson_integral supports dimensions 1..3")
    q = ctx.q

    def build(sizes):
        grids = np.ix_(*(q ** np.arange(n, dtype=np.float64) for n in sizes))
        weighted = (1.0 - q) ** k * math.prod(grids) * np.asarray(f(*grids))
        return _slab_build(weighted, [q] * k)

    cap = {1: 20000, 2: 2000, 3: 500}[k]
    r = _grow(build, [_lattice_size(ctx)] * k, [cap] * k, ctx.jackson_tail_tol)
    if not r.converged:
        raise ConvergenceError("Jackson lattice tail bound not met at cutoff cap")
    return r.value


@dataclass(frozen=True)
class QDirichletMeasure:
    """q-deformation of the Dirichlet measure; parameters are exponents.  Its
    hypotheses are its classical twin's, which raises DomainError."""

    alpha: complex
    beta: complex
    ctx: QContext

    def __post_init__(self):
        DirichletMeasure(self.alpha, self.beta)


@dataclass(frozen=True)
class QHypergeometricMeasure:
    """q-deformation of the hypergeometric measure (slot exponents).  Its
    hypotheses are its classical twin's, which raises DomainError."""

    alpha: complex
    beta: complex
    gamma: complex
    eta: complex
    ctx: QContext

    def __post_init__(self):
        HypergeometricMeasure(self.alpha, self.beta, self.gamma, self.eta)


QMeasureSpec = QDirichletMeasure | QHypergeometricMeasure


def _lattice_index(t, q: float) -> int:
    tv = float(np.real(t))
    if not (0.0 < tv <= 1.0):
        raise DomainError(f"t={t} is not a q-lattice point")
    n = max(0, round(math.log(tv) / math.log(q)))
    if abs(q**n - tv) > 1e-9 * max(tv, 1e-30):
        raise DomainError(f"t={t} is not a q-lattice point q^n")
    return n


def _lattice_ratio(x, n: np.ndarray, q: float):
    """(t q; q)_inf / (t q^x; q)_inf at t = q^n over its value at t = 1,
    (q; q)_inf / (q^x; q)_inf = Gamma_q(x) (1 - q)^(x - 1).  That is
    (q^x; q)_n / (q; q)_n, one cumulative product of factor ratios, which
    stays in range where (q; q)_n alone underflows (q near 1)."""
    j = np.arange(int(n.max()), dtype=np.float64)
    steps = (1.0 - q**x * q**j) / (1.0 - q ** (j + 1.0))
    out = np.ones(j.size + 1, steps.dtype)
    np.cumprod(steps, out=out[1:])
    return out[n]


def _q_density_lattice(spec: QMeasureSpec, n: np.ndarray):
    """Density values at lattice points t = q^n, vectorized over n.  The
    factor (t q; q)_inf / (t q^x; q)_inf is _lattice_ratio times
    Gamma_q(x) (1 - q)^(x - 1), whose Gamma_q(x) cancels the one in the
    normalisation."""
    ctx = spec.ctx
    q = ctx.q
    t = q ** n.astype(np.float64)
    if isinstance(spec, QDirichletMeasure):
        a, b = _as_scalar(spec.alpha), _as_scalar(spec.beta)
        const = q_gamma(a + b, ctx) / q_gamma(a, ctx) * (1.0 - q) ** (b - 1.0)
        return const * np.power(t, a - 1.0) * _lattice_ratio(b, n, q)
    a, b, g, e = (_as_scalar(v) for v in (spec.alpha, spec.beta, spec.gamma, spec.eta))
    const = (
        q_gamma(e + g - a, ctx)
        * q_gamma(e + g - b, ctx)
        / (q_gamma(e, ctx) * q_gamma(e + g - a - b, ctx))
        * (1.0 - q) ** (g - 1.0)
    )
    # The 3phi1 factor terminates at lattice points: its upper entry 1/t is
    # q^{-n} there, capping the series at n+1 exact terms.
    phi31 = _checked(*_rphis_array(
        [q**a, q**b, 1.0 / t],
        [q**g],
        t * q ** (g - a - b),
        ctx,
        terminate_after=n,
    ))
    return const * np.power(t, e - 1.0) * _lattice_ratio(g, n, q) * phi31


def q_measure_density(spec: QMeasureSpec, t):
    """Density at a q-lattice point t = q^n (q-integrals only sample these)."""
    n = _lattice_index(t, spec.ctx.q)
    return _as_scalar(_q_density_lattice(spec, np.asarray([n]))[0])


def _measure_decay(spec: QMeasureSpec) -> float:
    if isinstance(spec, QDirichletMeasure):
        return complex(spec.alpha).real
    a, b, g, e = (complex(v) for v in (spec.alpha, spec.beta, spec.gamma, spec.eta))
    return (e + g - a - b).real


def q_measure_rule(spec: QMeasureSpec):
    """Lattice nodes and effective weights of a q-measure, so that
    integral(f d mu) ~ weights @ f(nodes).  The lattice starts where the
    measure's decay reaches spec.ctx.jackson_tail_tol and doubles until the
    _tail of its weights, at least at the rate q^decay, is within that
    tolerance, evaluating only the nodes it adds.  It stops at 4000 nodes, or
    sooner at the last n whose q^n is a normal double: past it t = 0 and
    t^(a-1) is not finite."""
    ctx = spec.ctx
    q = ctx.q
    cap = min(4000, math.floor(math.log(np.finfo(np.float64).tiny) / math.log(q)))
    decay = _measure_decay(spec)
    N = min(cap, _lattice_size(ctx, max(decay, 0.05)))
    t = w = np.empty(0)
    for _ in range(4):
        n = np.arange(t.size, N)
        tn = q ** n.astype(np.float64)
        t = np.concatenate([t, tn])
        w = np.concatenate([w, (1.0 - q) * tn * _q_density_lattice(spec, n)])
        last = np.abs(w[-4:]).tolist()
        if _tail(last[-1], _shell_rate(last, q**decay)) <= ctx.jackson_tail_tol * (1.0 + float(np.abs(w).sum())):
            return t, w
        if N >= cap:
            break
        N = min(cap, N * 2)
    raise ConvergenceError("q-measure lattice tail bound not met")


def q_moment(spec: QMeasureSpec, ell: int):
    """Closed-form lattice moment integral(t^ell d mu)."""
    _check_indices(ell=ell)
    q = spec.ctx.q
    if isinstance(spec, QDirichletMeasure):
        a, b = complex(spec.alpha), complex(spec.beta)
        num, den = _q_tables([q**a, q ** (a + b)], ell, q)[:, ell]
        return _as_scalar(num / den)
    eta, gam, lam, nu = _slot_inverse(*(complex(v) for v in (spec.alpha, spec.beta, spec.gamma, spec.eta)))
    qnu, qlam, qgam, qeta = _q_tables([q**nu, q**lam, q**gam, q**eta], ell, q)[:, ell]
    return _as_scalar(qnu * qlam / (qgam * qeta))


# ---------------------------------------------------------------------------
# Shift-operator kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QfkShiftParams:
    """Exponent parameters of the shift-operator q-Erdelyi integrand."""

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float
    gamma3: float
    eta1: float
    eta2: float
    mu2: float
    lam1: float
    lam2: float
    lam3: float


def _shift_factor(t, arg, shift, upper, lower, ctx: QContext):
    """The shift factor at lattice points t = q^n, broadcast over t and shift,

        (t arg q^shift; q)_inf / (t arg; q)_inf
            3phi2(q^shift, q^upper, 1/t; q^lower, q/(t arg); q, q),

    whose 3phi2 has the upper entry 1/t = q^-n and stops there.  Returns
    (factor, t arg q^shift); ConvergenceError if a 3phi2 sum is not finite.
    """
    q = ctx.q
    shifted = q ** np.asarray(shift)
    pref = q_pochhammer_inf(t * arg * shifted, ctx) / q_pochhammer_inf(t * arg, ctx)
    phi = _checked(*_rphis_array(
        [shifted, q**upper, 1.0 / t],
        [q**lower, q / (t * arg)],
        q,
        ctx,
        terminate_after=np.rint(np.log(t) / math.log(q)).astype(np.int64),
    ))
    return pref * phi, t * arg * shifted


def _shift_sum(
    p: QfkShiftParams, rules, x, y, z, ctx: QContext, tol: float, kmax: int | None = None
) -> SeriesResult:
    """The shift-operator k-sum of the q-F_K against lattice rules (t_j, w_j)
    for u, v and w; one-node rules give the point value at (u, v, w):

        sum_{k, p} ck[k] coef[p] (sum_i wu_i A_ik FA_ikp) (sum_j wv_j B_jk FB_jkp)
                                  sum_l ww_l (z t_l)^(k + p),
        ck[k] = (q^eta2; q)_k / (q; q)_k q^((alpha2 - eta2) k),
        A_ik = _shift_factor(u_i, x, k + lam3, lam1 - eta1, lam1),

    B likewise with (v, y, k + eta2, lam2 - mu2, lam2), and coef, FA, FB the
    third-index decomposition of the inner Phi_K at (u x q^(k + lam3),
    v y q^(k + eta2)).  With u = q^n these arguments depend on m = n + k
    alone, so FA and FB are tabulated once per m, from the smallest lattice
    index to the largest plus kmax, and indexed by n + k.  zmag = |z| times
    the largest w-node sets both first cutoffs.  The k <= kmax, p <= pmax
    box grows through _grow, k to 300 and p to _PMAX, judged by _slab_build
    at the rates zmag q^(alpha2 - eta2) and zmag; an explicit kmax is kept,
    and its axis counts as complete.
    """
    (tu, wu), (tv, wv), (tw, ww) = rules
    q = ctx.q
    zmag = abs(z) * float(np.max(tw))
    base = zmag * q ** (p.alpha2 - p.eta2)
    if zmag != 0 and base >= 0.999:
        raise ConvergenceError("shift-operator k-sum is non-convergent: |wz| q^(a2-e2) >= 1")
    nu, nv = (np.rint(np.log(t) / math.log(q)).astype(np.int64) for t in (tu, tv))
    inner = FkParams(alpha1=p.alpha1, alpha2=p.alpha2 - p.eta2, beta1=p.beta1 - p.lam3, beta2=p.beta2,
                     gamma1=p.alpha1 - p.lam1 + p.eta1, gamma2=p.beta2 - p.lam2 + p.mu2, gamma3=p.beta1 - p.lam3)
    cut = kmax is not None

    def build(sizes):
        kmax, pmax = sizes
        k = np.arange(kmax + 1)
        ck = np.divide(*_q_tables([q**p.eta2, q], kmax, q)) * (q ** (p.alpha2 - p.eta2)) ** k.astype(np.float64)
        A, _ = _shift_factor(tu[:, None], x, p.lam3 + k, p.lam1 - p.eta1, p.lam1, ctx)
        B, _ = _shift_factor(tv[:, None], y, p.eta2 + k, p.lam2 - p.mu2, p.lam2, ctx)
        mu, mv = (np.arange(n.min(), n.max() + kmax + 1) for n in (nu, nv))
        coef, FA, FB, okA, okB = phi_k_p_tables(
            inner, x * q ** (p.lam3 + mu), y * q ** (p.eta2 + mv), ctx, pmax, tol=tol * 1e-2)
        SU = np.einsum("i,ik,ikp->kp", wu, A, FA[nu[:, None] + k - mu[0]])
        SV = np.einsum("j,jk,jkp->kp", wv, B, FB[nv[:, None] + k - mv[0]])
        kp = np.add.outer(k, np.arange(pmax + 1))
        terms = ck[:, None] * coef * SU * SV * _moment_powers(tw, ww, z, kmax + pmax)[kp]
        return _slab_build(terms, [base, zmag], [0] if cut else [], 1.0 if okA and okB else math.inf)

    if not cut:
        kmax = int(np.clip(math.ceil(math.log(tol * 1e-2) / math.log(max(base, 1e-12))), 8, 300)) if zmag else 0
    return _grow(build, [kmax, _series_len(zmag, tol, 8, 160)], [kmax if cut else 300, _PMAX], tol)


def qshift_operator_kernel(
    p: QfkShiftParams,
    u,
    v,
    w,
    x,
    y,
    z,
    ctx: QContext,
    tol: float = 1e-12,
    kmax: int | None = None,
):
    """Shift-operator series applied to the q-F_K, as the explicit k-sum

        sum_k c_k (w z q^(alpha2 - eta2))^k A_k(u) B_k(v)
              Phi_K(u x q^(k + lam3), v y q^(k + eta2), w z).

    u, v, w must be q-lattice points; the 3phi2 factors inside A_k and B_k
    have upper entries 1/u and 1/v and therefore terminate exactly there.
    ConvergenceError if a table of the sum did not converge.
    """
    if kmax is not None:
        _check_indices(kmax=kmax)
    for t in (u, v, w):
        _lattice_index(t, ctx.q)
    rules = [(np.array([float(np.real(t))]), np.ones(1)) for t in (u, v, w)]
    return _checked(*_shift_sum(p, rules, x, y, z, ctx, tol, kmax))


# ---------------------------------------------------------------------------
# Discrete weights and the double-sum identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteFkParams:
    """Exponent parameters of the discrete triple-sum identity weights."""

    alpha1: float
    beta2: float
    gamma1: float
    gamma2: float
    gamma3: float
    lam1: float
    lam2: float
    mu1: float
    mu2: float
    mu3: float


def _discrete_weights(which: str, r: int, p: DiscreteFkParams, q: float) -> np.ndarray:
    """w(i, r) for i = 0..r in long double, the terminating 3phi2 summed for
    every i at once.  w3 is the generic weight with lam = alpha and no 3phi2
    (its first upper base would be q^0).  PoleError if a weight is not finite."""
    pars = {"w1": (p.alpha1, p.gamma1, p.lam1, p.mu1), "w2": (p.beta2, p.gamma2, p.lam2, p.mu2),
            "w3": (0.5, p.gamma3, 0.5, p.mu3)}
    if which not in pars:
        raise DomainError(f"unknown weight {which!r}")
    a, g, lam, mu = pars[which]
    i = np.arange(r + 1)
    exps = (1.0, a, g, lam, mu, g - mu + (lam - a), lam - a, g - a, 1 - r - a)
    qq, qa, qg, ql, qm, qgl, qla, qga, qra = _q_tables([q**e for e in exps], r, np.longdouble(q))
    phi = 1.0
    if which != "w3":
        coef = qla * qga / (qq * qgl * qra) * _q_tables(1.0, r, np.longdouble(q), i - r)
        phi = (coef * np.longdouble(q ** (1 - i - mu))[:, None] ** i).sum(axis=1)
    w = qa[r] * qq[r] / (qg[r] * ql[r]) * qgl[r - i] / qq[r - i] * qm[i] / qq[i]
    w = w * phi * q ** ((r - i) * mu)
    if not np.isfinite(w).all():
        raise PoleError(f"{which}: a lower base of the weights sits on the pole lattice")
    return w


def discrete_weight(which: str, i: int, r: int, p: DiscreteFkParams, ctx: QContext):
    """Finite-sum weights w1(i,r), w2(j,s), w3(k,t) of the discrete identity:
    entry i of the long-double weights of all i <= r, as a float."""
    _check_indices(i=i, r=r)
    if i > r:
        raise DomainError(f"weight index {i} outside 0..{r}")
    return float(_discrete_weights(which, r, p, ctx.q)[i])


def _fk_discrete_sum(q: float, a2, b1, axes):
    """sum_{m,n,p} X_m Y_n Z_p (a2; q)_{n+p} (b1; q)_{m+p} in long double.

    Each axis is (upper bases, lower bases, weights w_0..w_R) and gives
    X_m = q^m prod (u; q)_m / ((q; q)_m prod (l; q)_m) sum_i w_i (q^-i; q)_m,
    m <= R: both sides of the discrete identity, the left with a unit weight
    at r.  Where np.longdouble is plain double (Windows, macOS arm64), the
    accuracy is that of float64.
    """
    lq = np.longdouble(q)
    vecs = []
    for upper, lower, w in axes:
        R = len(w) - 1
        m = np.arange(R + 1)
        qq, *tabs = _q_tables([q, *upper, *lower], R, lq)
        vec = np.asarray(w, np.longdouble) @ _q_tables(1.0, R, lq, -m) * lq**m / qq
        vecs.append(vec * np.prod(tabs[: len(upper)], axis=0) / np.prod(tabs[len(upper) :], axis=0))
    X, Y, Z = vecs
    p = np.arange(len(Z))
    YA = (Y[:, None] * _q_tables(a2, len(Y) + len(Z), lq)[np.arange(len(Y))[:, None] + p]).sum(axis=0)
    XB = (X[:, None] * _q_tables(b1, len(X) + len(Z), lq)[np.arange(len(X))[:, None] + p]).sum(axis=0)
    return (Z * YA * XB).sum()


def discrete_weight_limit(which: str, i, p: DiscreteFkParams, ctx: QContext):
    """Limits of w(r-i, r; q) as the truncation index r grows without bound.

    i is an int or an integer array; an array is evaluated in one batched
    terminating series, and the result has its shape.
    """
    q = ctx.q
    idx = np.asarray(i)
    if idx.dtype.kind not in "iu":
        raise DomainError("weight index must be an int or an integer array")
    if idx.size and idx.min() < 0:
        raise DomainError("weight index must be non-negative")
    top = int(idx.max()) if idx.size else 0
    fi = idx.astype(np.float64)

    def ratio_at(base):
        # (base; q)_i / (q; q)_i for every requested i
        return np.divide(*_q_tables([base, q], top, q))[idx]

    def lim_generic(a, g, lam, mu):
        gl = g + lam - a - mu
        pref = (
            q_pochhammer_inf(q**a, ctx)
            * q_pochhammer_inf(q**mu, ctx)
            / (q_pochhammer_inf(q**g, ctx) * q_pochhammer_inf(q**lam, ctx))
        )
        # The argument is q^(a-mu) q^i, not q^(a-mu+i), whose rounded exponent
        # moves it by up to |ln q| ulp(i): a lattice with one W, as _rphis_array
        # sums it in one convolution.
        phi = _checked(*_rphis_array(
            [q ** (lam - a), q ** (g - a), q ** (-fi)],
            [q**gl],
            q ** (a - mu) * q**fi,
            ctx,
            terminate_after=idx,
        ))
        return pref * ratio_at(q**gl) * q ** (fi * mu) * phi

    if which == "w1":
        out = lim_generic(p.alpha1, p.gamma1, p.lam1, p.mu1)
    elif which == "w2":
        out = lim_generic(p.beta2, p.gamma2, p.lam2, p.mu2)
    elif which == "w3":
        out = (
            q_pochhammer_inf(q**p.mu3, ctx)
            / q_pochhammer_inf(q**p.gamma3, ctx)
            * ratio_at(q ** (p.gamma3 - p.mu3))
            * q ** (fi * p.mu3)
        )
    else:
        raise DomainError(f"unknown weight {which!r}")
    return float(out) if idx.ndim == 0 else out


def gasper_discrete_3phi2(alpha, beta, gamma_, delta, lam, mu, nu, n: int, ctx: QContext):
    """RHS double sum of the discrete 3phi2 transformation (raw bases).

    The LHS it reproduces is 3phi2(alpha, beta, q^-n; gamma, delta; q, q);
    both sides are exact finite sums.
    """
    _check_indices(n=n)
    q = ctx.q
    gmln = gamma_ * mu / (lam * nu)
    _check_lower_poles([gamma_, mu, lam, nu, delta, gmln], q)
    qtab, ltab, gtab, mtab, nutab, gmtab = _q_tables([q, lam, gamma_, mu, nu, gmln], n, q)
    pref = qtab[n] * ltab[n] / (gtab[n] * mtab[n])
    # Both inner series for every k at once, each cut at its own last term;
    # their powers of q are Python float powers.
    k = np.arange(n + 1)
    inner3 = _checked(*_rphis_array(
        [mu / lam, gamma_ / lam, np.array([q ** float(j - n) for j in k])],
        [gmln, q ** float(1 - n) / lam],
        np.array([q ** float(1 - j) / nu for j in k]),
        ctx,
        terminate_after=n - k,
    ))
    inner4 = _checked(*_rphis_array(
        [alpha, beta, mu, np.array([q ** float(-j) for j in k])],
        [lam, nu, delta],
        q,
        ctx,
        terminate_after=k,
    ))
    nu_pow = np.array([nu ** (n - j) for j in range(n + 1)])
    terms = nutab * gmtab[::-1] / (qtab * qtab[::-1]) * nu_pow * inner3 * inner4
    # cumsum adds the k terms in order, as a running total would
    return pref * np.cumsum(terms)[-1]
