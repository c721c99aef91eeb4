"""q-side machinery: basic hypergeometric series, the q-analogue of Saran's
F_K, triple q-series, Jackson integrals, q-measures, the shift-operator
kernel and the discrete finite-sum weights.

Conventions.  Public Phi-level operations take exponent parameters (a stands
for the base q^a); the raw-base entry points are the primitive series `rphis`
and the discrete double-sum RHS `gasper_discrete_3phi2`, whose free
parameters genuinely live at base level.

Numerics.  Every series is summed by term recurrence: ratios of the form
(1 - a q^l) / (1 - b q^l) stay moderate even when individual q-shifted
factorials overflow (upper parameters q^{-n} with large n), so terminating
series on the q-lattice evaluate stably.  Terminating series are cut off
explicitly (`terminate_after`): past the termination index the analytic terms
are zero, but rounding residue would be re-amplified by the q^{-l} step
factors of series with fewer denominator than numerator parameters.  The
r_phi_s terms are formed in blocks by series._sum_terms, with the ratios of a
block built in one vectorized expression; the stopping index, the pole check
and the termination cut-off are those of a term-at-a-time loop.  A series of
one element is summed in Python scalars, to the bit for real ones.  phi3 and
jackson_integral grow their index boxes and lattices through series._grow,
with the boundary slabs as tails, and the first sizes of the series and of
the Phi_K p-sum come from series._series_len, as in series.  q_measure_rule
keeps its own cut-off: it returns a lattice rule, not a sum, and evaluates
only the nodes a doubled lattice adds.  Tables follow the dtype of their
inputs: real exponents and arguments sum in float64.

Phi_K.  `_phi_k_sum` is the one sum of the q-F_K through its third-index
decomposition against three lattice rules, and `_shift_sum` the one
shift-operator sum; a point value is the rule sum over one-node rules.
The discrete identity's weighted triple sum and its weights are exact finite
sums that cancel heavily, and are formed in long double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    QContext,
    _as_scalar,
    q_gamma,
    q_pochhammer_inf,
    q_pochhammer_inf_ratio,
    q_pochhammer_table,
)
from .errors import ConvergenceError, DomainError, PoleError
from .series import FkParams, SeriesResult, _checked, _face_tails, _grow, _series_len, _sum_terms

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


def q_termination_index(base, q: float, tol: float = 1e-9):
    """Return n when base == q^{-n} for some integer n >= 0, else None."""
    b = complex(base)
    if abs(b) < 1.0 + 1e-12:
        return 0 if abs(b - 1.0) < tol else None
    n = round(-math.log(abs(b)) / math.log(q))
    if n >= 0 and abs(b * q**n - 1.0) < tol:
        return n
    return None


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


def _rphis_array(
    uppers: Sequence,
    lowers: Sequence,
    z,
    ctx: QContext,
    tol: float = 1e-12,
    terminate_after=None,
    max_terms: int = 5000,
):
    """Basic hypergeometric series with full broadcasting over parameters and
    argument.  Returns (value array, terms, converged, tail estimate).

    terminate_after gives, per broadcast element, the index of the last
    nonzero term; later terms are forced to zero.
    """
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
    cplx = any(np.iscomplexobj(a) for a in arrays)
    dtype = np.complex128 if cplx else np.float64
    zc = np.asarray(z).astype(dtype)
    sign = -1.0 if spow % 2 else 1.0
    # Ratios span the parameters' axes, or all axes when terminate_after does.
    pdim = len(shape) if ta is not None else max((a.ndim for a in arrays[:-1]), default=0)

    def block(n0, W):
        ells = range(n0, n0 + W)
        col = (W,) + (1,) * pdim
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
        ratio = num / den
        if ta is not None:
            ratio = np.where(live, ratio, 0.0)
        ops = [(np.multiply, ratio), (np.multiply, [zc] * W)]
        if spow:
            ops.append((np.multiply, [sign * q ** (ell * spow) for ell in ells]))
        return ops, poles

    if ta is not None:
        total, ell, _, _ = _sum_terms(block, shape, dtype, nsteps)
        return total, ell, bool(np.isfinite(total).all()), 0.0
    total, ell, small, est = _sum_terms(block, shape, dtype, nsteps, tol, 0.25)
    return total, ell, small >= 3 and ell >= 8, est


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
    if az >= 1.0:
        raise DomainError("phi3 argument must satisfy |arg| < 1 unless terminating")
    return _series_len(az, tol, 10, 64)


def phi3(spec: Phi3Spec, x, y, z, ctx: QContext, tol: float = 1e-12) -> SeriesResult:
    """Triple basic hypergeometric series, summed over an adaptive index box
    with the joint q-shifted factorials gathered from cumulative tables."""
    q = ctx.q
    spec.validate(q)
    x, y, z = complex(x), complex(y), complex(z)

    tm = _group_terminations((*spec.c, *spec.a, *spec.b, *spec.bpp), q)
    tn = _group_terminations((*spec.cp, *spec.a, *spec.b, *spec.bp), q)
    tp = _group_terminations((*spec.cpp, *spec.a, *spec.bp, *spec.bpp), q)
    sizes = [_axis_size(v, tol, t) for v, t in ((x, tm), (y, tn), (z, tp))]
    # A terminating axis is summed to its last nonzero term already.
    complete = [i for i, t in enumerate((tm, tn, tp)) if t]

    def tab(group, upto):
        out = None
        for v in group:
            t = q_pochhammer_table(v, upto, q)
            out = t if out is None else out * t
        return out

    def build(sizes):
        M, N, P = sizes
        m = np.arange(M)[:, None, None]
        n = np.arange(N)[None, :, None]
        p = np.arange(P)[None, None, :]
        qfact = q_pochhammer_table(q, max(M, N, P) - 1, q)

        def axis_vec(val, length, num_group, den_group):
            f = np.arange(length)
            vec = np.power(val if val.imag else val.real, f) / qfact[:length]
            tnum = tab(num_group, length - 1)
            if tnum is not None:
                vec = vec * tnum
            tden = tab(den_group, length - 1)
            if tden is not None:
                vec = vec / tden
            return vec

        vx = axis_vec(x, M, spec.c, spec.h)
        vy = axis_vec(y, N, spec.cp, spec.hp)
        vz = axis_vec(z, P, spec.cpp, spec.hpp)
        tensor = vx[:, None, None] * vy[None, :, None] * vz[None, None, :]

        def joint(num_group, den_group, idx):
            upto = sum(idx.shape) - idx.ndim  # the largest index in idx
            tnum = tab(num_group, upto)
            tden = tab(den_group, upto)
            if tnum is None and tden is None:
                return None
            vals = tnum if tnum is not None else np.ones(upto + 1)
            if tden is not None:
                vals = vals / tden
            return vals[idx]

        for num_group, den_group, idx in (
            (spec.a, spec.e, m + n + p), (spec.b, spec.g, m + n),
            (spec.bp, spec.gp, n + p), (spec.bpp, spec.gpp, m + p),
        ):
            j = joint(num_group, den_group, idx)
            if j is not None:
                tensor = tensor * j
        return tensor.sum(), _face_tails(tensor, complete), 0.0, tensor.size

    return _grow(build, sizes, [96, 96, 96], tol, 0.2)


# ---------------------------------------------------------------------------
# q-analogue of Saran's F_K
# ---------------------------------------------------------------------------


def _phi_k_spec(p: FkParams, q: float) -> Phi3Spec:
    return Phi3Spec(
        bp=(q**p.alpha2,),
        bpp=(q**p.beta1,),
        c=(q**p.alpha1,),
        cp=(q**p.beta2,),
        h=(q**p.gamma1,),
        hp=(q**p.gamma2,),
        hpp=(q**p.gamma3,),
    )


def phi_k_p_tables(p: FkParams, X, Y, ctx: QContext, pmax: int, tol: float = 1e-13, extra=()):
    """Decomposition of the q-F_K over its third index:

        Phi_K(X, Y, Z) = sum_p coef[p] A[..., p] B[..., p] Z^p

    with A, B shifted 2phi1 tables over argument arrays X, Y; parameters are
    exponents.  extra gives, per gamma slot j, one exponent pair (u_j, l_j)
    whose factor (q^u_j; q) / (q^l_j; q) joins that slot's index, so A, B
    become 3phi2 tables: Corollary 4.2 with (eta_j, lam_j) and nu_j as gamma_j.
    Tables take the dtype of the parameters and arguments.  Returns (coef, A,
    B, A converged, B converged).
    """
    q = ctx.q
    (u1, l1), (u2, l2), (u3, l3) = [([q**u], [q**l]) for u, l in extra] or [([], [])] * 3
    qa2, qb1 = q**p.alpha2, q**p.beta1

    def tab(*bases):
        return np.prod([q_pochhammer_table(b, pmax, q) for b in bases], axis=0)

    coef = tab(qa2, qb1, *u3) / tab(q**p.gamma3, *l3, q)
    shifts = q ** np.arange(pmax + 1, dtype=np.float64)
    A, _, okA, _ = _rphis_array(
        [qb1 * shifts, q**p.alpha1, *u1], [q**p.gamma1, *l1], np.asarray(X)[..., None], ctx, tol
    )
    B, _, okB, _ = _rphis_array(
        [qa2 * shifts, q**p.beta2, *u2], [q**p.gamma2, *l2], np.asarray(Y)[..., None], ctx, tol
    )
    return coef, A, B, okA, okB


def _rule_sum(w, table) -> np.ndarray:
    """sum_i w_i table[i] over a rule's node axis (none for a 0-d w), by a broadcast sum."""
    return (w[..., None] * table).sum(axis=tuple(range(np.ndim(w))))


def _moment_powers(t, w, z, pmax: int) -> np.ndarray:
    """sum_i w_i (z t_i)^p as a vector over p = 0..pmax."""
    return _rule_sum(w, np.power.outer(z * t, np.arange(pmax + 1)))


# The one node 1 with weight 1, whose rule sums are point values.  It has no node
# axis: a length-1 axis would cost the term loops of its tables a tenth of their time.
_ONE_NODE = (np.float64(1.0), np.float64(1.0))


def _phi_k_sum(p: FkParams, rules, x, y, z, ctx: QContext, tol: float, extra=()):
    """Phi_K(x t1, y t2, z t3) summed against three lattice rules (t_j, w_j)
    through its third-index decomposition (`phi_k_p_tables`, with extra):

        sum_p coef[p] (sum_i w1_i A_ip) (sum_j w2_j B_jp) sum_l w3_l (z t3_l)^p.

    Three _ONE_NODE rules give the point value Phi_K(x, y, z).  Returns
    (value, terms, converged, relative size of the last p term).
    """
    (t1, w1), (t2, w2), (t3, w3) = rules
    pmax = _series_len(abs(z) * float(np.max(t3)), tol, 8, 160)
    coef, A, B, okA, okB = phi_k_p_tables(p, x * t1, y * t2, ctx, pmax, tol * 1e-2, extra)
    rows = coef * _rule_sum(w1, A) * _rule_sum(w2, B) * _moment_powers(t3, w3, z, pmax)
    total = rows.sum()
    return _as_scalar(total), rows.size, okA and okB, float(np.abs(rows[-1])) / (1.0 + abs(total))


def phi_k_q(p: FkParams, x, y, z, ctx: QContext, tol: float = 1e-12) -> SeriesResult:
    """q-analogue of Saran's F_K with exponent parameters.

    Evaluates both the triple series and the 2phi1 reexpansion (`_phi_k_sum`
    at one node), cross-checks them, and returns the reexpansion value; a
    mismatch beyond 100*tol raises ConvergenceError.  converged holds only
    when the triple series and both 2phi1 tables of the reexpansion converged.
    """
    if max(abs(x), abs(y), abs(z)) >= 1.0:
        raise DomainError("Phi_K requires |x| < 1, |y| < 1, |z| < 1")
    value, nterms, ok, est = _phi_k_sum(p, [_ONE_NODE] * 3, x, y, z, ctx, tol)
    triple = phi3(_phi_k_spec(p, ctx.q), x, y, z, ctx, tol)
    diff = abs(complex(value) - complex(triple.value)) / (1.0 + abs(value))
    if diff > 100.0 * tol:
        raise ConvergenceError(
            f"Phi_K cross-form mismatch {diff:.3e} beyond {100.0 * tol:.1e}"
        )
    return SeriesResult(value, nterms + triple.terms_used, ok and triple.converged, max(est, diff))


# ---------------------------------------------------------------------------
# Jackson integrals and q-measures
# ---------------------------------------------------------------------------


def _lattice_size(ctx: QContext, decay: float = 1.0, scale: float = 1.0) -> int:
    n = math.ceil(math.log(ctx.jackson_tail_tol) / (decay * math.log(ctx.q)))
    return int(max(40, n + 8) * scale)


def jackson_integral(f, k: int, ctx: QContext, scale: float = 1.0):
    """k-dimensional Jackson integral (1-q)^k sum_n f(q^n) q^(n1+...+nk).

    f receives open-mesh arrays of lattice values and must broadcast.  Each
    axis starts at max(40, log_q tail_tol) points and grows through _grow until
    its boundary slab of the weighted sum is within tail_tol (margin 1);
    ConvergenceError when it reaches its cap first.
    """
    if not (1 <= k <= 3):
        raise DomainError("jackson_integral supports dimensions 1..3")
    q = ctx.q

    def build(sizes):
        grids = [
            q ** np.arange(n, dtype=np.float64).reshape([n if j == i else 1 for j in range(k)])
            for i, n in enumerate(sizes)
        ]
        weighted = (1.0 - q) ** k * math.prod(grids) * np.asarray(f(*grids))
        return weighted.sum(), _face_tails(weighted), 0.0, weighted.size

    cap = {1: 20000, 2: 2000, 3: 500}[k]
    r = _grow(build, [_lattice_size(ctx, 1.0, scale)] * k, [cap] * k, ctx.jackson_tail_tol, 1.0)
    if not r.converged:
        raise ConvergenceError("Jackson lattice tail bound not met at cutoff cap")
    return r.value


@dataclass(frozen=True)
class QDirichletMeasure:
    """q-deformation of the Dirichlet measure; parameters are exponents."""

    alpha: complex
    beta: complex
    ctx: QContext

    def __post_init__(self):
        if min(complex(self.alpha).real, complex(self.beta).real) <= 0:
            raise DomainError("q-Dirichlet measure needs min(Re a, Re b) > 0")


@dataclass(frozen=True)
class QHypergeometricMeasure:
    """q-deformation of the hypergeometric measure (slot exponents)."""

    alpha: complex
    beta: complex
    gamma: complex
    eta: complex
    ctx: QContext

    def __post_init__(self):
        a, b, g, e = (complex(v) for v in (self.alpha, self.beta, self.gamma, self.eta))
        if min(e.real, g.real, (e + g - a - b).real) <= 0:
            raise DomainError(
                "q-hypergeometric measure needs min(Re eta, Re gamma,"
                " Re(eta+gamma-alpha-beta)) > 0"
            )


QMeasureSpec = QDirichletMeasure | QHypergeometricMeasure


def _lattice_index(t, q: float) -> int:
    tv = float(np.real(t))
    if not (0.0 < tv <= 1.0):
        raise DomainError(f"t={t} is not a q-lattice point")
    n = max(0, round(math.log(tv) / math.log(q)))
    if abs(q**n - tv) > 1e-9 * max(tv, 1e-30):
        raise DomainError(f"t={t} is not a q-lattice point q^n")
    return n


def _q_density_lattice(spec: QMeasureSpec, n: np.ndarray):
    """Density values at lattice points t = q^n, vectorized over n."""
    ctx = spec.ctx
    q = ctx.q
    t = q ** n.astype(np.float64)
    if isinstance(spec, QDirichletMeasure):
        a, b = _as_scalar(spec.alpha), _as_scalar(spec.beta)
        const = q_gamma(a + b, ctx) / (q_gamma(a, ctx) * q_gamma(b, ctx))
        ratio = q_pochhammer_inf_ratio(t * q, t * q**b, ctx)
        return const * np.power(t, a - 1.0) * ratio
    a, b, g, e = (_as_scalar(v) for v in (spec.alpha, spec.beta, spec.gamma, spec.eta))
    const = (
        q_gamma(e + g - a, ctx)
        * q_gamma(e + g - b, ctx)
        / (q_gamma(e, ctx) * q_gamma(g, ctx) * q_gamma(e + g - a - b, ctx))
    )
    ratio = q_pochhammer_inf_ratio(t * q, t * q**g, ctx)
    # The 3phi1 factor terminates at lattice points: its upper entry 1/t is
    # q^{-n} there, capping the series at n+1 exact terms.
    phi31 = _checked(*_rphis_array(
        [q**a, q**b, 1.0 / t],
        [q**g],
        t * q ** (g - a - b),
        ctx,
        terminate_after=n,
    ))
    return const * np.power(t, e - 1.0) * ratio * phi31


def q_measure_density(spec: QMeasureSpec, t):
    """Density at a q-lattice point t = q^n (q-integrals only sample these)."""
    n = _lattice_index(t, spec.ctx.q)
    return _as_scalar(_q_density_lattice(spec, np.asarray([n]))[0])


def _measure_decay(spec: QMeasureSpec) -> float:
    if isinstance(spec, QDirichletMeasure):
        return complex(spec.alpha).real
    a, b, g, e = (complex(v) for v in (spec.alpha, spec.beta, spec.gamma, spec.eta))
    return (e + g - a - b).real


def q_measure_rule(spec: QMeasureSpec, scale: float = 1.0):
    """Lattice nodes and effective weights of a q-measure, so that
    integral(f d mu) ~ weights @ f(nodes).  The lattice doubles until its tail
    bound holds, and evaluates only the nodes it adds.  It stops at 4000 nodes,
    or sooner at the last n whose q^n is a normal double: past it t = 0 and
    t^(a-1) is not finite."""
    ctx = spec.ctx
    q = ctx.q
    cap = min(4000, math.floor(math.log(np.finfo(np.float64).tiny) / math.log(q)))
    N = min(cap, _lattice_size(ctx, max(_measure_decay(spec), 0.05), scale))
    t = w = np.empty(0)
    for _ in range(4):
        n = np.arange(t.size, N)
        tn = q ** n.astype(np.float64)
        t = np.concatenate([t, tn])
        w = np.concatenate([w, (1.0 - q) * tn * _q_density_lattice(spec, n)])
        # Geometric extrapolation of the dropped tail from the last weights.
        rhat = min(float(np.abs(w[-1]) / max(np.abs(w[-2]), 1e-300)), 0.98)
        tail = float(np.abs(w[-1])) * (1.0 + rhat / (1.0 - rhat))
        if tail <= ctx.jackson_tail_tol * (1.0 + float(np.abs(w).sum())):
            return t, w
        if N >= cap:
            break
        N = min(cap, N * 2)
    raise ConvergenceError("q-measure lattice tail bound not met")


def q_moment(spec: QMeasureSpec, ell: int):
    """Closed-form lattice moment integral(t^ell d mu)."""
    if ell < 0:
        raise ValueError("moment order must be non-negative")
    q = spec.ctx.q
    if isinstance(spec, QDirichletMeasure):
        a, b = complex(spec.alpha), complex(spec.beta)
        num = q_pochhammer_table(q**a, ell, q)[ell]
        den = q_pochhammer_table(q ** (a + b), ell, q)[ell]
        return _as_scalar(num / den)
    a, b, g, e = (complex(v) for v in (spec.alpha, spec.beta, spec.gamma, spec.eta))
    # Slot solve: the measure was built from (eta-lam, gam-lam,
    # gam-lam+eta-nu, nu); recover the original exponents.
    nu = e
    lam = e + g - a - b
    eta_big = a + lam
    gam_big = b + lam
    num = q_pochhammer_table(q**nu, ell, q)[ell] * q_pochhammer_table(q**lam, ell, q)[ell]
    den = (
        q_pochhammer_table(q**gam_big, ell, q)[ell]
        * q_pochhammer_table(q**eta_big, ell, q)[ell]
    )
    return _as_scalar(num / den)


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
):
    """The shift-operator k-sum of the q-F_K against lattice rules (t_j, w_j)
    for u, v and w; one-node rules give the point value at (u, v, w):

        sum_{k, p} ck[k] coef[p] (sum_i wu_i A_ik FA_ikp) (sum_j wv_j B_jk FB_jkp)
                                  sum_l ww_l (z t_l)^(k + p),
        ck[k] = (q^eta2; q)_k / (q; q)_k q^((alpha2 - eta2) k),
        A_ik = _shift_factor(u_i, x, k + lam3, lam1 - eta1, lam1),

    B likewise with (v, y, k + eta2, lam2 - mu2, lam2), and coef, FA, FB the
    third-index decomposition of the inner Phi_K at (u x q^(k + lam3),
    v y q^(k + eta2)).  zmag = |z| times the largest w-node sets both
    cutoffs; an explicit kmax overrides the k one.  Returns (value, terms,
    converged, relative size of the last k and p slabs).
    """
    (tu, wu), (tv, wv), (tw, ww) = rules
    q = ctx.q
    zmag = abs(z) * float(np.max(tw))
    base = zmag * q ** (p.alpha2 - p.eta2)
    if zmag != 0 and base >= 0.999:
        raise ConvergenceError("shift-operator k-sum is non-convergent: |wz| q^(a2-e2) >= 1")
    if kmax is None:
        kmax = 0 if zmag == 0 else int(
            np.clip(math.ceil(math.log(tol * 1e-2) / math.log(max(base, 1e-12))), 8, 300)
        )
    ks = np.arange(kmax + 1, dtype=np.float64)
    ck = q_pochhammer_table(q**p.eta2, kmax, q) / q_pochhammer_table(q, kmax, q)
    ck = ck * (q ** (p.alpha2 - p.eta2)) ** ks
    A, XA = _shift_factor(tu[:, None], x, p.lam3 + ks, p.lam1 - p.eta1, p.lam1, ctx)
    B, YB = _shift_factor(tv[:, None], y, p.eta2 + ks, p.lam2 - p.mu2, p.lam2, ctx)
    inner = FkParams(
        alpha1=p.alpha1,
        alpha2=p.alpha2 - p.eta2,
        beta1=p.beta1 - p.lam3,
        beta2=p.beta2,
        gamma1=p.alpha1 - p.lam1 + p.eta1,
        gamma2=p.beta2 - p.lam2 + p.mu2,
        gamma3=p.beta1 - p.lam3,
    )
    pmax = _series_len(zmag, tol, 8, 160)
    coef, FA, FB, okA, okB = phi_k_p_tables(inner, XA, YB, ctx, pmax, tol=tol * 1e-2)
    SU = np.einsum("i,ik,ikp->kp", wu, A, FA)
    SV = np.einsum("j,jk,jkp->kp", wv, B, FB)
    kp = np.add.outer(np.arange(kmax + 1), np.arange(pmax + 1))
    terms = ck[:, None] * coef * SU * SV * _moment_powers(tw, ww, z, kmax + pmax)[kp]
    total = terms.sum()
    return _as_scalar(total), terms.size, okA and okB, max(_face_tails(terms)) / (1.0 + abs(total))


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


def _qp(base, n, q):
    return q_pochhammer_table(base, n, q)[n]


def _check_indices(**indices):
    """DomainError unless every index is a non-negative int."""
    for name, k in indices.items():
        if not isinstance(k, (int, np.integer)) or k < 0:
            raise DomainError(f"{name} must be a non-negative int, got {k!r}")


def _qp_ld(bases, n: int, q: float, shift=0) -> np.ndarray:
    """(b q^shift; q)_k for k = 0..n and each base b, on a new last axis, in
    long double.  The integer powers of q are long double too, so base 1 with
    shift -i is (q^-i; q), exactly zero past k = i."""
    powers = np.longdouble(q) ** (np.arange(n) + np.asarray(shift)[..., None])
    f = 1 - np.asarray(bases, np.longdouble)[..., None] * powers
    out = np.ones(f.shape[:-1] + (n + 1,), np.longdouble)
    np.cumprod(f, axis=-1, out=out[..., 1:])
    return out


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
    qq, qa, qg, ql, qm, qgl, qla, qga, qra = _qp_ld([q**e for e in exps], r, q)
    phi = 1.0
    if which != "w3":
        coef = qla * qga / (qq * qgl * qra) * _qp_ld(1.0, r, q, i - r)
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
    vecs = []
    for upper, lower, w in axes:
        R = len(w) - 1
        m = np.arange(R + 1)
        qq, *tabs = _qp_ld([q, *upper, *lower], R, q)
        vec = np.asarray(w, np.longdouble) @ _qp_ld(1.0, R, q, -m) * np.longdouble(q) ** m / qq
        vecs.append(vec * np.prod(tabs[: len(upper)], axis=0) / np.prod(tabs[len(upper) :], axis=0))
    X, Y, Z = vecs
    p = np.arange(len(Z))
    YA = (Y[:, None] * _qp_ld(a2, len(Y) + len(Z), q)[np.arange(len(Y))[:, None] + p]).sum(axis=0)
    XB = (X[:, None] * _qp_ld(b1, len(X) + len(Z), q)[np.arange(len(X))[:, None] + p]).sum(axis=0)
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
        return (q_pochhammer_table(base, top, q) / q_pochhammer_table(q, top, q))[idx]

    def lim_generic(a, g, lam, mu):
        gl = g + lam - a - mu
        pref = (
            q_pochhammer_inf(q**a, ctx)
            * q_pochhammer_inf(q**mu, ctx)
            / (q_pochhammer_inf(q**g, ctx) * q_pochhammer_inf(q**lam, ctx))
        )
        phi = _checked(*_rphis_array(
            [q ** (lam - a), q ** (g - a), q ** (-fi)],
            [q**gl],
            q ** (a - mu + fi),
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
    pref = _qp(q, n, q) * _qp(lam, n, q) / (_qp(gamma_, n, q) * _qp(mu, n, q))
    qtab = q_pochhammer_table(q, n, q)
    nutab = q_pochhammer_table(nu, n, q)
    gmtab = q_pochhammer_table(gmln, n, q)
    total = 0.0
    for k in range(n + 1):
        inner3 = _checked(*_rphis_array(
            [mu / lam, gamma_ / lam, q ** float(k - n)],
            [gmln, q ** float(1 - n) / lam],
            q ** float(1 - k) / nu,
            ctx,
            terminate_after=n - k,
        ))
        inner4 = _checked(*_rphis_array(
            [alpha, beta, mu, q ** float(-k)],
            [lam, nu, delta],
            q,
            ctx,
            terminate_after=k,
        ))
        total += (
            nutab[k]
            * gmtab[n - k]
            / (qtab[k] * qtab[n - k])
            * nu ** (n - k)
            * float(inner3[()])
            * float(inner4[()])
        )
    return pref * total
