"""Scalar building blocks: gamma, Pochhammer symbols and q-shifted factorials.

Every function here is pure and accepts real or complex scalars; the
q-factorial primitives additionally broadcast over numpy arrays, which the
lattice-sum code relies on.  Powers use the principal branch throughout.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "QContext",
    "gamma",
    "log_gamma",
    "pochhammer",
    "q_beta",
    "q_binomial",
    "q_gamma",
    "q_pochhammer",
    "q_pochhammer_inf",
]


class _Special:
    """Stand-in for scipy.special, imported on the first read of one of its
    functions rather than with the package, whose own sums never need it.
    The function is then cached here, so later reads are one lookup."""

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        import scipy.special

        value = getattr(scipy.special, name)
        setattr(self, name, value)
        return value


sp = _Special()

# Largest argument of exp with a finite double result.
_LOG_MAX = math.log(np.finfo(np.float64).max)

# Distance below which a value counts as sitting on the pole lattice Z_{<=0}.
POLE_TOL = 1e-9

# The one working-memory budget: a table that is reduced as soon as it is
# built (series._sum_terms' blocks, series._power_sum's power matrix,
# series.saran_fk_triple's coefficient rows, q_pochhammer_inf's factors) is
# formed at most this many entries at a time.
_BLOCK_ELEMS = 1 << 15


def is_nonpositive_integer(z, tol: float = POLE_TOL) -> bool:
    """True when z is within tol of {0, -1, -2, ...}; DomainError if z is not finite."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"parameter {z} is not finite")
    if abs(z.imag) > tol:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= tol


def _auto_inf_terms(q: float) -> int:
    # (a;q)_inf truncated at N has relative tail ~ |a| q^N / (1-q); pick N so
    # the tail sits below 1e-18 for moderate |a|.
    n = math.log(1e-18 * (1.0 - q)) / math.log(q)
    return max(60, int(math.ceil(n)) + 10)


@dataclass(frozen=True)
class QContext:
    """Shared base q and truncation controls for all q-evaluations.

    inf_product_terms=0 requests an automatic choice large enough that one
    extra factor changes (a;q)_inf by less than 1e-15 relative.
    """

    q: float
    inf_product_terms: int = 0
    jackson_tail_tol: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"q must lie in (0,1), got {self.q}")
        if self.jackson_tail_tol <= 0:
            raise ValueError("jackson_tail_tol must be positive")
        _check_indices(inf_product_terms=self.inf_product_terms)
        if self.inf_product_terms == 0:
            object.__setattr__(self, "inf_product_terms", _auto_inf_terms(self.q))


def _check_indices(**indices):
    """DomainError unless every index is a non-negative int (a bool is not)."""
    for name, k in indices.items():
        if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 0:
            raise DomainError(f"{name} must be a non-negative int, got {k!r}")


def _as_scalar(value):
    """Collapse a 0-d result to a python float/complex, dropping a zero
    imaginary part."""
    value = complex(value)
    return value.real if value.imag == 0.0 else value


def log_gamma(z):
    """Principal-branch log Gamma(z); rejects the poles at 0, -1, -2, ..."""
    if is_nonpositive_integer(z):
        raise PoleError(f"log_gamma pole at z={z}")
    out = sp.loggamma(complex(z))
    if not np.isfinite(out):
        raise ConvergenceError(f"log_gamma({z}) is not finite")
    return _as_scalar(out)


def gamma(z):
    """Gamma(z): math.gamma for a real z, exp(log_gamma) for a complex one;
    rejects the poles, and raises ConvergenceError where Gamma(z) overflows."""
    z = _as_scalar(z)
    if is_nonpositive_integer(z):
        raise PoleError(f"gamma pole at z={z}")
    try:
        return _as_scalar(math.gamma(z) if isinstance(z, float) else cmath.exp(log_gamma(z)))
    except OverflowError:
        raise ConvergenceError(f"gamma({z}) is not finite") from None


def pochhammer(a, n: int):
    """Rising factorial (a)_n = a (a+1) ... (a+n-1) as an exact product."""
    _check_indices(n=n)
    out = 1.0 + 0.0j
    for j in range(n):
        out *= complex(a) + j
    return _as_scalar(out)


def pochhammer_table(a, nmax: int) -> np.ndarray:
    """Array [(a)_0, (a)_1, ..., (a)_nmax] via cumulative products."""
    _check_indices(nmax=nmax)
    a = complex(a)
    aval = a.real if a.imag == 0.0 else a
    dtype = np.float64 if a.imag == 0.0 else np.complex128
    factors = np.asarray(aval, dtype=dtype) + np.arange(nmax, dtype=np.float64)
    out = np.empty(nmax + 1, dtype=dtype)
    out[0] = 1.0
    if nmax:
        np.cumprod(factors, out=out[1:])
    return out


def q_pochhammer(a, n: int, ctx: QContext):
    """q-shifted factorial (a;q)_n = prod_{j<n} (1 - a q^j); (a;q)_0 = 1."""
    _check_indices(n=n)
    out = 1.0 + 0.0j
    qj = 1.0
    for _ in range(n):
        out *= 1.0 - complex(a) * qj
        qj *= ctx.q
    return _as_scalar(out)


def q_pochhammer_table(a, nmax: int, q: float) -> np.ndarray:
    """Array [(a;q)_0, ..., (a;q)_nmax].

    Entries for a base of the exact form q^{-r} are hard zeros beyond index r,
    so terminating series built from the table stay exactly finite instead of
    accumulating rounding residue.
    """
    _check_indices(nmax=nmax)
    a = complex(a)
    aval = a.real if a.imag == 0.0 else a
    dtype = np.float64 if a.imag == 0.0 else np.complex128
    factors = 1.0 - np.asarray(aval, dtype=dtype) * q ** np.arange(nmax, dtype=np.float64)
    out = np.empty(nmax + 1, dtype=dtype)
    out[0] = 1.0
    if nmax:
        np.cumprod(factors, out=out[1:])
    mag = abs(a)
    if mag > 1.0:
        r = round(-math.log(mag) / math.log(q))
        if 0 <= r < nmax and abs(a * q**r - 1.0) < 1e-8:
            out[r + 1 :] = 0.0
    return out


def q_termination_index(base, q: float, tol: float = 1e-9):
    """n when base == q^{-n} for an integer n >= 0, else None; DomainError if base is not finite."""
    b = complex(base)
    if not cmath.isfinite(b):
        raise DomainError(f"base {b} is not finite")
    if abs(b) < 1.0 + 1e-12:
        return 0 if abs(b - 1.0) < tol else None
    n = round(-math.log(abs(b)) / math.log(q))
    if n >= 0 and abs(b * q**n - 1.0) < tol:
        return n
    return None


def _q_tables(bases, n: int, q, shift=0) -> np.ndarray:
    """(b q^shift; q)_k for k = 0..n and each base b, on a new last axis, in
    the dtype of q: np.longdouble(q) gives long-double tables, whose integer
    powers of q are long double too.  Complex bases with zero imaginary parts
    give a real table.  Where b q^shift is q^-r (q_termination_index), the
    entries past k = r are exact zeros, as the series built from them end
    there; other rows equal q_pochhammer_table's bit for bit."""
    bases = np.asarray(bases)
    if np.iscomplexobj(bases) and not bases.imag.any():
        bases = bases.real
    f = 1 - bases[..., None] * q ** (np.arange(n) + np.asarray(shift)[..., None])
    out = np.ones(f.shape[:-1] + (n + 1,), f.dtype)
    np.cumprod(f, axis=-1, out=out[..., 1:])
    lead = (1 - f[..., :1]).ravel()  # b q^shift
    rows = out.reshape(-1, n + 1)
    big = (abs(lead) > 1.0 - 1e-9).nonzero()[0]
    for j, b in zip(big.tolist(), lead[big].tolist()):
        r = q_termination_index(b, float(q))
        if r is not None:
            rows[j, r + 1 :] = 0.0
    return out


def q_pochhammer_inf(a, ctx: QContext):
    """(a;q)_inf as a truncated product with an a posteriori tail check.

    Accepts scalars or numpy arrays; arrays are mapped elementwise, the
    factor table formed for as many elements at a time as keep it within
    _BLOCK_ELEMS entries.  Each product runs over its factors in order, so
    the values do not depend on that slicing.
    """
    arr = np.asarray(a)
    if np.any(np.abs(arr) >= 1e10):
        raise DomainError("q_pochhammer_inf is ill-posed for |a| >= 1e10")
    n = ctx.inf_product_terms
    powers = ctx.q ** np.arange(n, dtype=np.float64)
    flat, step = arr.ravel(), max(1, _BLOCK_ELEMS // n)
    out = np.concatenate([np.prod(1.0 - np.multiply.outer(flat[i : i + step], powers), axis=-1)
                          for i in range(0, max(1, flat.size), step)]).reshape(arr.shape)
    # One extra factor must be negligible, otherwise the truncation is unsound.
    extra = np.abs(arr) * ctx.q**n
    if np.any(extra > 1e-13 * np.maximum(1.0, np.abs(out))):
        raise ConvergenceError(
            "q_pochhammer_inf truncation check failed; increase inf_product_terms"
        )
    return _as_scalar(out) if arr.ndim == 0 else out


def q_pochhammer_inf_ratio(a, b, ctx: QContext):
    """(a;q)_inf / (b;q)_inf computed factor-by-factor.

    Near q = 1 the individual infinite products underflow while their ratio
    stays moderate, so the quotient form is the only stable one.  Broadcasts
    over arrays in a and b.  No engine calls it: it is kept as the reference
    form that test_core, test_qkernels and demo 04 check the engines against.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    powers = ctx.q ** np.arange(ctx.inf_product_terms, dtype=np.float64)
    num = 1.0 - np.multiply.outer(a, powers)
    den = 1.0 - np.multiply.outer(b, powers)
    out = np.prod(num / den, axis=-1)
    tail = (np.abs(a) + np.abs(b)) * ctx.q**ctx.inf_product_terms
    if np.any(tail > 1e-12):
        raise ConvergenceError("q_pochhammer_inf_ratio truncation check failed")
    return _as_scalar(out) if out.ndim == 0 else out


def _log_q_gamma(x, ctx: QContext):
    """(log |Gamma_q(x)|, sign) for real x, (log Gamma_q(x), 1.0) for complex
    x, as q_gamma below evaluates them."""
    if is_nonpositive_integer(x):
        raise PoleError(f"q_gamma pole at x={x}")
    x = complex(x)
    lnq = math.log(ctx.q)
    powers = ctx.q ** np.arange(1, ctx.inf_product_terms + 1, dtype=np.float64)
    qx_pow = np.exp(lnq * (x + np.arange(ctx.inf_product_terms, dtype=np.float64)))
    sign = 1.0
    if x.imag == 0.0:
        # log|1 - u| for u = q^(x+k) is log1p(-u) below 1 and log1p(u - 2) above,
        # where the factor is negative; is_nonpositive_integer keeps u off 1.
        u = qx_pow.real
        if x.real < 0.0:
            sign = -1.0 if np.count_nonzero(u > 1.0) % 2 else 1.0
            u = np.where(u > 1.0, 2.0 - u, u)
        log_den = np.sum(np.log1p(-u))
    else:
        den = 1.0 - qx_pow
        if np.any(np.abs(den) < 1e-300):
            raise PoleError(f"q_gamma pole at x={x}")
        log_den = np.sum(np.log(den))
    return np.sum(np.log1p(-powers)) - log_den + (1.0 - x) * math.log(1.0 - ctx.q), sign


def q_gamma(x, ctx: QContext):
    """Gamma_q(x) = (q;q)_inf / (q^x;q)_inf * (1-q)^(1-x).

    Evaluated in log space: near q = 1 both infinite products underflow while
    their quotient remains of moderate size.  A real x sums log|1 - q^(x+k)|
    and takes the sign from the negative factors, so its value is real.
    ConvergenceError when the value overflows the double range.
    """
    log_value, sign = _log_q_gamma(x, ctx)
    if log_value.real > _LOG_MAX:
        raise ConvergenceError(f"q_gamma({_as_scalar(x)}) overflows the double range")
    return _as_scalar(sign * np.exp(log_value))


def q_beta(x, y, ctx: QContext):
    """B_q(x,y) = Gamma_q(x) Gamma_q(y) / Gamma_q(x+y), from the three
    log Gamma_q values and one exp, so factors past the double range still
    give a finite B_q.  ConvergenceError when B_q overflows, or when the
    rounding of the log sum, eps (|log G(x)| + |log G(y)| + |log G(x+y)|),
    exceeds 1e-12: the value would have lost its digits to cancellation."""
    (lx, sx), (ly, sy), (lxy, sxy) = (
        _log_q_gamma(v, ctx) for v in (x, y, complex(x) + complex(y)))
    log_value = lx + ly - lxy
    rounding = float(np.finfo(np.float64).eps) * (abs(lx) + abs(ly) + abs(lxy))
    if log_value.real > _LOG_MAX or not rounding <= 1e-12:
        raise ConvergenceError(
            f"q_beta({_as_scalar(x)}, {_as_scalar(y)}) overflows or loses its digits to rounding")
    return _as_scalar(sx * sy * sxy * np.exp(log_value))


def q_binomial(k: int, p: int, ctx: QContext):
    """Gaussian binomial coefficient (q;q)_k / ((q;q)_p (q;q)_{k-p})."""
    _check_indices(k=k, p=p)
    if p > k:
        raise DomainError(f"q_binomial requires 0 <= p <= k, got k={k}, p={p}")
    tab = _q_tables(ctx.q, k, ctx.q)
    return float(tab[k] / (tab[p] * tab[k - p]))
