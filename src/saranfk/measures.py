"""Weight densities on [0,1] and the Gauss-Jacobi machinery that integrates
against them.

Two measure families appear in the classical integral identities: the
Dirichlet (beta) measure with density

    m_{a,b}(t) = Gamma(a+b)/(Gamma(a)Gamma(b)) t^(a-1) (1-t)^(b-1)

and the hypergeometric measure, a Dirichlet-type weight carrying an extra
2F1(alpha, beta; gamma; 1-t) factor.  Both are normalized to total mass one.

Integration strategy: every measure is reduced to a flat list of nodes and
effective weights ("measure rule") so that integral(f d mu) = sum(w_i f(t_i)).
For the Dirichlet measure this is one Jacobi rule with the density constant
folded in.  The hypergeometric density behaves like t^(eta-1) times a mix of
a constant and a t^(gamma-alpha-beta) branch as t -> 0, which a single Jacobi
rule resolves only at an algebraic rate; instead the interval is split at 1/2
and the 2F1 factor is expanded through its z -> 1-z connection formula on the
left half, giving three endpoint-matched Jacobi pieces whose remainders are
analytic.  Each piece then converges spectrally.  gauss_jacobi_rule builds
each Jacobi rule where it is used, from one eigenvalue call and one weight
pass; nothing is cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import _as_scalar, sp
from .errors import ConvergenceError, DomainError
from .series import _checked, _connection_coeffs, _connection_ok, _series_2f1_near_one, _series_2f1_raw, _series_pfq

__all__ = [
    "DirichletMeasure",
    "HypergeometricMeasure",
    "QuadratureRule",
    "dirichlet_density",
    "hypergeometric_density",
    "gauss_jacobi_rule",
    "measure_rule",
    "integrate_measure",
    "integrate_product",
]


@dataclass(frozen=True)
class DirichletMeasure:
    """Normalized beta weight t^(alpha-1) (1-t)^(beta-1) on [0,1]."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        if not all(complex(v).real > 0 for v in (self.alpha, self.beta)):
            raise DomainError("Dirichlet measure needs min(Re a, Re b) > 0")


@dataclass(frozen=True)
class HypergeometricMeasure:
    """Weight t^(eta-1) (1-t)^(gamma-1) 2F1(alpha, beta; gamma; 1-t), normalized."""

    alpha: complex
    beta: complex
    gamma: complex
    eta: complex

    def __post_init__(self):
        a, b, g, e = (complex(v) for v in (self.alpha, self.beta, self.gamma, self.eta))
        if not all(v.real > 0 for v in (e, g, e + g - a - b)):
            raise DomainError(
                "hypergeometric measure needs min(Re eta, Re gamma, Re(eta+gamma-alpha-beta)) > 0"
            )


MeasureSpec = DirichletMeasure | HypergeometricMeasure


def _slot_exponents(eta, gamma, lam, nu) -> tuple:
    """Gasper's slot map, the hypergeometric measure's exponents in (2.3).  The
    measure exists where Re(nu), Re(gamma - lam + eta - nu) and Re(lam) > 0."""
    return eta - lam, gamma - lam, gamma - lam + eta - nu, nu


def _slot_inverse(alpha, beta, gamma, eta) -> tuple:
    """The (eta, gamma, lam, nu) that _slot_exponents maps to these exponents."""
    lam = eta + gamma - alpha - beta
    return alpha + lam, beta + lam, lam, eta


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights on (0,1) exact for degree <= 2n-1 against t^a (1-t)^b."""

    nodes: np.ndarray
    weights: np.ndarray
    exponents: tuple[float, float]


def gauss_jacobi_rule(a_exp: float, b_exp: float, n: int) -> QuadratureRule:
    """Gauss-Jacobi rule for integral(t^a (1-t)^b f(t), t=0..1), built on each
    call from (1-x)^al (1+x)^be on [-1,1], al = b, be = a, x = 2t-1.  The nodes
    are the eigenvalues of the recurrence's Jacobi matrix (Golub & Welsch, Math.
    Comp. 23, 1969), from one LAPACK dsterf call, whose coefficients have
    positive denominators for exponents above -1.  The weights
    1 / ((1-x)(1+x) P_n'^2), P_n' = (n+al+be+1)/2 P_(n-1)^(al+1, be+1), are
    scaled to the mass B(a+1, b+1).  Exponents above 256 are rejected: past
    them the weights of the larger rules overflow or lose their mass."""
    if not (-1 < a_exp <= 256 and -1 < b_exp <= 256):
        raise DomainError("Jacobi exponents must lie in (-1, 256]")
    if not (0 < n <= 256 and n == int(n)):
        raise DomainError("rule size must be an integer in 1..256")
    from scipy.linalg.lapack import dsterf  # kept out of `import saranfk`

    a_exp, b_exp, n = float(a_exp), float(b_exp), int(n)
    al, be = b_exp, a_exp
    k = np.arange(1.0, n)
    s = 2.0 * k + al + be
    diag = np.concatenate([[(be - al) / (al + be + 2.0)], (be - al) * (be + al) / (s * (s + 2.0))])
    off = 2.0 / s * np.sqrt((k + al) * (k + be) / (s + 1.0))
    off[1:] *= np.sqrt(k[1:] * (k[1:] + al + be) / (s[1:] - 1.0))
    x, info = dsterf(diag, off) if n > 1 else (diag, 0)
    if info:
        raise ConvergenceError(f"LAPACK dsterf did not converge for the {n}-point rule (info {info})")
    dp = sp.eval_jacobi(n - 1, al + 1.0, be + 1.0, x)
    dp /= np.abs(dp).max()  # keeps dp^2 in range for large exponents
    w = 1.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    return QuadratureRule((x + 1.0) / 2.0, w * (sp.beta(a_exp + 1.0, b_exp + 1.0) / w.sum()), (a_exp, b_exp))


def dirichlet_density(spec: DirichletMeasure, t):
    """Pointwise Dirichlet density; t must lie strictly inside (0,1)."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t <= 0.0) or np.any(t >= 1.0):
        raise DomainError("density defined on the open interval (0,1)")
    a, b = complex(spec.alpha), complex(spec.beta)
    const = np.exp(sp.loggamma(a + b) - sp.loggamma(a) - sp.loggamma(b))
    out = const * np.power(t, a - 1.0) * np.power(1.0 - t, b - 1.0)
    if a.imag == 0.0 and b.imag == 0.0:
        out = out.real
    return out if out.ndim else out[()]


LOG_ENDPOINT_MARGIN = 0.05


def _hyp_measure_const(a, b, g, e):
    """Normalising constant of the hypergeometric measure.  Rejects
    Re(gamma - alpha - beta) <= 0.05: there the 2F1 factor develops a
    (near-)logarithmic endpoint at t = 0 that the quadrature pipeline is not
    meant to chase."""
    if (g - a - b).real <= LOG_ENDPOINT_MARGIN:
        raise DomainError(
            "hypergeometric density needs Re(gamma-alpha-beta) > 0.05 away from t=0"
        )
    return np.exp(
        sp.loggamma(e + g - a)
        + sp.loggamma(e + g - b)
        - sp.loggamma(e)
        - sp.loggamma(g)
        - sp.loggamma(e + g - a - b)
    )


def _check_endpoint_expansion(a, b, g):
    if not _connection_ok(a, b, g):
        raise DomainError(
            "gamma - alpha - beta too close to an integer for the endpoint expansion"
        )


def hypergeometric_density(spec: HypergeometricMeasure, t, tol: float = 1e-12):
    """Pointwise hypergeometric-measure density.

    Rejects parameter sets with Re(gamma - alpha - beta) <= 0.05 (see
    _hyp_measure_const), and raises ConvergenceError where the 2F1 factor
    does not reach tol.
    """
    t = np.asarray(t, dtype=np.float64)
    if np.any(t <= 0.0) or np.any(t >= 1.0):
        raise DomainError("density defined on the open interval (0,1)")
    a, b, g, e = (complex(v) for v in (spec.alpha, spec.beta, spec.gamma, spec.eta))
    const = _hyp_measure_const(a, b, g, e)
    w = 1.0 - t
    small = t <= 0.5
    f = np.empty(t.shape if t.ndim else (1,), dtype=np.complex128)
    tt = np.atleast_1d(t)
    ww = np.atleast_1d(w)
    sm = np.atleast_1d(small)
    if np.any(sm):
        # 2F1(alpha, beta; gamma; 1 - t) from t itself.
        _check_endpoint_expansion(a, b, g)
        f[sm] = _checked(*_series_2f1_near_one(a, b, g, tt[sm], tol, 100_000))
    if np.any(~sm):
        f[~sm] = _checked(*_series_2f1_raw((a, b), (g,), ww[~sm], tol, 100_000))
    out = const * np.power(tt, e - 1.0) * np.power(ww, g - 1.0) * f
    if all(v.imag == 0.0 for v in (a, b, g, e)):
        out = out.real
    return out if t.ndim else out[0]


def _dirichlet_rule(spec: DirichletMeasure, order: int):
    a, b = complex(spec.alpha), complex(spec.beta)
    rule = gauss_jacobi_rule(a.real - 1.0, b.real - 1.0, order)
    t = rule.nodes
    const = np.exp(sp.loggamma(a + b) - sp.loggamma(a) - sp.loggamma(b))
    w = rule.weights * const
    if a.imag != 0.0 or b.imag != 0.0:
        w = w * np.power(t, 1j * a.imag) * np.power(1.0 - t, 1j * b.imag)
    else:
        w = np.asarray(w.real if np.iscomplexobj(w) else w, dtype=np.float64)
    return t, w


def _hypergeometric_rule(spec: HypergeometricMeasure, order: int, tol: float = 1e-14):
    a, b, g, e = (complex(v) for v in (spec.alpha, spec.beta, spec.gamma, spec.eta))
    const = _hyp_measure_const(a, b, g, e)
    _check_endpoint_expansion(a, b, g)
    A, B = _connection_coeffs(a, b, g)
    cab = g - a - b
    real_params = all(v.imag == 0.0 for v in (a, b, g, e))

    def piece(expo, far, coef, upper, lower):
        # Substitute s/2 for the distance to the piece's endpoint: the power
        # of exponent expo-1 there goes into the rule, the power of exponent
        # far-1 at the other endpoint and the 2F1 factor, an analytic series
        # in s/2, into the weights.
        r = gauss_jacobi_rule(expo.real - 1.0, 0.0, order)
        half = r.nodes / 2.0
        f = _checked(*_series_pfq(upper, lower, half, tol, 100_000))
        w = r.weights * 2.0 ** (-expo.real) * const * coef * np.power(1.0 - half, far - 1.0) * f
        if expo.imag != 0.0:
            w = w * np.power(half, 1j * expo.imag)
        return half, w

    # Right half [1/2, 1], 1-t = s/2, with the (1-t)^(gamma-1) endpoint.
    s0, w0 = piece(g, e, 1.0, (a, b), (g,))
    # Left half [0, 1/2], t = s/2, analytic branch of the connection formula
    # with the t^(eta-1) endpoint.
    s1, w1 = piece(e, g, A, (a, b), (a + b - g + 1.0,))
    # Left half, t^(gamma-alpha-beta) branch: the fractional power joins the
    # rule exponent, keeping the remainder analytic.
    s2, w2 = piece(e + cab, g, B, (g - a, g - b), (cab + 1.0,))
    t = np.concatenate([1.0 - s0, s1, s2])
    w = np.concatenate([w0, w1, w2])
    if real_params and np.iscomplexobj(w):
        w = w.real
    return t, w


def measure_rule(spec: MeasureSpec, order: int):
    """Nodes and effective weights with the full density absorbed, so that
    integral(f d mu) is approximated by weights @ f(nodes)."""
    if isinstance(spec, DirichletMeasure):
        return _dirichlet_rule(spec, order)
    if isinstance(spec, HypergeometricMeasure):
        return _hypergeometric_rule(spec, order)
    raise TypeError(f"not a measure spec: {spec!r}")


def _rule_sum(w, table) -> np.ndarray:
    """sum_i w_i table[i] over a rule's node axis (none for a 0-d w), by a broadcast sum."""
    return (w[..., None] * table).sum(axis=tuple(range(np.ndim(w))))


def _moment_powers(t, w, z, pmax: int) -> np.ndarray:
    """sum_i w_i (z t_i)^p as a vector over p = 0..pmax."""
    return _rule_sum(w, np.power.outer(z * t, np.arange(pmax + 1)))


def _apply(f: Callable, t: np.ndarray) -> np.ndarray:
    """Evaluate an integrand, vectorized when possible."""
    try:
        vals = np.asarray(f(t))
        if vals.shape == t.shape:
            return vals
    except Exception:
        pass
    return np.asarray([f(ti) for ti in t])


def integrate_measure(f: Callable, spec: MeasureSpec, order: int = 64):
    """integral(f(t) d mu(t), t=0..1) by the effective measure rule."""
    t, w = measure_rule(spec, order)
    vals = _apply(f, t)
    return _as_scalar(np.sum(w * vals))


def integrate_product(f: Callable, specs: Sequence[MeasureSpec], order: int = 32):
    """Tensor-product integral of f(t1, ..., tk) against k measures, k <= 4.

    f receives open-mesh arrays (shapes (n1,1,..), (1,n2,..), ...) and must
    broadcast; non-vectorized integrands can be wrapped with np.vectorize.
    """
    if len(specs) > 4:
        raise DomainError("product integration supports at most 4 axes")
    rules = [measure_rule(s, order) for s in specs]
    k = len(rules)
    grids = []
    for i, (t, _) in enumerate(rules):
        shape = [1] * k
        shape[i] = t.size
        grids.append(t.reshape(shape))
    vals = np.asarray(f(*grids))
    wgrid = rules[0][1].reshape([-1] + [1] * (k - 1))
    for i, (_, w) in enumerate(rules[1:], start=1):
        shape = [1] * k
        shape[i] = w.size
        wgrid = wgrid * w.reshape(shape)
    return _as_scalar(np.sum(wgrid * vals))
