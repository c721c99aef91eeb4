"""Classical (q = 1) integral identities: Euler, Bateman and Erdelyi
integrals for 2F1, the Erdelyi-type triple integral for Saran's F_K, the
curious F2 representation, Manocha's integral and its reduction, and the
convolution-family extension.

Right-hand sides are evaluated by weighted quadrature rules with all series
factors vectorized over the nodes; left-hand sides go through the scalar
series engines.  A case's measures function (IdentityCase.measures) lists
the measures its right-hand side integrates against, and _rules, the one
place that picks a quadrature order, builds their rules.  Both sides of
fa-erdelyi take their 2F1 families from _shifted_2f1, at different
parameters and arguments; otherwise the two sides share no code path beyond
the 2F1 primitive.
"""

from __future__ import annotations


import numpy as np

from .core import pochhammer_table, sp
from .measures import DirichletMeasure, HypergeometricMeasure, _moment_powers, _slot_exponents, measure_rule
from .errors import DomainError
from .registry import IdentityCase, ParameterPoint, _u
from .series import (
    CoeffSequence2D,
    FkParams,
    _checked,
    _eval_2f1,
    _series_len,
    _series_pfq,
    _shifted_2f1,
    _shifted_2f1_rows,
    appell_f2,
    convolve2d,
    delta_sequence,
    fk_diagonal_sequence,
    gauss_2f1,
    generic_f_a,
    geometric_sequence,
    saran_fk_reexpand,
    saran_fk_triple,
)

# ---------------------------------------------------------------------------
# Sampling helpers
# ---------------------------------------------------------------------------


def _gap_pair(rng, lo=0.4, hi=1.0, gap_lo=0.4, gap_hi=1.2):
    """(small, large) with large = small + uniform gap; models a > b > 0."""
    small = _u(rng, lo, hi)
    return small, small + _u(rng, gap_lo, gap_hi)


def _fk_args(rng, shrink=0.8):
    x = _u(rng, 0.05, 0.45)
    y = _u(rng, 0.05, 0.45)
    z = _u(rng, 0.1, 1.0) * shrink * (1.0 - x) * (1.0 - y)
    return x, y, z


def _yz_args(rng, total=0.8):
    y = _u(rng, 0.05, total - 0.1)
    z = _u(rng, 0.05, total - y)
    return y, z


# ---------------------------------------------------------------------------
# Shared evaluator pieces
# ---------------------------------------------------------------------------


def _measure(v, names) -> DirichletMeasure | HypergeometricMeasure:
    """The measure named by the point's symbols: (small, big) is the Dirichlet
    measure (small, big - small), which exists where Re(big) > Re(small) > 0,
    and (eta, gamma, lam, nu) the hypergeometric measure in Gasper's slots
    (measures._slot_exponents)."""
    x = [v[k] for k in names]
    return DirichletMeasure(x[0], x[1] - x[0]) if len(x) == 2 else HypergeometricMeasure(*_slot_exponents(*x))


def _measures(*axes):
    """The measures function of one _measure per axis of symbol names."""
    return lambda v: tuple(_measure(v, names) for names in axes)


# Each case's measures; lam_measures serves Bateman's (1.5), Erdelyi's (1.6)
# and Gasper's (2.1), slot_measures Erdelyi's (1.8) and Gasper's (2.3).
_euler1_measures = _measures(("beta", "gamma"))
_euler2_measures = _measures(("alpha", "gamma"))
lam_measures = _measures(("lam", "gamma"))
_erdelyi2_measures = _measures(("eta", "gamma"))
slot_measures = _measures(("eta", "gamma", "lam", "nu"))
_manocha_measures = _measures(("lam", "d"), ("eta", "e"))
_manocha_reduced_measures = _measures(("lam", "d"), ("c", "e"))
_fa_measures = _measures(*((f"g{j}", f"tau{j}") for j in range(1, 5)))


def _rules(measures, s) -> list:
    """The Gauss-Jacobi measure rule of each measure: at quad_order for one or
    two measures, quad_order_triple for three and quad_order_quad for four."""
    order = {3: s.quad_order_triple, 4: s.quad_order_quad}.get(len(measures), s.quad_order)
    return [measure_rule(m, order) for m in measures]


def _ratio_table(a, b, n: int) -> np.ndarray:
    """[(a)_k / (b)_k for k = 0..n] via a running ratio."""
    out = np.ones(n + 1)
    if n:
        np.cumprod((a + np.arange(n)) / (b + np.arange(n)), out=out[1:])
    return out


# ---------------------------------------------------------------------------
# 2F1 single-integral identities
# ---------------------------------------------------------------------------


def _sample_euler(rng) -> ParameterPoint:
    beta, gamma = _gap_pair(rng)
    return ParameterPoint(
        values={"alpha": _u(rng, 0.1, 2.5), "beta": beta, "gamma": gamma},
        arguments={"z": _u(rng, 0.05, 0.7)},
    )


def _lhs_2f1(pt, s):
    v = pt.flat()
    return complex(_checked(*gauss_2f1(v["alpha"], v["beta"], v["gamma"], v["z"], s.series_tol)))


def _rhs_euler1(pt, s):
    v = pt.flat()
    [(t, w)] = _rules(_euler1_measures(v), s)
    return complex(np.sum(w * np.power(1.0 - v["z"] * t, -v["alpha"])))


def _sample_euler2(rng) -> ParameterPoint:
    alpha, gamma = _gap_pair(rng)
    return ParameterPoint(
        values={"alpha": alpha, "beta": _u(rng, 0.1, 2.5), "gamma": gamma},
        arguments={"z": _u(rng, 0.05, 0.7)},
    )


def _rhs_euler2(pt, s):
    v = pt.flat()
    [(t, w)] = _rules(_euler2_measures(v), s)
    return complex(np.sum(w * np.power(1.0 - v["z"] * t, -v["beta"])))


def _sample_bateman(rng) -> ParameterPoint:
    lam, gamma = _gap_pair(rng)
    return ParameterPoint(
        values={
            "alpha": _u(rng, 0.1, 2.5),
            "beta": _u(rng, 0.1, 2.5),
            "gamma": gamma,
            "lam": lam,
        },
        arguments={"z": _u(rng, 0.05, 0.7)},
    )


def _rhs_bateman(pt, s):
    v = pt.flat()
    [(t, w)] = _rules(lam_measures(v), s)
    inner = _checked(*_eval_2f1(v["alpha"], v["beta"], v["lam"], v["z"] * t, s.series_tol))
    return complex(np.sum(w * inner))


def _sample_erdelyi1(rng) -> ParameterPoint:
    lam, gamma = _gap_pair(rng)
    return ParameterPoint(
        values={
            "alpha": _u(rng, 0.1, 2.5),
            "beta": _u(rng, 0.1, 2.5),
            "gamma": gamma,
            "lam": lam,
            "alphap": _u(rng, 0.1, 2.0),
        },
        arguments={"z": _u(rng, 0.05, 0.7)},
    )


def _rhs_erdelyi1(pt, s):
    v = pt.flat()
    a, b, g, lam, ap, z = (v[k] for k in ("alpha", "beta", "gamma", "lam", "alphap", "z"))
    [(t, w)] = _rules(lam_measures(v), s)
    f1 = _checked(*_eval_2f1(a - ap, b, lam, z * t, s.series_tol))
    f2 = _checked(*_eval_2f1(ap, b - lam, g - lam, (1.0 - t) * z / (1.0 - t * z), s.series_tol))
    return complex(np.sum(w * np.power(1.0 - z * t, -ap) * f1 * f2))


def _sample_erdelyi2(rng) -> ParameterPoint:
    eta, gamma = _gap_pair(rng)
    return ParameterPoint(
        values={
            "alpha": _u(rng, 0.1, 2.5),
            "beta": _u(rng, 0.1, 2.5),
            "gamma": gamma,
            "eta": eta,
            "lam": _u(rng, 0.1, 2.5),
        },
        arguments={"z": _u(rng, 0.05, 0.7)},
    )


def _rhs_erdelyi2(pt, s):
    v = pt.flat()
    a, b, g, eta, lam, z = (v[k] for k in ("alpha", "beta", "gamma", "eta", "lam", "z"))
    [(t, w)] = _rules(_erdelyi2_measures(v), s)
    f1 = _checked(*_eval_2f1(lam - a, lam - b, eta, z * t, s.series_tol))
    f2 = _checked(*_eval_2f1(a + b - lam, lam - eta, g - eta, (1.0 - t) * z / (1.0 - t * z), s.series_tol))
    return complex(np.sum(w * np.power(1.0 - z * t, lam - a - b) * f1 * f2))


def _sample_erdelyi3(rng) -> ParameterPoint:
    """lam - nu, the measure's gamma - alpha - beta, drawn at least 0.35 and
    kept 0.05 from the integers: an engineering margin for the endpoint
    expansion of the measure density."""
    nu = _u(rng, 0.4, 0.8)
    dl = _u(rng, 0.35, 1.45)
    lam = nu + dl
    gamma = lam + _u(rng, 0.4, 1.0)
    eta = nu + (lam - gamma) + _u(rng, 0.4, 1.2)
    pt = ParameterPoint(
        values={
            "alpha": _u(rng, 0.1, 2.2),
            "beta": _u(rng, 0.1, 2.2),
            "gamma": gamma,
            "eta": eta,
            "lam": lam,
            "nu": nu,
        },
        arguments={"z": _u(rng, 0.05, 0.7)},
    )
    if abs(lam - nu - round(lam - nu)) <= 0.05:
        raise DomainError("erdelyi-3: lam - nu within 0.05 of an integer")
    return pt


def _rhs_erdelyi3(pt, s):
    v = pt.flat()
    [(t, w)] = _rules(slot_measures(v), s)
    upper, lower = (v["alpha"], v["beta"], v["eta"]), (v["lam"], v["nu"])
    vals = _checked(*_series_pfq(upper, lower, v["z"] * t, s.series_tol, 250_000))
    return complex(np.sum(w * vals))


# ---------------------------------------------------------------------------
# Theorem-level cases: F_K triple integral
# ---------------------------------------------------------------------------


def _sample_fk_erdelyi(rng) -> ParameterPoint:
    lam1 = _u(rng, 0.4, 0.9)
    alpha1 = _u(rng, 0.3, 1.2)
    eta1 = lam1 - alpha1 + _u(rng, 0.4, 1.2)
    lam2 = _u(rng, 0.4, 0.9)
    beta2 = _u(rng, 0.3, 1.2)
    mu2 = lam2 - beta2 + _u(rng, 0.4, 1.2)
    lam3 = _u(rng, 0.3, 0.7)
    beta1 = lam3 + _u(rng, 0.3, 0.8)
    gamma3 = beta1 + _u(rng, 0.4, 1.0)
    eta2 = _u(rng, 0.1, 1.0)
    alpha2 = eta2 + _u(rng, 0.1, 1.2)
    x, y, z = _fk_args(rng)
    return ParameterPoint(
        values={
            "alpha1": alpha1, "alpha2": alpha2, "beta1": beta1, "beta2": beta2,
            "gamma3": gamma3, "eta1": eta1, "eta2": eta2, "mu2": mu2,
            "lam1": lam1, "lam2": lam2, "lam3": lam3,
        },
        arguments={"x": x, "y": y, "z": z},
    )


def erdelyi_measures(v) -> tuple[DirichletMeasure, ...]:
    """The Dirichlet measures of Theorems 1.1 and 4.6, on the u, v, w axes."""
    return (
        DirichletMeasure(v["alpha1"] - v["lam1"] + v["eta1"], v["lam1"]),
        DirichletMeasure(v["beta2"] - v["lam2"] + v["mu2"], v["lam2"]),
        DirichletMeasure(v["beta1"], v["gamma3"] - v["beta1"]),
    )


def fk_params(v, names: str = "alpha1 alpha2 beta1 beta2 gamma1 gamma2 gamma3") -> FkParams:
    """The F_K (or Phi_K) whose seven parameters, in FkParams order, are the
    point's symbols `names`; by default its own alpha, beta and gamma."""
    return FkParams(*(v[k] for k in names.split()))


def erdelyi_fk(v) -> FkParams:
    """The F_K (or Phi_K) on the left of Theorems 1.1 and 4.6."""
    return FkParams(
        alpha1=v["alpha1"], alpha2=v["alpha2"], beta1=v["beta1"], beta2=v["beta2"],
        gamma1=v["alpha1"] + v["eta1"], gamma2=v["beta2"] + v["mu2"], gamma3=v["gamma3"],
    )


def _lhs_fk_erdelyi(pt, s):
    v = pt.flat()
    return complex(_checked(*saran_fk_reexpand(erdelyi_fk(v), v["x"], v["y"], v["z"], s.series_tol)))


def _shifted_pair_table(t, w, x, M, first, second, tol):
    """Quadrature table sum_u w_u 2F1(a+m, b; c; t_u x) 2F1(l+n, e; f; xi_u)
    (1 - t_u x)^-(l+n) over m, n < M, with xi = (1-t) x / (1 - t x),
    first = (a, b, c) and second = (l, e, f).  Both 2F1 families come from
    _shifted_2f1: two seed series per node and the contiguous recurrence in
    the first parameter, stable here since t x and xi are real and below 1."""
    (a, b, c), (lam, e, f) = first, second
    g1 = _shifted_2f1(a, b, c, t * x, M, tol)
    xi = (1.0 - t) * x / (1.0 - t * x)
    g2 = _shifted_2f1(lam, e, f, xi, M, tol)
    g2 = g2 * np.power(1.0 - t * x, -(lam + np.arange(M, dtype=np.float64))[:, None])
    return np.einsum("u,mu,nu->mn", w, g1, g2)


def fk_erdelyi_inner_tables(pt, s):
    """Quadrature contractions IU(m,n), IV(m,n) and the w-moment table for the
    F_K Erdelyi integral; also used by the proof-step consistency checks."""
    v = pt.flat()
    x, y, z = v["x"], v["y"], v["z"]
    (tu, wu), (tv, wv), (tw, ww) = _rules(erdelyi_measures(v), s)
    zeff = abs(z) / ((1.0 - abs(x)) * (1.0 - abs(y)))
    M = _series_len(zeff, s.series_tol, lo=16, hi=140)

    IU = _shifted_pair_table(
        tu, wu, x, M, (v["beta1"] - v["lam3"], v["alpha1"], v["alpha1"] - v["lam1"] + v["eta1"]),
        (v["lam3"], v["lam1"] - v["eta1"], v["lam1"]), s.series_tol)
    IV = _shifted_pair_table(
        tv, wv, y, M, (v["alpha2"] - v["eta2"], v["beta2"], v["beta2"] - v["lam2"] + v["mu2"]),
        (v["eta2"], v["lam2"] - v["mu2"], v["lam2"]), s.series_tol)

    Mw = _moment_powers(tw, ww, 1.0, 2 * M - 2)
    return IU, IV, Mw, M


def _rhs_fk_erdelyi(pt, s):
    v = pt.flat()
    IU, IV, Mw, M = fk_erdelyi_inner_tables(pt, s)
    m = np.arange(M, dtype=np.float64)
    c1 = pochhammer_table(v["alpha2"] - v["eta2"], M - 1) / sp.gamma(m + 1.0)
    c2 = pochhammer_table(v["eta2"], M - 1) / sp.gamma(m + 1.0)
    idx = np.add.outer(np.arange(M), np.arange(M))
    smat = Mw[idx] * np.power(v["z"], np.add.outer(m, m))
    return complex(np.einsum("m,n,mn,mn,mn->", c1, c2, IU, IV, smat))


# ---------------------------------------------------------------------------
# F2 identities
# ---------------------------------------------------------------------------


def _sample_f2_curious(rng) -> ParameterPoint:
    d1, c1 = _gap_pair(rng)
    b2, c2 = _gap_pair(rng)
    y, z = _yz_args(rng)
    return ParameterPoint(
        values={
            "a1": _u(rng, 0.1, 2.2), "a2": _u(rng, 0.1, 2.0), "b1": _u(rng, 0.1, 2.2),
            "b2": b2, "c1": c1, "c2": c2, "d1": d1,
        },
        arguments={"y": y, "z": z},
    )


def _lhs_f2_curious(pt, s):
    v = pt.flat()
    return complex(_checked(*appell_f2(v["a1"], v["b1"], v["b2"], v["c1"], v["c2"], v["y"], v["z"], s.series_tol)))


def _f2_curious_measures(v) -> tuple[DirichletMeasure, ...]:
    """The Dirichlet measures of Theorem 3.2, on the v and w axes."""
    return DirichletMeasure(v["c1"] - v["d1"], v["d1"]), DirichletMeasure(v["b2"], v["c2"] - v["b2"])


def _rhs_f2_curious(pt, s):
    v = pt.flat()
    y, z = v["y"], v["z"]
    (tv, wv), (tw, ww) = _rules(_f2_curious_measures(v), s)
    V = tv[:, None]
    W = tw[None, :]
    Q = 1.0 - V * y - W * z
    g1 = _checked(*_eval_2f1(v["a1"] - v["a2"], v["c1"] - v["b1"] - v["d1"], v["c1"] - v["d1"],
                             V * y / (V * y + W * z - 1.0), s.series_tol))
    g2 = _checked(*_eval_2f1(v["a2"], v["b1"] + v["d1"] - v["c1"], v["d1"], (1.0 - V) * y / Q, s.series_tol))
    return complex(np.einsum("v,w,vw->", wv, ww, np.power(Q, -v["a1"]) * g1 * g2))


def _sample_f2_reduction(rng) -> ParameterPoint:
    y, z = _yz_args(rng)
    return ParameterPoint(
        values={
            "a": _u(rng, 0.1, 2.2), "b": _u(rng, 0.1, 2.2), "bp": _u(rng, 0.1, 2.2),
            "c": _u(rng, 0.5, 2.5),
        },
        arguments={"y": y, "z": z},
    )


def _lhs_f2_reduction(pt, s):
    v = pt.flat()
    return complex(_checked(*appell_f2(v["a"], v["b"], v["bp"], v["c"], v["bp"], v["y"], v["z"], s.series_tol)))


def _rhs_f2_reduction(pt, s):
    # Combined transform: the b'-degenerate F2 collapses to a single 2F1 in
    # the Pfaff-rotated variable y/(y+z-1).
    v = pt.flat()
    y, z = v["y"], v["z"]
    f = _checked(*gauss_2f1(v["a"], v["c"] - v["b"], v["c"], y / (y + z - 1.0), s.series_tol))
    return complex((1.0 - y - z) ** (-v["a"]) * complex(f))


def _sample_manocha(rng) -> ParameterPoint:
    lam, d = _gap_pair(rng)
    eta, e = _gap_pair(rng)
    y, z = _yz_args(rng)
    return ParameterPoint(
        values={
            "a": _u(rng, 0.1, 2.2), "b": _u(rng, 0.1, 2.2), "c": _u(rng, 0.1, 2.2),
            "d": d, "e": e, "ap": _u(rng, 0.1, 1.5), "lam": lam, "eta": eta,
        },
        arguments={"y": y, "z": z},
    )


def _lhs_manocha(pt, s):
    v = pt.flat()
    return complex(_checked(*appell_f2(v["a"], v["b"], v["c"], v["d"], v["e"], v["y"], v["z"], s.series_tol)))


def _f2_rows(a, b, c, lam, eta, X, Y, K: int, tol) -> np.ndarray:
    """Appell F2(a; b, c; lam, eta; X, Y) over node arrays, broadcast, by its
    rows sum_{m<K} (a)_m (b)_m / ((lam)_m m!) X^m 2F1(a+m, c; eta; Y), the
    2F1 family streamed from _shifted_2f1_rows over Y.  Each row is added as
    its member arrives, so the family is never held whole; not by a BLAS
    mat-vec either, which may start threads at this size."""
    G = _shifted_2f1_rows(a, c, eta, Y, K, tol)
    row = np.ones_like(X)
    total = row * next(G)
    for m, Gm in enumerate(G):
        row = row * ((a + m) * (b + m) / ((lam + m) * (m + 1.0)) * X)
        total += row * Gm
    return total


def _rhs_manocha(pt, s):
    v = pt.flat()
    y, z = v["y"], v["z"]
    (tv, wv), (tw, ww) = _rules(_manocha_measures(v), s)
    V = tv[:, None]
    W = tw[None, :]
    Q = 1.0 - V * y - W * z
    K = _series_len(abs(y) + abs(z), s.series_tol, lo=24, hi=160) + 1
    # The first factor is separable in (v, w): its family runs over the w
    # nodes alone.
    f2a = _f2_rows(v["a"] - v["ap"], v["b"], v["c"], v["lam"], v["eta"], V * y, tw * z, K, s.series_tol)
    f2b = _f2_rows(v["ap"], v["b"] - v["lam"], v["c"] - v["eta"], v["d"] - v["lam"], v["e"] - v["eta"],
                   ((1.0 - V) * y / Q).ravel(), ((1.0 - W) * z / Q).ravel(), K, s.series_tol)
    return complex(wv @ (np.power(Q, -v["ap"]) * f2a * f2b.reshape(Q.shape)) @ ww)


def _sample_manocha_reduced(rng) -> ParameterPoint:
    lam, d = _gap_pair(rng)
    c, e = _gap_pair(rng)
    y, z = _yz_args(rng)
    return ParameterPoint(
        values={
            "a": _u(rng, 0.1, 2.2), "b": _u(rng, 0.1, 2.2), "c": c, "d": d, "e": e,
            "ap": _u(rng, 0.1, 1.5), "lam": lam,
        },
        arguments={"y": y, "z": z},
    )


def _rhs_manocha_reduced(pt, s):
    v = pt.flat()
    y, z = v["y"], v["z"]
    (tv, wv), (tw, ww) = _rules(_manocha_reduced_measures(v), s)
    V = tv[:, None]
    W = tw[None, :]
    Q = 1.0 - V * y - W * z
    g1 = _checked(*_eval_2f1(v["a"] - v["ap"], v["lam"] - v["b"], v["lam"],
                             V * y / (V * y + W * z - 1.0), s.series_tol))
    g2 = _checked(*_eval_2f1(v["ap"], v["b"] - v["lam"], v["d"] - v["lam"], (1.0 - V) * y / Q, s.series_tol))
    return complex(np.einsum("v,w,vw->", wv, ww, np.power(Q, -v["a"]) * g1 * g2))


# ---------------------------------------------------------------------------
# Convolution-family extension
# ---------------------------------------------------------------------------

FA_MODES = ("delta", "geometric", "fk-diagonal")


def fa_sequences(mode: str, v: dict):
    if mode == "delta":
        return delta_sequence(), delta_sequence()
    if mode == "geometric":
        return geometric_sequence(0.3), geometric_sequence(0.25)
    if mode == "fk-diagonal":
        return fk_diagonal_sequence(v["seq_a"], v["seq_b"], v["seq_g"]), delta_sequence()
    raise ValueError(mode)


def _sample_fa_erdelyi(rng) -> ParameterPoint:
    g = [_u(rng, 0.4, 1.0) for _ in range(4)]
    tau = [gi + _u(rng, 0.4, 1.2) for gi in g]
    mode = float(rng.integers(0, 3))
    x1, x2 = _u(rng, 0.1, 0.4), _u(rng, 0.1, 0.4)
    x3, x4 = _u(rng, 0.05, 0.28), _u(rng, 0.05, 0.28)
    return ParameterPoint(
        values={
            "alpha1": _u(rng, 0.2, 1.2), "alpha2": _u(rng, 0.2, 1.2),
            "beta1": _u(rng, 0.2, 1.2), "beta2": _u(rng, 0.2, 1.2),
            "lam1": _u(rng, 0.2, 1.0), "lam2": _u(rng, 0.2, 1.0),
            "g1": g[0], "g2": g[1], "g3": g[2], "g4": g[3],
            "tau1": tau[0], "tau2": tau[1], "tau3": tau[2], "tau4": tau[3],
            "mode": mode,
            "seq_a": _u(rng, 0.3, 1.0), "seq_b": _u(rng, 0.3, 1.0), "seq_g": _u(rng, 0.8, 1.8),
        },
        arguments={"x1": x1, "x2": x2, "x3": x3, "x4": x4},
    )


def _lhs_fa_erdelyi(pt, s):
    # The Dirichlet moments of t3 and t4 weight the convolution of the
    # point's two sequences: (g3)_m / (tau3)_m (g4)_n / (tau4)_n.
    v = pt.flat()
    conv = convolve2d(*fa_sequences(FA_MODES[int(v["mode"])], v))
    r3 = _ratio_table(v["g3"], v["tau3"], 320)
    r4 = _ratio_table(v["g4"], v["tau4"], 320)
    cseq = CoeffSequence2D(
        None,
        conv.decay_bound,
        table_builder=lambda M, N: np.outer(r3[: M + 1], r4[: N + 1]) * conv.table(M, N),
    )
    return complex(_checked(*generic_f_a(
        cseq,
        v["alpha1"] + v["lam1"], v["beta1"], v["tau1"],
        v["alpha2"] + v["lam2"], v["beta2"], v["tau2"],
        v["x1"], v["x2"], v["x3"], v["x4"],
        s.series_tol,
    )))


def _rhs_fa_erdelyi(pt, s):
    v = pt.flat()
    aseq, bseq = fa_sequences(FA_MODES[int(v["mode"])], v)
    x1, x2, x3, x4 = (v[k] for k in ("x1", "x2", "x3", "x4"))
    (t1, w1), (t2, w2), (t3, w3), (t4, w4) = _rules(_fa_measures(v), s)
    ratio = max(
        aseq.decay_bound * abs(x3) / (1 - abs(x1)),
        aseq.decay_bound * abs(x4) / (1 - abs(x2)),
        0.3,
    )
    MM = _series_len(ratio, s.series_tol, lo=16, hi=64)

    SU1 = _shifted_pair_table(t1, w1, x1, MM, (v["alpha1"], v["beta1"], v["g1"]),
                              (v["lam1"], v["beta1"] - v["g1"], v["tau1"] - v["g1"]), s.series_tol)
    SU2 = _shifted_pair_table(t2, w2, x2, MM, (v["alpha2"], v["beta2"], v["g2"]),
                              (v["lam2"], v["beta2"] - v["g2"], v["tau2"] - v["g2"]), s.series_tol)

    SU3 = _moment_powers(t3, w3, x3, 2 * MM - 2)
    SU4 = _moment_powers(t4, w4, x4, 2 * MM - 2)
    idx = np.add.outer(np.arange(MM), np.arange(MM))
    # sum_{m,n,M,N} a[m,n] b[M,N] P[m,M] Q[n,N] as two matmuls
    P = SU1 * SU3[idx]
    Q = SU2 * SU4[idx]
    return complex(np.sum(P * (aseq.table(MM - 1, MM - 1) @ Q @ bseq.table(MM - 1, MM - 1).T)))


# ---------------------------------------------------------------------------
# Cross-form consistency of the two F_K evaluations
# ---------------------------------------------------------------------------


def fk_point(rng, args) -> ParameterPoint:
    """Seven F_K parameters drawn after the arguments args = (x, y, z): the
    points of both cross-form checks."""
    x, y, z = args
    return ParameterPoint(
        values={
            "alpha1": _u(rng, 0.1, 2.5), "alpha2": _u(rng, 0.1, 2.5),
            "beta1": _u(rng, 0.1, 2.5), "beta2": _u(rng, 0.1, 2.5),
            "gamma1": _u(rng, 0.5, 2.5), "gamma2": _u(rng, 0.5, 2.5),
            "gamma3": _u(rng, 0.5, 2.5),
        },
        arguments={"x": x, "y": y, "z": z},
    )


def _lhs_fk_cross(pt, s):
    v = pt.flat()
    return complex(_checked(*saran_fk_triple(fk_params(v), v["x"], v["y"], v["z"], s.series_tol)))


def _rhs_fk_cross(pt, s):
    v = pt.flat()
    return complex(_checked(*saran_fk_reexpand(fk_params(v), v["x"], v["y"], v["z"], s.series_tol)))


# ---------------------------------------------------------------------------
# Registry assembly
# ---------------------------------------------------------------------------


def build() -> tuple[IdentityCase, ...]:
    # One row per identity: id, anchor, sampler, lhs, rhs, tol, cost class,
    # default samples and, where the right-hand side integrates, its measures.
    rows = (
        ("euler-1", "Eq. (1.2)", _sample_euler, _lhs_2f1, _rhs_euler1, 1e-9, "single-integral", 50, _euler1_measures),
        ("euler-2", "Eq. (1.3)", _sample_euler2, _lhs_2f1, _rhs_euler2, 1e-9, "single-integral", 50, _euler2_measures),
        ("bateman", "Eq. (1.5)", _sample_bateman, _lhs_2f1, _rhs_bateman, 1e-9, "single-integral", 50, lam_measures),
        ("erdelyi-1", "Eq. (1.6)", _sample_erdelyi1, _lhs_2f1, _rhs_erdelyi1,
         1e-9, "single-integral", 50, lam_measures),
        ("erdelyi-2", "Eq. (1.7)", _sample_erdelyi2, _lhs_2f1, _rhs_erdelyi2,
         1e-9, "single-integral", 50, _erdelyi2_measures),
        ("erdelyi-3", "Eq. (1.8)", _sample_erdelyi3, _lhs_2f1, _rhs_erdelyi3,
         1e-9, "single-integral", 50, slot_measures),
        ("fk-erdelyi", "Theorem 1.1", _sample_fk_erdelyi, _lhs_fk_erdelyi, _rhs_fk_erdelyi,
         1e-6, "triple-integral", 10, erdelyi_measures),
        ("f2-curious", "Theorem 3.2", _sample_f2_curious, _lhs_f2_curious, _rhs_f2_curious,
         1e-8, "single-integral", 20, _f2_curious_measures),
        ("f2-reduction-proof", "Eqs. (3.7)+Pfaff", _sample_f2_reduction, _lhs_f2_reduction, _rhs_f2_reduction,
         1e-10, "cheap", 25),
        ("manocha", "Eq. (3.10)", _sample_manocha, _lhs_manocha, _rhs_manocha,
         1e-8, "single-integral", 20, _manocha_measures),
        ("manocha-reduced", "Eq. (3.11)", _sample_manocha_reduced, _lhs_manocha, _rhs_manocha_reduced,
         1e-8, "single-integral", 20, _manocha_reduced_measures),
        ("fa-erdelyi", "Theorem 3.3", _sample_fa_erdelyi, _lhs_fa_erdelyi, _rhs_fa_erdelyi,
         1e-8, "triple-integral", 20, _fa_measures),
        ("fk-cross-form", "Eqs. (1.12)/(1.13)", lambda rng: fk_point(rng, _fk_args(rng)), _lhs_fk_cross, _rhs_fk_cross,
         1e-10, "cheap", 25),
    )
    return tuple(IdentityCase(*row[:7], False, *row[7:]) for row in rows)
