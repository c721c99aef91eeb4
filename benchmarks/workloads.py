"""The benchmark workloads and their correctness checks.

verify runs `verify_identity` over every identity of the registry, the
q-identities at each q of Q_GRID, one parameter point per op.  Each case goes
through a `PointRecorder` that times the point and judges it itself: a side
that raises or returns a non-finite value, or a residual above the case
tolerance, fails the op.  This check does not read
`VerificationResult.passed`, which lets a NaN side pass.

engine-mix makes scalar calls to the public engines.  Every call is checked
against an untimed reference: mpmath for 2F1, pFq, F2 and the q-functions,
closed-form moments for the measure rules, and the other summation form for
F_K and Phi_K.
"""

from __future__ import annotations

import cmath
import dataclasses
import time
from dataclasses import dataclass
from typing import Callable

import mpmath
import numpy as np

from probe import probe
from saranfk import core, measures, qkernels, registry, series

Q_GRID = (0.2, 0.5, 0.7)
# Engine-mix inputs per engine; gauss_2f1 splits them over its three routes.
ENGINE_INPUTS = 36
# Agreement with the reference, relative to 1 + |reference|.  The series
# engines run at their default tol 1e-12 and the lattice engines at the
# default Jackson tail tolerance 1e-10; each bound leaves 1000x for rounding.
SERIES_RTOL = 1e-9
LATTICE_RTOL = 1e-7
# Working precision of the mpmath references.
REFERENCE_DPS = 30


def pass_seed(seed: int, index: int) -> int:
    """Sampler seed of the index-th input set of a run."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def quantile_ms(seconds: list[float], p: float) -> float:
    return float(np.percentile(np.asarray(seconds) * 1e3, p))


@dataclass
class PassResult:
    """One pass over an input set."""

    # Wall time of the pass without the probes run between its ops.
    wall_s: float
    op_s: list[float]
    # Kind of each op: "<identity>@<q>" or the engine name.
    kinds: list[str]
    # Kind of each failed op.
    failed: list[str]
    consistent: bool
    # Time of the probe run after each op.
    probe_s: list[float]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class PointRecorder:
    """Evaluator pair wrapped around an IdentityCase: one op per point."""

    def __init__(self, case, tracer=None):
        self.base = case
        self.tracer = tracer
        self.module = "q_cases" if case.uses_q else "classical_cases"
        self.op_s: list[float] = []
        self.probe_s: list[float] = []
        self.failed: list = []

    def case(self):
        return dataclasses.replace(self.base, lhs=self.lhs, rhs=self.rhs)

    def _open(self, name):
        if self.tracer is None:
            return None
        return self.tracer.open(name, module=self.module, identity=self.base.id)

    def _close(self, span):
        if span is not None:
            self.tracer.close(span)

    def _side(self, name, fn, pt, settings) -> complex:
        span = self._open(name)
        try:
            return complex(fn(pt, settings))
        finally:
            self._close(span)

    def _finish(self, pt, ok: bool) -> None:
        self.op_s.append(time.perf_counter() - self._start)
        self._close(self._point)
        if not ok:
            self.failed.append(pt)
        self.probe_s.append(probe())

    def lhs(self, pt, settings):
        self._start = time.perf_counter()
        self._point = self._open("point")
        try:
            self._lhs = self._side("lhs", self.base.lhs, pt, settings)
        except Exception:
            self._finish(pt, False)
            raise
        return self._lhs

    def rhs(self, pt, settings):
        try:
            value = self._side("rhs", self.base.rhs, pt, settings)
        except Exception:
            self._finish(pt, False)
            raise
        lhs = self._lhs
        residual = abs(lhs - value) / (1.0 + abs(lhs))
        self._finish(pt, cmath.isfinite(lhs) and cmath.isfinite(value) and residual <= self.base.tol)
        return value

    def agrees_with(self, result) -> bool:
        """Every point the library reports as failed is failed here too, and
        every sampled point was seen."""
        return result.samples == len(self.op_s) and all(
            any(f.point is p for p in self.failed) for f in result.failures
        )


def verify_units(cases):
    """(case, q) pairs of the verdict, in registry order."""
    return [(c, q) for c in cases for q in (Q_GRID if c.uses_q else (None,))]


def run_verify_pass(units, seed: int, tracer=None) -> PassResult:
    base = registry.EvalSettings.default()
    op_s: list[float] = []
    kinds: list[str] = []
    probes: list[float] = []
    failed: list[str] = []
    consistent = True
    start = time.perf_counter()
    for case, q in units:
        settings = base if q is None else base.with_q(q)
        rec = PointRecorder(case, tracer)
        span = tracer.open("identity", identity=case.id, q=q) if tracer else None
        result = registry.verify_identity(rec.case(), seed=seed, settings=settings)
        if span is not None:
            tracer.close(span)
        op_s += rec.op_s
        kinds += [f"{case.id}@{q}"] * len(rec.op_s)
        probes += rec.probe_s
        failed += [f"{case.id}@{q}"] * len(rec.failed)
        consistent = consistent and rec.agrees_with(result)
    wall = time.perf_counter() - start - sum(probes)
    return PassResult(wall, op_s, kinds, failed, consistent, probes)


# ---------------------------------------------------------------------------
# engine-mix
# ---------------------------------------------------------------------------


@dataclass
class EngineCall:
    engine: str
    call: Callable[[], object]
    check: Callable[[object], bool]


def _agrees(value, ref, rtol: float) -> bool:
    value = complex(value)
    return cmath.isfinite(value) and abs(value - complex(ref)) <= rtol * (1.0 + abs(complex(ref)))


def _series_check(ref):
    def check(result) -> bool:
        return bool(result.converged) and _agrees(result.value, ref, SERIES_RTOL)
    return check


def _value_check(ref, rtol: float):
    return lambda value: _agrees(value, ref, rtol)


def _moments_check(refs, rtol: float):
    """Moments sum_i w_i t_i^l of a (nodes, weights) rule against references."""
    def check(rule) -> bool:
        t, w = rule
        return all(_agrees(np.sum(w * t**ell), ref, rtol) for ell, ref in enumerate(refs))
    return check


def _points(case_id: str, seed: int, count: int):
    case = registry.registry_lookup(case_id)
    return [pt.flat() for pt in registry.sample_parameters(case, seed, count)]


def _fk(v) -> series.FkParams:
    return series.FkParams(v["alpha1"], v["alpha2"], v["beta1"], v["beta2"],
                           v["gamma1"], v["gamma2"], v["gamma3"])


def _qp_table(base, q: float, count: int) -> np.ndarray:
    """(base; q)_k for k = 0..count-1, accumulated in mpmath."""
    out, acc, qk = [], mpmath.mpf(1), mpmath.mpf(1)
    for _ in range(count):
        out.append(float(acc))
        acc *= 1 - base * qk
        qk *= q
    return np.array(out)


def _phi_k_triple_ref(p, x, y, z, q: float, nmax: int = 40) -> complex:
    """Phi_K as its triple series, with q-shifted factorials from mpmath:
    sum (a1;q)_m (a2;q)_{n+p} (b1;q)_{m+p} (b2;q)_n x^m y^n z^p
        / ((g1;q)_m (g2;q)_n (g3;q)_p (q;q)_m (q;q)_n (q;q)_p)."""
    def qp(exponent, count):
        return _qp_table(mpmath.mpf(q) ** exponent, q, count)

    k = np.arange(nmax)
    qq = qp(1, nmax)
    xm = qp(p.alpha1, nmax) / (qp(p.gamma1, nmax) * qq) * x**k
    yn = qp(p.beta2, nmax) / (qp(p.gamma2, nmax) * qq) * y**k
    zp = z**k / (qp(p.gamma3, nmax) * qq)
    a2 = qp(p.alpha2, 2 * nmax)
    b1 = qp(p.beta1, 2 * nmax)
    m, n, r = np.ix_(k, k, k)
    terms = xm[m] * yn[n] * zp[r] * a2[n + r] * b1[m + r]
    return complex(terms.sum())


def build_engine_calls(seed: int) -> list[EngineCall]:
    """Engine-mix inputs for one seed, each with its untimed reference."""
    with mpmath.workdps(REFERENCE_DPS):
        return _engine_calls(seed)


def _engine_calls(seed: int) -> list[EngineCall]:
    rng = np.random.default_rng([seed, 0xE1])
    n = ENGINE_INPUTS
    calls: list[EngineCall] = []

    # gauss_2f1 on its direct (|z| <= 0.9), Pfaff (z/(z-1) in (0.54, 0.89))
    # and near-one (1 - z < 0.09) routes.
    euler = _points("euler-1", seed, n)
    for i, v in enumerate(euler):
        a, b, c = v["alpha"], v["beta"], v["gamma"]
        route = i % 3
        z = (float(rng.uniform(-0.9, 0.9)), float(rng.uniform(-8.0, -1.2)),
             float(rng.uniform(0.91, 0.99)))[route]
        ref = mpmath.hyp2f1(a, b, c, z)
        calls.append(EngineCall("gauss_2f1",
                                lambda a=a, b=b, c=c, z=z: series.gauss_2f1(a, b, c, z),
                                _series_check(ref)))

    # hyper_pfq: 3F2 on |z| < 1.
    for v in _points("erdelyi-1", seed, n):
        up = [v["alpha"], v["beta"], v["alphap"]]
        lo = [v["gamma"], v["lam"]]
        z = v["z"] * float(rng.choice([-1.0, 1.0]))
        ref = mpmath.hyper(up, lo, z)
        calls.append(EngineCall("hyper_pfq",
                                lambda up=up, lo=lo, z=z: series.hyper_pfq(up, lo, z),
                                _series_check(ref)))

    for v in _points("f2-curious", seed, n):
        args = (v["a1"], v["b1"], v["b2"], v["c1"], v["c2"], v["y"], v["z"])
        ref = mpmath.appellf2(*args)
        calls.append(EngineCall("appell_f2", lambda args=args: series.appell_f2(*args),
                                _series_check(ref)))

    # F_K in both forms and as the L = 3 chain; each form is the reference
    # of the other.  fk_L(a1, a2, (b1, b2), (c1, c2, c3), (z1, z2, z3)) is
    # F_K(a1, b2, b1, a2; c1, c3, c2; z1, z3, z2).
    fk_points = _points("phik-cross-form", seed, n)
    for v in fk_points:
        p, x, y, z = _fk(v), v["x"], v["y"], v["z"]
        triple = series.saran_fk_triple(p, x, y, z)
        reexp = series.saran_fk_reexpand(p, x, y, z)
        calls.append(EngineCall("saran_fk_triple",
                                lambda p=p, x=x, y=y, z=z: series.saran_fk_triple(p, x, y, z),
                                _series_check(reexp.value)))
        calls.append(EngineCall("saran_fk_reexpand",
                                lambda p=p, x=x, y=y, z=z: series.saran_fk_reexpand(p, x, y, z),
                                _series_check(triple.value)))
        chain = (p.alpha1, p.beta2, (p.beta1, p.alpha2), (p.gamma1, p.gamma3, p.gamma2), (x, z, y))
        calls.append(EngineCall("fk_L", lambda chain=chain: series.fk_L(*chain),
                                _series_check(reexp.value)))

    for i, v in enumerate(_points("gasper-q-erdelyi-1", seed, n)):
        q = Q_GRID[i % 3]
        ctx = core.QContext(q=q)
        up = [q ** v["alpha"], q ** v["beta"]]
        lo = [q ** v["gamma"]]
        ref = mpmath.qhyper(up, lo, q, v["x"])
        calls.append(EngineCall("rphis",
                                lambda up=up, lo=lo, x=v["x"], ctx=ctx: qkernels.rphis(up, lo, x, ctx),
                                _series_check(ref)))
        # Jackson integral of t^a (one axis) or u^a v^b (two axes).
        a, b = v["alpha"], v["beta"]
        one = (1 - q) / (1 - mpmath.mpf(q) ** (a + 1))
        if i % 2:
            f, k, ref = (lambda t, a=a: t**a), 1, one
        else:
            f, k, ref = (lambda s, t, a=a, b=b: s**a * t**b), 2, one * (1 - q) / (1 - mpmath.mpf(q) ** (b + 1))
        calls.append(EngineCall("jackson_integral",
                                lambda f=f, k=k, ctx=ctx: qkernels.jackson_integral(f, k, ctx),
                                _value_check(ref, LATTICE_RTOL)))
        x = v["gamma"]
        calls.append(EngineCall("q_gamma", lambda x=x, ctx=ctx: core.q_gamma(x, ctx),
                                _value_check(mpmath.qgamma(x, q), SERIES_RTOL)))

    for i, v in enumerate(fk_points):
        q = Q_GRID[i % 3]
        ctx = core.QContext(q=q)
        p, x, y, z = _fk(v), v["x"], v["y"], v["z"]
        ref = _phi_k_triple_ref(p, x, y, z, q)
        spec = qkernels.Phi3Spec(
            bp=(q**p.alpha2,), bpp=(q**p.beta1,), c=(q**p.alpha1,), cp=(q**p.beta2,),
            h=(q**p.gamma1,), hp=(q**p.gamma2,), hpp=(q**p.gamma3,),
        )
        calls.append(EngineCall("phi3",
                                lambda spec=spec, x=x, y=y, z=z, ctx=ctx: qkernels.phi3(spec, x, y, z, ctx),
                                _series_check(ref)))
        calls.append(EngineCall("phi_k_q",
                                lambda p=p, x=x, y=y, z=z, ctx=ctx: qkernels.phi_k_q(p, x, y, z, ctx),
                                _series_check(ref)))

    # measure_rule: Dirichlet (Euler sampler) and hypergeometric measures in
    # the slot form whose moments are (nu)_l (lam)_l / ((g)_l (eta)_l).
    order = registry.EvalSettings().quad_order
    for i, v in enumerate(_points("erdelyi-3", seed, n)):
        if i % 2:
            u = euler[i]
            a, b = u["beta"], u["gamma"] - u["beta"]
            spec = measures.DirichletMeasure(a, b)
            refs = [mpmath.rf(a, ell) / mpmath.rf(a + b, ell) for ell in range(3)]
        else:
            nu, lam, g, eta = v["nu"], v["lam"], v["gamma"], v["eta"]
            spec = measures.HypergeometricMeasure(eta - lam, g - lam, g - lam + eta - nu, nu)
            refs = [mpmath.rf(nu, ell) * mpmath.rf(lam, ell) / (mpmath.rf(g, ell) * mpmath.rf(eta, ell))
                    for ell in range(3)]
        calls.append(EngineCall("measure_rule",
                                lambda spec=spec: measures.measure_rule(spec, order),
                                _moments_check(refs, SERIES_RTOL)))

    # q_measure_rule: q-Dirichlet and q-hypergeometric (slot form) measures.
    for i, v in enumerate(_points("gasper-q-erdelyi-3", seed, n)):
        q = Q_GRID[i % 3]
        ctx = core.QContext(q=q)
        qm = mpmath.mpf(q)

        def qp(e, ell, qm=qm):
            return mpmath.qp(qm**e, qm, ell)

        nu, lam, g, eta = v["nu"], v["lam"], v["gamma"], v["eta"]
        if i % 2:
            spec = qkernels.QDirichletMeasure(lam, g - lam, ctx)
            refs = [qp(lam, ell) / qp(g, ell) for ell in range(3)]
        else:
            spec = qkernels.QHypergeometricMeasure(eta - lam, g - lam, g - lam + eta - nu, nu, ctx)
            refs = [qp(nu, ell) * qp(lam, ell) / (qp(g, ell) * qp(eta, ell)) for ell in range(3)]
        calls.append(EngineCall("q_measure_rule",
                                lambda spec=spec: qkernels.q_measure_rule(spec),
                                _moments_check(refs, LATTICE_RTOL)))
    return calls


def run_engine_pass(calls: list[EngineCall], tracer=None) -> PassResult:
    op_s: list[float] = []
    probes: list[float] = []
    failed: list[str] = []
    start = time.perf_counter()
    for item in calls:
        span = tracer.open("call", engine=item.engine) if tracer else None
        t0 = time.perf_counter()
        try:
            result = item.call()
        except Exception:
            result = None
        dt = time.perf_counter() - t0
        if span is not None:
            tracer.close(span)
        op_s.append(dt)
        if result is None or not item.check(result):
            failed.append(item.engine)
        probes.append(probe())
    kinds = [item.engine for item in calls]
    wall = time.perf_counter() - start - sum(probes)
    return PassResult(wall, op_s, kinds, failed, True, probes)
