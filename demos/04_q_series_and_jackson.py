"""The q-side: basic hypergeometric series, Jackson integrals, q-measures.

Every classical object has a q-deformation: the rising factorial becomes the
q-shifted factorial, the beta integral becomes a Jackson lattice sum, and
F_K becomes a triple q-series.  As q -> 1 everything returns to the
classical picture, and this script measures how fast.
"""

import math

import numpy as np
import scipy.special as sps

from saranfk import (
    DirichletMeasure,
    FkParams,
    QContext,
    QDirichletMeasure,
    QHypergeometricMeasure,
    dirichlet_density,
    jackson_integral,
    phi_k_q,
    q_beta,
    q_gamma,
    q_measure_density,
    q_measure_rule,
    q_moment,
    q_pochhammer,
    q_pochhammer_inf,
    rphis,
    saran_fk_triple,
)
from saranfk.core import q_pochhammer_inf_ratio

ctx = QContext(q=0.5)
q = ctx.q

print("=" * 70)
print("q-shifted factorials")
print("=" * 70)
print(f"(1/2; 1/2)_2   = {q_pochhammer(0.5, 2, ctx)}   [(1-1/2)(1-1/4) = 3/8]")
print(f"(1/2; 1/2)_inf = {q_pochhammer_inf(0.5, ctx):.15f}")
print(f"functional equation residual: "
      f"{abs(q_pochhammer_inf(0.37, ctx) - (1 - 0.37) * q_pochhammer_inf(0.37 * q, ctx)):.1e}")

print()
print("=" * 70)
print("q-gamma and q-beta approach their classical limits")
print("=" * 70)
for qq in (0.5, 0.9, 0.999, 0.9999):
    c = QContext(q=qq)
    print(f"  q={qq:<7} Gamma_q(3) = {q_gamma(3, c):.6f}   B_q(2,3) = {q_beta(2, 3, c):.6f}")
print(f"  classical  Gamma(3)   = {float(sps.gamma(3)):.6f}   B(2,3)   = {float(sps.beta(2, 3)):.6f}")

print()
print("=" * 70)
print("Jackson integrals: lattice sums replacing the interval")
print("=" * 70)
print(f"integral of 1:  {jackson_integral(lambda t: np.ones_like(t), 1, ctx):.12f}")
print(f"integral of t:  {jackson_integral(lambda t: t, 1, ctx):.12f}   [1/(1+q) = {1 / (1 + q)}]")
x0, y0 = 1.3, 0.8
rep = jackson_integral(
    lambda t: t ** (x0 - 1) * q_pochhammer_inf_ratio(t * q, t * q**y0, ctx), 1, ctx
)
print(f"q-beta representation: {rep:.15f}  vs B_q = {q_beta(x0, y0, ctx):.15f}")

print()
print("=" * 70)
print("q-measures and their closed-form moments")
print("=" * 70)
qd = QDirichletMeasure(0.8, 1.3, ctx)
t, w = q_measure_rule(qd)
print(f"q-Dirichlet rule: {len(t)} lattice points, mass {complex(w.sum()).real:.12f}")
for ell in (1, 3):
    lattice = complex((w * t**ell).sum()).real
    print(f"  moment {ell}: lattice {lattice:.15f}  closed {q_moment(qd, ell):.15f}")

nu, lam, g, eta = 0.6, 1.1, 2.0, 1.7
qh = QHypergeometricMeasure(eta - lam, g - lam, g - lam + eta - nu, nu, ctx)
t, w = q_measure_rule(qh)
print(f"q-hypergeometric rule: {len(t)} points, mass {complex(w.sum()).real:.12f}")
print(f"  moment 4: lattice {complex((w * t**4).sum()).real:.15f}  closed {q_moment(qh, 4):.15f}")

ctx1 = QContext(q=0.999)
n = round(math.log(0.5) / math.log(ctx1.q))
t_lat = ctx1.q**n
print(f"\nq -> 1 density limit at on-lattice t = {t_lat:.6f}:")
print(f"  q-density   {q_measure_density(QDirichletMeasure(0.8, 1.3, ctx1), t_lat):.9f}")
print(f"  classical   {dirichlet_density(DirichletMeasure(0.8, 1.3), t_lat):.9f}")

print()
print("=" * 70)
print("The q-deformation of F_K")
print("=" * 70)
p = FkParams(0.5, 0.7, 0.9, 0.6, 1.5, 1.3, 1.1)
v = phi_k_q(p, 0.3, 0.25, 0.2, ctx)
print(f"Phi_K at q=0.5:      {v.value:.15f}  (2phi1 re-expansion over the third index)")
v1 = phi_k_q(p, 0.1, 0.12, 0.08, QContext(q=0.999), tol=1e-10)
fk = saran_fk_triple(p, 0.1, 0.12, 0.08)
print(f"Phi_K at q=0.999:    {complex(v1.value).real:.12f}")
print(f"classical F_K:       {complex(fk.value).real:.12f}")

print()
print("2phi1 with a terminating upper base is an exact finite sum:")
r = rphis([q**-2, 0.3], [0.6], 0.7, ctx)
print(f"  value {r.value:.15f} in exactly {r.terms_used} terms")
