import os
import subprocess
import sys
from pathlib import Path

import saranfk

# The package's public names, sorted.
PUBLIC_NAMES = [
    "CoeffSequence2D",
    "ConfigError",
    "ConvergenceError",
    "DirichletMeasure",
    "DiscreteFkParams",
    "DomainError",
    "EvalSettings",
    "FkParams",
    "HypergeometricMeasure",
    "IdentityCase",
    "ParameterPoint",
    "Phi3Spec",
    "PoleError",
    "QContext",
    "QDirichletMeasure",
    "QHypergeometricMeasure",
    "QfkShiftParams",
    "QuadratureRule",
    "SaranFKError",
    "SeriesResult",
    "VerificationResult",
    "appell_f2",
    "builtin_registry",
    "convolve2d",
    "delta_sequence",
    "dirichlet_density",
    "discrete_weight",
    "discrete_weight_limit",
    "fk_L",
    "fk_diagonal_sequence",
    "gamma",
    "gasper_discrete_3phi2",
    "gauss_2f1",
    "gauss_jacobi_rule",
    "generic_f_a",
    "geometric_sequence",
    "hyper_pfq",
    "hypergeometric_density",
    "in_domain_fk",
    "integrate_measure",
    "integrate_product",
    "jackson_integral",
    "log_gamma",
    "measure_rule",
    "phi3",
    "phi_k_q",
    "pochhammer",
    "q_beta",
    "q_binomial",
    "q_gamma",
    "q_measure_density",
    "q_measure_rule",
    "q_moment",
    "q_pochhammer",
    "q_pochhammer_inf",
    "qshift_operator_kernel",
    "registry_lookup",
    "rphis",
    "sample_parameters",
    "saran_fk_reexpand",
    "saran_fk_triple",
    "verify_identity",
]


def test_public_names_unchanged():
    assert sorted(saranfk.__all__) == PUBLIC_NAMES
    assert len(saranfk.__all__) == len(PUBLIC_NAMES)


def test_every_public_name_resolves():
    for name in saranfk.__all__:
        assert getattr(saranfk, name) is not None, name


# Run in a fresh interpreter: saranfk's own sums need no scipy, so neither the
# package nor these engines import any; the near-one 2F1 route then loads
# scipy.special.
IMPORT_CONTRACT = """
import sys
import saranfk as s

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

s.builtin_registry()
print(scipy_loaded())
ctx = s.QContext(q=0.5)
p = s.FkParams(0.6, 0.8, 0.7, 0.9, 1.7, 1.9, 2.1)
spec = s.Phi3Spec(bp=(0.5**0.8,), bpp=(0.5**0.7,), c=(0.5**0.6,), cp=(0.5**0.9,),
                  h=(0.5**1.7,), hp=(0.5**1.9,), hpp=(0.5**2.1,))
s.gauss_2f1(0.3, 0.7, 1.9, 0.5)  # direct route
s.gauss_2f1(0.3, 0.7, 1.9, -3.0)  # Pfaff route
s.hyper_pfq([0.3, 0.7, 1.1], [1.9, 2.2], 0.4)
s.appell_f2(0.6, 0.7, 0.8, 1.9, 2.1, 0.3, 0.2)
s.saran_fk_reexpand(p, 0.2, 0.3, 0.1)
s.fk_L(0.6, 0.9, (0.7, 0.8), (1.7, 2.1, 1.9), (0.2, 0.1, 0.3))
s.rphis([0.3, 0.5], [0.7], 0.4, ctx)
s.phi3(spec, 0.2, 0.3, 0.1, ctx)
s.phi_k_q(p, 0.2, 0.3, 0.1, ctx)
s.q_gamma(1.4, ctx)
s.q_beta(1.2, 2.3, ctx)
s.jackson_integral(lambda t: t**0.5, 1, ctx)
s.q_measure_rule(s.QDirichletMeasure(1.2, 0.8, ctx))
s.gamma(2.5)
print(scipy_loaded())
s.gauss_2f1(0.3, 0.7, 1.9, 0.95)  # near-one route
print("scipy.special" in sys.modules)
"""


def test_scipy_loads_on_first_use_only():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", IMPORT_CONTRACT], cwd=root, env=dict(os.environ, PYTHONPATH="src"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "True"]
