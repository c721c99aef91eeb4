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
