"""The measure classes own the measures' hypotheses.

A case's measures function raises DomainError exactly where the classical
measure does, and builds that measure where it exists; each q-measure raises
DomainError exactly where its classical twin does, for real and complex
exponents of either sign.
"""

import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from saranfk import (
    DirichletMeasure,
    DomainError,
    HypergeometricMeasure,
    QContext,
    QDirichletMeasure,
    QHypergeometricMeasure,
)
from saranfk.classical_cases import lam_measures, slot_measures
from saranfk.measures import _slot_exponents, _slot_inverse
from saranfk.registry import registry_lookup

_REAL = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
EXPONENT = st.one_of(_REAL, st.builds(complex, _REAL, _REAL))
CTX = QContext(q=0.5)


def constructs(build, *args) -> bool:
    try:
        build(*args)
    except DomainError:
        return False
    return True


@hsettings(max_examples=300, deadline=None)
@given(small=EXPONENT, big=EXPONENT)
def test_lam_measures_is_the_dirichlet_measure(small, big):
    want = constructs(DirichletMeasure, small, big - small)
    v = {"lam": small, "gamma": big}
    assert constructs(lam_measures, v) == want
    if want:
        assert lam_measures(v) == (DirichletMeasure(small, big - small),)


@hsettings(max_examples=300, deadline=None)
@given(eta=EXPONENT, gamma=EXPONENT, lam=EXPONENT, nu=EXPONENT)
def test_slot_measures_is_the_slot_measure(eta, gamma, lam, nu):
    want = constructs(HypergeometricMeasure, *_slot_exponents(eta, gamma, lam, nu))
    v = {"eta": eta, "gamma": gamma, "lam": lam, "nu": nu}
    assert constructs(slot_measures, v) == want
    if want:
        assert slot_measures(v) == (HypergeometricMeasure(*_slot_exponents(eta, gamma, lam, nu)),)


@hsettings(max_examples=300, deadline=None)
@given(eta=EXPONENT, gamma=EXPONENT, lam=EXPONENT, nu=EXPONENT)
def test_slot_map_states_gaspers_hypotheses(eta, gamma, lam, nu):
    # Away from the boundary, where rounding cannot flip a sign, the slot
    # measure exists exactly when Re(nu), Re(gamma - lam + eta - nu) and
    # Re(lam) are positive.
    parts = [complex(v).real for v in (nu, gamma - lam + eta - nu, lam)]
    if min(abs(p) for p in parts) < 1e-9:
        return
    want = min(parts) > 0
    assert constructs(HypergeometricMeasure, *_slot_exponents(eta, gamma, lam, nu)) == want


@hsettings(max_examples=300, deadline=None)
@given(eta=EXPONENT, gamma=EXPONENT, lam=EXPONENT, nu=EXPONENT)
def test_slot_inverse_round_trips(eta, gamma, lam, nu):
    # Each way is a few additions of terms of modulus at most 3 sqrt(2).
    slots = (eta, gamma, lam, nu)
    exps = _slot_exponents(*slots)
    bound = 64 * 2.0**-52 * (1.0 + sum(abs(v) for v in slots))
    assert all(abs(got - want) <= bound for got, want in zip(_slot_inverse(*exps), slots))
    assert all(abs(got - want) <= bound for got, want in zip(_slot_exponents(*_slot_inverse(*exps)), exps))


@hsettings(max_examples=300, deadline=None)
@given(a=EXPONENT, b=EXPONENT)
def test_q_dirichlet_raises_where_its_twin_does(a, b):
    assert constructs(QDirichletMeasure, a, b, CTX) == constructs(DirichletMeasure, a, b)


@hsettings(max_examples=300, deadline=None)
@given(a=EXPONENT, b=EXPONENT, g=EXPONENT, e=EXPONENT)
def test_q_hypergeometric_raises_where_its_twin_does(a, b, g, e):
    want = constructs(HypergeometricMeasure, a, b, g, e)
    assert constructs(QHypergeometricMeasure, a, b, g, e, CTX) == want


@pytest.mark.parametrize("build, args", [
    (QDirichletMeasure, (0.0, 1.0)),
    (QDirichletMeasure, (1.0, -0.5 + 2j)),
    (QHypergeometricMeasure, (0.3, 0.4, 1.2, 0.0)),
    (QHypergeometricMeasure, (0.3, 0.4, -1.2, 1.1)),
    (QHypergeometricMeasure, (1.0, 1.0, 0.5, 0.5)),
])
def test_q_measure_boundaries_raise(build, args):
    with pytest.raises(DomainError):
        build(*args, CTX)


@pytest.mark.parametrize("nu1, want", [(0.6, True), (-0.6, False)])
def test_slot_axes_measures_pass_a_point_without_the_axis(nu1, want):
    # A one-axis point of joshi-vyas-general is judged on axis 1 alone.
    case = registry_lookup("joshi-vyas-general")
    values = {"lam1": 0.7, "nu1": nu1, "gamma1": 1.0, "eta1": 1.2}
    assert constructs(case.measures, values) == want
    if want:
        assert case.measures(values) == (HypergeometricMeasure(*_slot_exponents(1.2, 1.0, 0.7, nu1)),)
