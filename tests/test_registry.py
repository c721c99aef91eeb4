import dataclasses

import mpmath
import numpy as np
import pytest

from saranfk import (
    ConfigError,
    EvalSettings,
    builtin_registry,
    gauss_2f1,
    in_domain_fk,
    registry_lookup,
    sample_parameters,
    verify_identity,
)
from saranfk.classical_cases import fk_erdelyi_inner_tables
from saranfk.registry import Constraint, ParameterPoint

ALL_IDS = [
    "euler-1", "euler-2", "bateman", "erdelyi-1", "erdelyi-2", "erdelyi-3",
    "fk-erdelyi", "f2-curious", "f2-reduction-proof", "manocha", "manocha-reduced",
    "fa-erdelyi", "fk-cross-form",
    "gasper-q-erdelyi-1", "gasper-q-erdelyi-3", "ernst-q-bateman",
    "joshi-vyas-general", "qfk-phi3", "qfk-phi3-x0", "qfk-lr",
    "gasper-discrete", "fk-discrete", "fk-discrete-limits",
    "qfk-erdelyi", "qfk-erdelyi-simplified", "phik-cross-form",
]


class TestRegistryShape:
    def test_every_identity_registered(self):
        ids = [c.id for c in builtin_registry()]
        assert sorted(ids) == sorted(ALL_IDS)

    def test_ids_unique(self):
        ids = [c.id for c in builtin_registry()]
        assert len(ids) == len(set(ids))

    def test_lookup_anchor(self):
        assert registry_lookup("fk-erdelyi").anchor == "Theorem 1.1"
        assert registry_lookup("fk-erdelyi").cost_class == "triple-integral"

    def test_unknown_id(self):
        with pytest.raises(ConfigError):
            registry_lookup("bogus-id")

    def test_registry_built_once(self):
        assert builtin_registry() is builtin_registry()

    def test_cost_classes_are_known(self):
        allowed = {"cheap", "single-integral", "triple-integral", "q-lattice"}
        assert {c.cost_class for c in builtin_registry()} <= allowed


class TestSampling:
    def test_seed_reproducibility(self):
        case = registry_lookup("fk-erdelyi")
        a = sample_parameters(case, 42, 6)
        b = sample_parameters(case, 42, 6)
        assert a == b

    def test_seeds_differ(self):
        case = registry_lookup("euler-1")
        assert sample_parameters(case, 1, 4) != sample_parameters(case, 2, 4)

    def test_fk_erdelyi_hypotheses(self):
        case = registry_lookup("fk-erdelyi")
        for pt in sample_parameters(case, 7, 25):
            v = pt.values
            assert v["alpha1"] + v["eta1"] > v["lam1"] > 0
            assert v["beta2"] + v["mu2"] > v["lam2"] > 0
            assert v["gamma3"] > v["beta1"] > 0
            assert in_domain_fk(pt.arguments["x"], pt.arguments["y"], pt.arguments["z"])

    def test_every_sampler_satisfies_constraints(self):
        for case in builtin_registry():
            for pt in sample_parameters(case, 3, 4):
                for c in case.constraints:
                    assert c.check(pt), f"{case.id}: {c.name}"

    def test_erdelyi1_argument_cap(self):
        case = registry_lookup("erdelyi-1")
        for pt in sample_parameters(case, 5, 40):
            assert abs(pt.arguments["z"]) <= 0.7

    def test_rejection_cap(self):
        case = registry_lookup("euler-1")
        impossible = dataclasses.replace(
            case,
            constraints=(Constraint("never", lambda pt: False),),
        )
        with pytest.raises(ConfigError):
            sample_parameters(impossible, 1, 2)

    def test_count_cap(self):
        with pytest.raises(ConfigError):
            sample_parameters(registry_lookup("euler-1"), 1, 10_001)


class TestVerification:
    def test_euler_1_batch(self):
        res = verify_identity(registry_lookup("euler-1"), seed=1, count=50)
        assert res.passed
        assert res.max_rel_residual < 1e-10
        assert res.samples == 50

    def test_corrupted_identity_detected(self):
        base = registry_lookup("euler-1")
        corrupted = dataclasses.replace(
            base,
            id="euler-1-corrupted",
            rhs=lambda pt, s, f=base.rhs: f(pt, s) * (1 + 1e-4),
        )
        res = verify_identity(corrupted, seed=42, count=10)
        assert not res.passed
        assert 1e-5 <= res.max_rel_residual <= 1e-3

    def test_evaluator_errors_become_failures(self):
        base = registry_lookup("euler-1")

        def exploding(pt, s):
            raise ValueError("deliberate")

        broken = dataclasses.replace(base, id="euler-1-broken", rhs=exploding)
        res = verify_identity(broken, seed=42, count=4)
        assert not res.passed
        assert len(res.failures) == 4
        assert all("deliberate" in f.message for f in res.failures)

    def test_tol_override(self):
        res = verify_identity(registry_lookup("euler-1"), seed=3, count=5, tol_override=1e-20)
        assert not res.passed


class TestRegistryWideInvariants:
    COUNTS = {"cheap": 10, "single-integral": 10, "triple-integral": 5, "q-lattice": 5}

    def test_every_entry_passes_at_declared_tolerance(self):
        for case in builtin_registry():
            res = verify_identity(case, seed=42, count=self.COUNTS[case.cost_class])
            assert res.passed, (
                f"{case.id}: residual {res.max_rel_residual:.2e} vs tol {case.tol:.0e}; "
                + "; ".join(f.message for f in res.failures[:2])
            )

    def test_fk_cross_form_50_points(self):
        res = verify_identity(registry_lookup("fk-cross-form"), seed=42, count=50)
        assert res.passed
        assert res.max_rel_residual < 1e-10


class TestProofSteps:
    def test_inner_single_integrals(self):
        # The u- and v-contractions of the triple integral must reproduce the
        # single-integral reductions at each series order (m, n).
        case = registry_lookup("fk-erdelyi")
        settings = EvalSettings.default()
        for pt in sample_parameters(case, 11, 2):
            v = pt.values
            x, y = pt.arguments["x"], pt.arguments["y"]
            IU, IV, _, M = fk_erdelyi_inner_tables(pt, settings)
            for m, n in [(0, 0), (1, 2), (3, 1)]:
                want_u = gauss_2f1(v["beta1"] + m + n, v["alpha1"], v["alpha1"] + v["eta1"], x).value
                assert complex(IU[m, n]) == pytest.approx(complex(want_u), rel=1e-11)
                want_v = gauss_2f1(v["alpha2"] + m + n, v["beta2"], v["beta2"] + v["mu2"], y).value
                assert complex(IV[m, n]) == pytest.approx(complex(want_v), rel=1e-11)

    def test_erdelyi3_rhs_series_at_a_node_near_one(self, monkeypatch):
        # One node t = 0.999 of weight 1: the RHS is 3F2(alpha, beta, eta;
        # lam, nu; z t) there, which needs far more terms than at small t.
        monkeypatch.setattr(
            "saranfk.classical_cases.measure_rule",
            lambda spec, order: (np.array([0.999]), np.ones(1)),
        )
        values = {"alpha": 2.2, "beta": 2.2, "eta": 1.6, "lam": 0.75, "nu": 0.4, "gamma": 1.5}
        pt = ParameterPoint(values=values, arguments={"z": 0.7})
        got = registry_lookup("erdelyi-3").rhs(pt, EvalSettings.default())
        with mpmath.workdps(30):
            want = complex(mpmath.hyper([2.2, 2.2, 1.6], [0.75, 0.4], 0.7 * 0.999))
        assert abs(got - want) <= 1e-12 * (1 + abs(want))
