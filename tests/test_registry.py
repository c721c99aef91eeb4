import dataclasses
import hashlib
import itertools
import json

import mpmath
import numpy as np
import pytest
import scipy.special as sps

from saranfk import (
    ConfigError,
    ConvergenceError,
    DomainError,
    EvalSettings,
    builtin_registry,
    gauss_2f1,
    in_domain_fk,
    registry_lookup,
    sample_parameters,
    verify_identity,
)
from saranfk import classical_cases, measures, q_cases, qkernels, series
from saranfk.classical_cases import _f2_rows, fk_erdelyi_inner_tables
from saranfk.core import q_pochhammer_table
from saranfk.measures import DirichletMeasure, HypergeometricMeasure, hypergeometric_density, measure_rule
from saranfk.series import _series_len
from saranfk.registry import ParameterPoint

ALL_IDS = [
    "euler-1", "euler-2", "bateman", "erdelyi-1", "erdelyi-2", "erdelyi-3",
    "fk-erdelyi", "f2-curious", "f2-reduction-proof", "manocha", "manocha-reduced",
    "fa-erdelyi", "fk-cross-form",
    "gasper-q-erdelyi-1", "gasper-q-erdelyi-3", "ernst-q-bateman",
    "joshi-vyas-general", "qfk-phi3", "qfk-phi3-x0", "qfk-lr",
    "gasper-discrete", "fk-discrete", "fk-discrete-limits",
    "qfk-erdelyi", "qfk-erdelyi-simplified", "phik-cross-form",
]


def off_pole_lattice(value, q, n):
    """value at least 4% from each point q^-m, m = 0..n, of the pole lattice."""
    return all(abs(value - q**-m) >= 0.04 * q**-m for m in range(n + 1))


def off_integers(x):
    return abs(x - round(x)) > 0.05


FK_DOMAIN = [("(x, y, z) in the F_K domain", lambda v: in_domain_fk(v["x"], v["y"], v["z"]))]
F2_DISC = [("|y| + |z| < 1", lambda v: abs(v["y"]) + abs(v["z"]) < 1)]

# The hypotheses each sampler keeps beyond those its measures own: the F_K
# domain, the F2 disc, the unit polydisc of the Phi_K cross form, and the
# engineering margins of erdelyi-3, gasper-discrete and fk-discrete.
SAMPLER_HYPOTHESES = {
    "erdelyi-3": [
        ("lam - nu > 0.3", lambda v: v["lam"] - v["nu"] > 0.3),
        ("lam - nu off the integers", lambda v: off_integers(v["lam"] - v["nu"])),
    ],
    "fk-erdelyi": FK_DOMAIN,
    "fk-cross-form": FK_DOMAIN,
    "f2-curious": F2_DISC,
    "f2-reduction-proof": F2_DISC,
    "phik-cross-form": [("max |arg| < 1", lambda v: max(abs(v[k]) for k in "xyz") < 1)],
    "gasper-discrete": [
        ("derived bases off the pole lattice at q = 0.3, 0.5, 0.7", lambda v: all(
            off_pole_lattice(v["gamma"] * v["mu"] / (v["lam"] * v["nu"]), q, int(v["n"]))
            and off_pole_lattice(q ** (1.0 - v["n"]) / v["lam"], q, int(v["n"]))
            for q in (0.3, 0.5, 0.7))),
    ],
    "fk-discrete": [
        ("gl1 = gamma1 + lam1 - alpha1 - mu1 > 0", lambda v: v["gamma1"] + v["lam1"] - v["alpha1"] - v["mu1"] > 0),
        ("gl2 = gamma2 + lam2 - beta2 - mu2 > 0", lambda v: v["gamma2"] + v["lam2"] - v["beta2"] - v["mu2"] > 0),
        ("mu1 > 0", lambda v: v["mu1"] > 0),
        ("mu2 > 0", lambda v: v["mu2"] > 0),
        ("alpha1, beta2 off the integers", lambda v: off_integers(v["alpha1"]) and off_integers(v["beta2"])),
    ],
}


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

    def test_every_sampler_keeps_its_hypotheses(self):
        for case, seed in itertools.product(builtin_registry(), range(4)):
            for pt in sample_parameters(case, seed, 4):
                v = pt.flat()
                for name, holds in SAMPLER_HYPOTHESES.get(case.id, ()):
                    assert holds(v), f"{case.id}: {name}"
                specs = case.measures(v)
                assert all(isinstance(m, (DirichletMeasure, HypergeometricMeasure)) for m in specs), case.id

    def test_erdelyi1_argument_cap(self):
        case = registry_lookup("erdelyi-1")
        for pt in sample_parameters(case, 5, 40):
            assert abs(pt.arguments["z"]) <= 0.7

    def test_rejection_cap(self):
        case = registry_lookup("euler-1")

        def never(rng):
            case.sampler(rng)
            raise DomainError("outside the hypotheses")

        impossible = dataclasses.replace(case, sampler=never)
        with pytest.raises(ConfigError):
            sample_parameters(impossible, 1, 2)

    def test_rejection_cap_on_measures(self):
        def never(v):
            raise DomainError("no measure")

        impossible = dataclasses.replace(registry_lookup("euler-1"), measures=never)
        with pytest.raises(ConfigError):
            sample_parameters(impossible, 1, 2)

    def test_count_cap(self):
        with pytest.raises(ConfigError):
            sample_parameters(registry_lookup("euler-1"), 1, 10_001)


# sha256 of each identity's seed-42 points at its default sample count: every
# value and argument with its key, in insertion order, as JSON.
SEED_42_DIGESTS = {
    "euler-1": "db9693c7478a564c0c618a66bb3c9430321edceeedb2078bf02255b1527e8b54",
    "euler-2": "c40c661f2fd0027ec9dc4f6bbc3426420183881839e4b0ef36105c3e577bfac8",
    "bateman": "397da6054ab1edac5719bc8471a499099ed725b4cda58e1dbf087a59446d8766",
    "erdelyi-1": "f7866a752848768e248214b43f69888f258160facac6b54538bf70c85e84e94d",
    "erdelyi-2": "45d0e97db29a3c59475d76dc0f82d84ad3c5ef7d3145816d2e140aa34680c31f",
    "erdelyi-3": "5470a9b09241b65c326a7be5b0373f675148074559f41642e3a86e326e9533b8",
    "fk-erdelyi": "3a5967d3a808afee1486b7b432c1b87277ce569513560d4f7266466c8a93e82a",
    "f2-curious": "f20589e08e2aa013ffc72204c5b2188bc12d814d95f3a616c40edeab7bb76e4b",
    "f2-reduction-proof": "6dce61ce9a634bea33a4f313dd49f29f264f724cb6a1e9954e64251d65bfc210",
    "manocha": "a269fb4643cfad9c2665388e4d89d093a953bd7780179b9ccb1b3708cd63aaa2",
    "manocha-reduced": "97e0240197a589dff259ad402ac095b1ebfdc8edd6f07cc214bcb701bb139ee4",
    "fa-erdelyi": "c1ba5e0b8ef6cb17947a8ab4306eae947c203846003eccaef8b74c4e161f3ed5",
    "fk-cross-form": "d6844bc14a9e49b618af3b67e115acb4ae500b64165e18bcc6733fb867e5e392",
    "gasper-q-erdelyi-1": "0dd39601da4e56cf5f013d55452ebae9b9b6055b8fd6c52d9081d48fd6b39f3f",
    "gasper-q-erdelyi-3": "1415d20e9bad2034c4fd7a82fd9988680769f1d8a43103db4f572757f5832b6e",
    "ernst-q-bateman": "d57f0319d71d86dbc46f57df4544845fe459ad08116d8929d7e74a423cfd7478",
    "joshi-vyas-general": "58624de2ab6c5fd9748f9818c149c6d5abb32b6b45a7902fbfe628228613cf3b",
    "qfk-phi3": "39314d6cd1237a426a18ce80c9398fb79ea7731702811b0d5825c3f4d4523a57",
    "qfk-phi3-x0": "e3a21ea3b40dc70c6031916ba069cc10246fd4d63d2e0e4e2e9bfdeef33fb7ac",
    "qfk-lr": "2e2dab165ea022e6dc6cdd5ac7ac903ff3bc97b2fba3cae2fdfb82fb0ee21e6f",
    "gasper-discrete": "f3f8599de13f37126e1e4dfe1dccd58d04ee721f9c1a3469a463512f87daba00",
    "fk-discrete": "8611f07c2dc98b86d8d80f244faeef43ec5766172cbc6ac9d9802d1a37f002df",
    "fk-discrete-limits": "cf323ed7f885b87d9531042a72f90b022aac4065858e4dad39a2420c307f7551",
    "qfk-erdelyi": "e83b8ee1d5b62e76794900cd754422a7077d5b9bce4f2c5e8744f60aa3bf3862",
    "qfk-erdelyi-simplified": "4aa23c7235e6a116f5d0e99ff4ec8c8ce4895b4857246777be0d31412d1ff282",
    "phik-cross-form": "46c0a141f66deae21c82366454619cfb8dd213b922d6ee0266629433631f9052",
}


# The same digests at seeds 1, 2 and 3 for the cases whose samplers reject
# draws themselves, which pins the random stream each rejection consumes.
REJECTING_SAMPLER_DIGESTS = {
    (1, "erdelyi-3"): "b545a0456be3fb21de339b4371dd1f41b9465946064df63acef6156c815f1c99",
    (1, "gasper-discrete"): "0f27d06a3d66cc950cad6e1317037c6397c1cdfdd363cc859cf893279e351988",
    (1, "fk-discrete"): "3c420fdb6126b423aefcf5dae0851bf80fbab394e4864ee3f21f0bf08ca7a710",
    (2, "erdelyi-3"): "c1661f8c7dc48951384f9c3b576b5718810d49562c079779a10ce1d026c593c3",
    (2, "gasper-discrete"): "12c5cb31046d851705f1f8bd35135667bc58f27b41c49c73a74b80a7b5a98711",
    (2, "fk-discrete"): "c78419afd52ef4d9e4bb6680bcefab3fa933004e5d6aa0b72e22b2b54855134d",
    (3, "erdelyi-3"): "1e538dd3c4a0af6b3feee071000b63520b8439151a8c1ba7b7821dd87c2f7dae",
    (3, "gasper-discrete"): "f12bc7ccce5a99ce6b87b8a1eaea2e2b235f7466c10daee9d964d2472235cdd5",
    (3, "fk-discrete"): "9f6fa781e81ddb6c377b86894dde7f87f33fe9a09ea1818a6c6735c1c63a55e6",
}


def point_digest(points) -> str:
    blob = json.dumps([[list(p.values.items()), list(p.arguments.items())] for p in points])
    return hashlib.sha256(blob.encode()).hexdigest()


class TestStoredPoints:
    @pytest.mark.parametrize("case_id", list(SEED_42_DIGESTS))
    def test_seed_42_points_unchanged(self, case_id):
        case = registry_lookup(case_id)
        assert point_digest(sample_parameters(case, 42, case.default_samples)) == SEED_42_DIGESTS[case_id]

    @pytest.mark.parametrize("seed, case_id", list(REJECTING_SAMPLER_DIGESTS))
    def test_rejecting_sampler_points_unchanged(self, seed, case_id):
        case = registry_lookup(case_id)
        digest = point_digest(sample_parameters(case, seed, case.default_samples))
        assert digest == REJECTING_SAMPLER_DIGESTS[seed, case_id]

    def test_every_identity_stored(self):
        assert [c.id for c in builtin_registry()] == list(SEED_42_DIGESTS)


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


def q_twin(m, ctx):
    if isinstance(m, DirichletMeasure):
        return qkernels.QDirichletMeasure(m.alpha, m.beta, ctx)
    return qkernels.QHypergeometricMeasure(m.alpha, m.beta, m.gamma, m.eta, ctx)


class TestRightHandSideMeasures:
    """Every right-hand side integrates against exactly case.measures(v): a
    classical one through measure_rule at quad_order for one or two measures,
    quad_order_triple for three and quad_order_quad for four, a q one through
    q_measure_rule on each measure's q-twin."""

    # Its measures only state its hypotheses: its rules are the limit weights.
    HYPOTHESES_ONLY = ("fk-discrete-limits",)

    @pytest.mark.parametrize("case_id", ALL_IDS)
    def test_rhs_rules_are_the_case_measures(self, monkeypatch, case_id):
        case = registry_lookup(case_id)
        s = EvalSettings.default()
        seen = []
        rule, q_rule = classical_cases.measure_rule, q_cases.q_measure_rule
        monkeypatch.setattr(classical_cases, "measure_rule", lambda m, n: seen.append((m, n)) or rule(m, n))
        monkeypatch.setattr(q_cases, "q_measure_rule", lambda m: seen.append((m, None)) or q_rule(m))
        order = {3: s.quad_order_triple, 4: s.quad_order_quad}
        for pt in sample_parameters(case, 42, case.default_samples):
            seen.clear()
            case.rhs(pt, s)
            specs = case.measures(pt.flat())
            if case_id in self.HYPOTHESES_ONLY:
                assert specs and not seen
            elif case.uses_q:
                assert seen == [(q_twin(m, s.qctx), None) for m in specs]
            else:
                assert seen == [(m, order.get(len(specs), s.quad_order)) for m in specs]


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


class TestNodeSeriesHonesty:
    @pytest.mark.parametrize(
        "case_id", ["bateman", "f2-curious", "manocha-reduced", "manocha", "fk-erdelyi", "fa-erdelyi"]
    )
    def test_unconverged_node_series_fails_the_point(self, monkeypatch, case_id):
        # Every 2F1 over quadrature nodes, and the seeds of the shifted
        # families, now reports converged=False: the point must fail.
        eval_2f1 = series._eval_2f1

        def unconverged(*args, **kwargs):
            value, terms, _, est = eval_2f1(*args, **kwargs)
            return value, terms, False, est

        monkeypatch.setattr(series, "_eval_2f1", unconverged)
        monkeypatch.setattr(classical_cases, "_eval_2f1", unconverged)
        res = verify_identity(registry_lookup(case_id), seed=42, count=1)
        assert not res.passed
        assert res.failures[0].message.startswith("ConvergenceError")


def _unconverged(engine):
    """engine, reporting converged=False: a record through
    dataclasses.replace, a private engine's tuple by its flag."""

    def run(*args, **kwargs):
        res = engine(*args, **kwargs)
        if isinstance(res, tuple):
            value, terms, _, est = res
            return value, terms, False, est
        return dataclasses.replace(res, converged=False)

    return run


class TestRecordHonesty:
    @pytest.mark.parametrize(
        "case_id, module, name",
        [
            ("euler-1", classical_cases, "gauss_2f1"),
            ("f2-reduction-proof", classical_cases, "appell_f2"),
            ("f2-reduction-proof", classical_cases, "gauss_2f1"),
            ("fk-erdelyi", classical_cases, "saran_fk_reexpand"),
            ("f2-curious", classical_cases, "appell_f2"),
            ("manocha", classical_cases, "appell_f2"),
            ("fa-erdelyi", classical_cases, "generic_f_a"),
            ("fk-cross-form", classical_cases, "saran_fk_triple"),
            ("fk-cross-form", classical_cases, "saran_fk_reexpand"),
            ("phik-cross-form", q_cases, "phi3"),
            ("erdelyi-3", measures, "_series_2f1_raw"),
        ],
    )
    def test_unconverged_engine_fails_every_point(self, monkeypatch, case_id, module, name):
        # One engine of an identity side now reports converged=False: every
        # point must fail.
        monkeypatch.setattr(module, name, _unconverged(getattr(module, name)))
        res = verify_identity(registry_lookup(case_id), seed=42, count=2)
        assert len(res.failures) == 2
        assert all(f.message.startswith("ConvergenceError") for f in res.failures)

    @pytest.mark.parametrize("name", ["_series_2f1_raw", "_series_2f1_near_one"])
    def test_unconverged_density_series_raises(self, monkeypatch, name):
        monkeypatch.setattr(measures, name, _unconverged(getattr(measures, name)))
        with pytest.raises(ConvergenceError):
            hypergeometric_density(HypergeometricMeasure(0.4, 0.5, 1.6, 0.8), np.array([0.2, 0.7]))


Q_SERIES_IDS = [
    "gasper-q-erdelyi-1", "gasper-q-erdelyi-3", "ernst-q-bateman", "joshi-vyas-general", "qfk-phi3",
    "qfk-phi3-x0", "qfk-lr", "gasper-discrete", "fk-discrete-limits", "qfk-erdelyi",
    "qfk-erdelyi-simplified", "phik-cross-form",
]


class TestQSeriesHonesty:
    @pytest.mark.parametrize("case_id", Q_SERIES_IDS)
    def test_unconverged_q_series_fails_the_point(self, monkeypatch, case_id):
        # Every r_phi_s array sum, the Phi_K tables' power route included,
        # now reports converged=False: the 2phi1 and 3phi2 factors, the Phi_K
        # tables and the shift factor must fail it.
        def unconverged(series_sum):
            def patched(*args, **kwargs):
                value, terms, _, est = series_sum(*args, **kwargs)
                return value, terms, False, est
            return patched

        for name in ("_rphis_array", "_family_sum"):
            monkeypatch.setattr(qkernels, name, unconverged(getattr(qkernels, name)))
        monkeypatch.setattr(q_cases, "_rphis_array", qkernels._rphis_array)
        res = verify_identity(registry_lookup(case_id), seed=42, count=1)
        assert not res.passed
        assert res.failures[0].message.startswith("ConvergenceError")


def qfk_phi3_rhs_restated(v, s):
    """Corollary 4.2's right-hand side with its own tables: coef[p] =
    (a2)_p (b1)_p (eta3)_p / ((nu3)_p (lam3)_p (q)_p) and the 3phi2 tables
    (b1 q^p, a1, eta1; nu1, lam1; x t1) and (a2 q^p, b2, eta2; nu2, lam2; y t2)
    over the slot rules, contracted by broadcast sums."""
    q = s.q
    (t1, w1), (t2, w2), (t3, w3) = q_cases._q_rules(q_cases._slot_axes_measures(v), s)
    pmax = _series_len(abs(v["z"]), s.series_tol, 8, 160)
    shifts = q ** np.arange(pmax + 1.0)

    def tab(e):
        return q_pochhammer_table(q**e, pmax, q)

    coef = tab(v["alpha2"]) * tab(v["beta1"]) * tab(v["eta3"]) / (tab(v["nu3"]) * tab(v["lam3"]) * tab(1))
    A = qkernels._rphis_array([q ** v["beta1"] * shifts, q ** v["alpha1"], q ** v["eta1"]],
                              [q ** v["nu1"], q ** v["lam1"]], (v["x"] * t1)[:, None], s.qctx,
                              s.series_tol * 1e-2)[0]
    B = qkernels._rphis_array([q ** v["alpha2"] * shifts, q ** v["beta2"], q ** v["eta2"]],
                              [q ** v["nu2"], q ** v["lam2"]], (v["y"] * t2)[:, None], s.qctx,
                              s.series_tol * 1e-2)[0]
    SC = (w3[:, None] * (v["z"] * t3[:, None]) ** np.arange(pmax + 1)).sum(axis=0)
    return complex((coef * (w1[:, None] * A).sum(axis=0) * (w2[:, None] * B).sum(axis=0) * SC).sum())


class TestPhiKSum:
    @pytest.mark.parametrize("q", [0.2, 0.5, 0.7])
    def test_qfk_phi3_rhs_matches_restated_tables(self, q):
        case = registry_lookup("qfk-phi3")
        s = EvalSettings.default().with_q(q)
        for pt in sample_parameters(case, 42, case.default_samples):
            got, want = case.rhs(pt, s), qfk_phi3_rhs_restated(pt.flat(), s)
            assert abs(got - want) <= 1e-13 * abs(want)


def f2_box(a, b, c, lam, eta, X, Y, M):
    """Appell F2 over the box m, n <= M from its coefficient table
    (a)_{m+n} (b)_m (c)_n / ((lam)_m (eta)_n m! n!), formed as
    (a)_{m+n} / (m+n)! C(m+n, m) (b)_m / (lam)_m (c)_n / (eta)_n so that no
    factor overflows, and contracted with the powers of X and Y."""
    s = np.arange(2 * M + 1.0)
    lead = np.cumprod(np.concatenate([[1.0], (a + s[:-1]) / (1.0 + s[:-1])]))
    k = np.arange(M + 1)
    lf = sps.gammaln(s + 1.0)
    table = lead[k[:, None] + k[None, :]] * np.exp(lf[k[:, None] + k[None, :]] - lf[k][:, None] - lf[k][None, :])
    table *= np.outer(np.cumprod(np.r_[1.0, (b + k[:-1]) / (lam + k[:-1])]),
                      np.cumprod(np.r_[1.0, (c + k[:-1]) / (eta + k[:-1])]))
    Xp = np.asarray(X)[..., None] ** k
    Yp = np.asarray(Y)[..., None] ** k
    return np.einsum("...m,mn,...n->...", Xp, table, Yp)


class TestManochaRows:
    def test_rows_match_coefficient_table(self):
        # Both F2 factors of the Manocha RHS at a seed-42 point, by rows of
        # a 2F1 family and by the coefficient table of the (m, n) box.
        settings = EvalSettings.default()
        v = sample_parameters(registry_lookup("manocha"), 42, 1)[0].flat()
        y, z = v["y"], v["z"]
        tv, _ = measure_rule(DirichletMeasure(v["lam"], v["d"] - v["lam"]), settings.quad_order)
        tw, _ = measure_rule(DirichletMeasure(v["eta"], v["e"] - v["eta"]), settings.quad_order)
        V, W = tv[:, None], tw[None, :]
        Q = 1.0 - V * y - W * z
        M = _series_len(abs(y) + abs(z), settings.series_tol, lo=24, hi=160)
        first = (v["a"] - v["ap"], v["b"], v["c"], v["lam"], v["eta"])
        second = (v["ap"], v["b"] - v["lam"], v["c"] - v["eta"], v["d"] - v["lam"], v["e"] - v["eta"])
        for params, X, Y in ((first, V * y, W * z), (second, (1.0 - V) * y / Q, (1.0 - W) * z / Q)):
            want = f2_box(*params, X, Y, M)
            X, Y = (np.broadcast_to(G, Q.shape).ravel() for G in (X, Y))
            got = _f2_rows(*params, X, Y, M + 1, settings.series_tol).reshape(Q.shape)
            assert np.all(np.abs(got - want) <= 1e-11 * (1 + np.abs(want)))
        got = _f2_rows(*first, V * y, tw * z, M + 1, settings.series_tol)
        assert np.all(np.abs(got - f2_box(*first, V * y, W * z, M)) <= 1e-11)


class TestRefinedLattices:
    """refined() squares jackson_tail_tol, so every q-lattice grows: the
    fk-discrete-limits weight lattices of the seed-42 points are longer."""

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.7])
    def test_fk_limits_weight_lattices_grow(self, monkeypatch, q):
        case = registry_lookup("fk-discrete-limits")
        sizes = []

        def lattice_sizes(p, v, s, rules, extra=()):
            sizes.append([len(w) for _, w in rules])
            return 0.0

        monkeypatch.setattr(q_cases, "_phi_k_value", lattice_sizes)
        base = EvalSettings(q=q)
        points = sample_parameters(case, 42, case.default_samples)
        for settings in (base, base.refined()):
            for pt in points:
                case.rhs(pt, settings)
        default, refined = np.array(sizes).reshape(2, len(points), 3)
        assert np.all(refined > default)
