"""The identity registry and the verification harness.

Each registry entry pairs a hypothesis-respecting parameter sampler with
independent left- and right-hand-side evaluators.  Verification samples
admissible points, evaluates both sides, and aggregates the residuals
|LHS - RHS| / (1 + |LHS|).  The same runs are reachable from the command
line:

    saranfk list
    saranfk verify --identities euler-1,fk-erdelyi --seed 42 --format human
    saranfk verify --identities all --format json --output report.jsonl
    saranfk report report.jsonl
"""

import dataclasses

from saranfk import (
    EvalSettings,
    builtin_registry,
    in_domain_fk,
    registry_lookup,
    sample_parameters,
    verify_identity,
)

print("=" * 70)
print("The registry")
print("=" * 70)
registry = builtin_registry()
print(f"{len(registry)} identities:\n")
for case in registry:
    print(f"  {case.id:<28} {case.anchor:<28} {case.cost_class:<16} tol {case.tol:.0e}")

print()
print("=" * 70)
print("Sampling respects each identity's hypotheses")
print("=" * 70)
case = registry_lookup("fk-erdelyi")
pt = sample_parameters(case, seed=42, count=1)[0]
print("one sampled point for the F_K triple integral:")
for k, v in sorted(pt.values.items()):
    print(f"  {k:<8} = {v:.4f}")
print(f"  arguments: {dict((k, round(v, 4)) for k, v in pt.arguments.items())}")
x, y, z = (pt.arguments[k] for k in "xyz")
print(f"  (x, y, z) in the F_K domain: {'ok' if in_domain_fk(x, y, z) else 'VIOLATED'}")
for m in case.measures(pt.flat()):
    print(f"  measure {type(m).__name__}{tuple(round(x, 4) for x in vars(m).values())}: exists")

print()
print("=" * 70)
print("Verification runs")
print("=" * 70)
for cid in ("euler-1", "erdelyi-3", "fk-erdelyi", "qfk-erdelyi", "gasper-discrete"):
    res = verify_identity(registry_lookup(cid), seed=42, count=5)
    status = "PASS" if res.passed else "FAIL"
    print(f"  {status}  {cid:<22} max residual {res.max_rel_residual:.3e}"
          f"  ({res.samples} samples, {res.wall_time * 1000:.0f} ms)")

print()
print("=" * 70)
print("Refinement: doubling resolution must not grow residuals")
print("=" * 70)
base = EvalSettings.default()
for cid in ("erdelyi-3", "qfk-lr"):
    r1 = verify_identity(registry_lookup(cid), seed=42, count=4, settings=base)
    r2 = verify_identity(registry_lookup(cid), seed=42, count=4, settings=base.refined())
    print(f"  {cid:<22} base {r1.max_rel_residual:.2e}  refined {r2.max_rel_residual:.2e}")

print()
print("=" * 70)
print("The harness detects a corrupted identity")
print("=" * 70)
base_case = registry_lookup("euler-1")
corrupted = dataclasses.replace(
    base_case,
    id="euler-1-corrupted",
    rhs=lambda pt, s, f=base_case.rhs: f(pt, s) * (1 + 1e-4),
)
res = verify_identity(corrupted, seed=42, count=10)
print(f"  RHS scaled by (1 + 1e-4): passed={res.passed}, "
      f"max residual {res.max_rel_residual:.3e} (expected near 1e-4)")
