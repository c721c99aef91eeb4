"""Self-test of the benchmark's verify-op check.

Runs one cheap identity three ways: as registered, with a corrupted
right-hand side and with a right-hand side that returns NaN.  Both injected
defects must raise the failed share of ops above the registered case's.
The NaN case is the one `VerificationResult.passed` lets through.

    PYTHONPATH=src python3 benchmarks/selftest.py
"""

from __future__ import annotations

import dataclasses
import sys

from saranfk import registry
from workloads import PointRecorder

CASE_ID = "euler-1"
SEED = 7
COUNT = 6


def fail_frac(case) -> tuple[float, bool]:
    """Failed share of ops and whether the check agrees with the library's."""
    rec = PointRecorder(case)
    result = registry.verify_identity(
        rec.case(), seed=SEED, count=COUNT, settings=registry.EvalSettings.default()
    )
    return len(rec.failed) / len(rec.op_s), rec.agrees_with(result)


def run_selftest() -> tuple[bool, dict]:
    case = registry.registry_lookup(CASE_ID)
    corrupted = dataclasses.replace(case, rhs=lambda pt, s: case.rhs(pt, s) * (1.0 + 1e-6))
    nan = dataclasses.replace(case, rhs=lambda pt, s: float("nan"))
    (base, ok0), (bad, ok1), (nanf, ok2) = (fail_frac(c) for c in (case, corrupted, nan))
    report = {"registered": base, "corrupted": bad, "nan": nanf}
    return ok0 and ok1 and ok2 and bad > base and nanf > base, report


if __name__ == "__main__":
    ok, report = run_selftest()
    print(("ok" if ok else "FAILED"), report)
    sys.exit(0 if ok else 1)
