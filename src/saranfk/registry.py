"""Declarative registry of verifiable integral identities.

Each identity is stored as an IdentityCase: a sampler that draws parameter
points satisfying the identity's hypotheses, a pair of independent LHS/RHS
evaluators, and a tolerance.  verify_identity evaluates both sides on a batch
of points and aggregates residuals; evaluator errors are recorded as
failures, never aborting the batch.

Each hypothesis is stated once: a sampler draws inside it, or tests it and
raises DomainError after its last draw, so every case consumes the same
random stream; the measure classes raise DomainError for the measures'
hypotheses.  sample_parameters rejects a draw on either.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import time
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import QContext
from .errors import ConfigError, DomainError
from .measures import MeasureSpec

__all__ = [
    "EvalSettings",
    "IdentityCase",
    "ParameterPoint",
    "VerificationResult",
    "builtin_registry",
    "registry_lookup",
    "sample_parameters",
    "verify_identity",
]


@dataclass(frozen=True)
class EvalSettings:
    """Numerical knobs shared by all identity evaluations.

    quad_order applies to 1-D and 2-D classical integrals, quad_order_triple
    per axis of 3-D ones and quad_order_quad per axis of 4-D ones; the one
    place that picks among them is classical_cases._rules.
    jackson_tail_tol sets every q-lattice cut-off: the q-measure rules and
    Jackson integrals stop where their tails fall below it, and the limit
    weights of fk-discrete-limits where they fall below jackson_tail_tol/1e4.
    """

    q: float = 0.5
    quad_order: int = 64
    quad_order_triple: int = 32
    quad_order_quad: int = 24
    series_tol: float = 1e-12
    jackson_tail_tol: float = 1e-10

    @property
    def qctx(self) -> QContext:
        return QContext(q=self.q, jackson_tail_tol=self.jackson_tail_tol)

    def refined(self) -> "EvalSettings":
        """Doubled quadrature orders and a squared jackson_tail_tol, which
        about doubles every q-lattice cut-off.

        Series tolerances are left alone: at the rounding floor, re-stopping
        a series changes the residual by noise, which is what the refinement
        comparison must not measure.
        """
        return dataclasses.replace(
            self,
            quad_order=min(256, self.quad_order * 2),
            quad_order_triple=min(256, self.quad_order_triple * 2),
            quad_order_quad=min(128, self.quad_order_quad * 2),
            jackson_tail_tol=self.jackson_tail_tol**2,
        )

    def with_q(self, q: float) -> "EvalSettings":
        return dataclasses.replace(self, q=q)

    @staticmethod
    def default() -> "EvalSettings":
        return EvalSettings()


@dataclass(frozen=True)
class ParameterPoint:
    """One sampled instance of an identity: named parameter values plus the
    function arguments (x, y, z, ...)."""

    values: dict
    arguments: dict

    def flat(self) -> dict:
        return {**self.values, **self.arguments}


def _u(rng, lo, hi) -> float:
    """One uniform draw from [lo, hi), the samplers' basic step."""
    return float(rng.uniform(lo, hi))


Evaluator = Callable[[ParameterPoint, EvalSettings], complex]


@dataclass(frozen=True)
class IdentityCase:
    """Registry entry pairing a parameter sampler with LHS/RHS evaluators.
    sampler(rng) raises DomainError, only after its last draw, for a draw
    outside the hypotheses; measures(symbols) lists the measures the RHS
    integrates against and raises DomainError where one does not exist."""

    id: str
    anchor: str
    sampler: Callable[[np.random.Generator], ParameterPoint]
    lhs: Evaluator
    rhs: Evaluator
    tol: float
    cost_class: str  # cheap | single-integral | triple-integral | q-lattice
    uses_q: bool = False
    default_samples: int = 10
    measures: Callable[[dict], tuple[MeasureSpec, ...]] = lambda symbols: ()


@dataclass(frozen=True)
class Failure:
    point: ParameterPoint
    residual: float
    message: str = ""


@dataclass(frozen=True)
class VerificationResult:
    id: str
    samples: int
    max_rel_residual: float
    failures: tuple
    wall_time: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_residual <= self.tol and not self.failures


def _case_rng(case_id: str, seed: int) -> np.random.Generator:
    return np.random.default_rng((seed, zlib.crc32(case_id.encode())))


REJECTION_CAP = 2000


def sample_parameters(
    case: IdentityCase, seed: int, count: int
) -> list[ParameterPoint]:
    """Deterministic batch of points that neither the sampler nor the
    measures reject, by rejection sampling with a hard attempt cap."""
    if not 1 <= count <= 10_000:
        raise ConfigError(f"sample count must lie in 1..10000, got {count}")
    rng = _case_rng(case.id, seed)
    points: list[ParameterPoint] = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > REJECTION_CAP * count:
            raise ConfigError(
                f"{case.id}: rejection cap exceeded; the sampler or measures reject nearly every draw"
            )
        try:
            pt = case.sampler(rng)
            case.measures(pt.flat())
        except DomainError:
            continue
        points.append(pt)
    return points


def verify_identity(
    case: IdentityCase,
    seed: int = 42,
    count: int | None = None,
    tol_override: float | None = None,
    settings: EvalSettings | None = None,
) -> VerificationResult:
    """Evaluate LHS and RHS at sampled points; the residual is
    |LHS-RHS| / (1 + |LHS|).  Per-point evaluator errors and non-finite sides
    or residuals become failures with a diagnostic instead of aborting the
    batch."""
    settings = settings or EvalSettings.default()
    count = count if count is not None else case.default_samples
    tol = tol_override if tol_override is not None else case.tol
    points = sample_parameters(case, seed, count)
    t0 = time.perf_counter()
    worst = 0.0
    failures: list[Failure] = []
    for pt in points:
        try:
            lhs = complex(case.lhs(pt, settings))
            rhs = complex(case.rhs(pt, settings))
        except Exception as exc:
            failures.append(Failure(pt, float("nan"), f"{type(exc).__name__}: {exc}"))
            continue
        residual = abs(lhs - rhs) / (1.0 + abs(lhs))
        bad = [k for k, x in (("LHS", lhs), ("RHS", rhs), ("residual", residual))
               if not cmath.isfinite(x)]
        if bad:
            failures.append(Failure(pt, float("nan"), f"non-finite {', '.join(bad)}"))
            continue
        worst = max(worst, residual)
        if residual > tol:
            failures.append(Failure(pt, residual, "residual above tolerance"))
    return VerificationResult(
        id=case.id,
        samples=len(points),
        max_rel_residual=worst,
        failures=tuple(failures),
        wall_time=time.perf_counter() - t0,
        tol=tol,
    )


@functools.cache
def builtin_registry() -> tuple[IdentityCase, ...]:
    """Every verifiable identity, one immutable entry per id.  Built once per
    process; the tuple and its frozen cases are shared by every caller."""
    from . import classical_cases, q_cases

    cases = (*classical_cases.build(), *q_cases.build())
    ids = [c.id for c in cases]
    if len(ids) != len(set(ids)):
        raise RuntimeError("duplicate identity ids in registry")
    return cases


def registry_lookup(case_id: str) -> IdentityCase:
    for case in builtin_registry():
        if case.id == case_id:
            return case
    raise ConfigError(f"unknown identity id {case_id!r}")
