"""Command-line front end.

Subcommands:
  eval     evaluate one function at a point
  verify   run identity verifications and emit a report
  list     print the identity registry
  report   re-render a saved json-lines report

Exit codes: 0 success / all identities pass, 1 verification failure,
2 usage or configuration error (domain violations, unknown ids, bad flags).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

from .core import QContext, q_beta, q_gamma
from .errors import SaranFKError
from .measures import DirichletMeasure, HypergeometricMeasure, integrate_measure
from .qkernels import (
    Phi3Spec,
    QDirichletMeasure,
    QHypergeometricMeasure,
    phi3,
    phi_k_q,
    q_moment,
    rphis,
)
from .registry import EvalSettings, builtin_registry, verify_identity
from .series import FkParams, appell_f2, fk_L, gauss_2f1, hyper_pfq, saran_fk_reexpand

EVAL_FUNCTIONS = (
    "2f1", "pfq", "f2", "fk", "fk_L", "phik", "rphis", "phi3",
    "qgamma", "qbeta", "measure-moment", "q-moment",
)


@dataclass
class ReportRecord:
    """One verification outcome in the machine-readable report."""

    id: str
    anchor: str
    q: float | None
    samples: int
    max_rel_residual: float
    passed: bool
    wall_time_ms: float
    failures: list

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "anchor": self.anchor,
            "q": self.q,
            "samples": self.samples,
            "max_rel_residual": self.max_rel_residual,
            "pass": self.passed,
            "wall_time_ms": self.wall_time_ms,
            "failures": self.failures,
        }


def _fval(ns, name, default=None):
    val = getattr(ns, name.replace("-", "_"), None)
    if val is None:
        if default is None:
            raise SaranFKError(f"eval: missing required option --{name}")
        return default
    return float(val)


def _order(ns) -> int:
    ell = _fval(ns, "ell")
    if not (ell.is_integer() and ell >= 0):
        raise SaranFKError(f"--ell must be a non-negative integer, got {ell:g}")
    return int(ell)


def _tol(ns, default):
    tol = float(ns.tol) if ns.tol else default
    if ns.tol and not 0.0 < tol <= sys.float_info.max:
        raise SaranFKError(f"--tol must be finite and positive, got {ns.tol}")
    return tol


def _flist(raw: str) -> list[float]:
    return [float(v) for v in raw.split(",") if v.strip() != ""]


def _cmd_eval(ns) -> int:
    fn = ns.function
    if fn not in EVAL_FUNCTIONS:
        print(f"unknown function {fn!r}; choose from {', '.join(EVAL_FUNCTIONS)}", file=sys.stderr)
        return 2
    tol = _tol(ns, 1e-12)
    qval = float(ns.q[0]) if ns.q else 0.5
    ctx = QContext(q=qval)

    def out(result):
        if hasattr(result, "value"):
            print(f"value: {result.value}")
            print(f"terms_used: {result.terms_used}")
            print(f"converged: {result.converged}")
            print(f"est_trunc_error: {result.est_trunc_error:.3e}")
        else:
            print(f"value: {result}")
        return 0

    if fn == "2f1":
        return out(gauss_2f1(_fval(ns, "a"), _fval(ns, "b"), _fval(ns, "c"), _fval(ns, "z"), tol))
    if fn == "pfq":
        if not ns.upper or not ns.lower:
            raise SaranFKError("pfq needs --upper and --lower comma lists")
        return out(hyper_pfq(_flist(ns.upper), _flist(ns.lower), _fval(ns, "z"), tol))
    if fn == "f2":
        return out(appell_f2(_fval(ns, "a"), _fval(ns, "b1"), _fval(ns, "b2"),
                             _fval(ns, "c1"), _fval(ns, "c2"), _fval(ns, "y"), _fval(ns, "z"), tol))
    if fn in ("fk", "phik"):
        p = FkParams(
            alpha1=_fval(ns, "alpha1"), alpha2=_fval(ns, "alpha2"),
            beta1=_fval(ns, "beta1"), beta2=_fval(ns, "beta2"),
            gamma1=_fval(ns, "gamma1"), gamma2=_fval(ns, "gamma2"), gamma3=_fval(ns, "gamma3"),
        )
        x, y, z = _fval(ns, "x"), _fval(ns, "y"), _fval(ns, "z")
        if fn == "fk":
            return out(saran_fk_reexpand(p, x, y, z, tol))
        return out(phi_k_q(p, x, y, z, ctx, tol))
    if fn == "fk_L":
        if not (ns.b and ns.cc and ns.zs):
            raise SaranFKError("fk_L needs --a1 --a2 --b --cc --zs")
        return out(fk_L(_fval(ns, "a1"), _fval(ns, "a2"), _flist(ns.b), _flist(ns.cc), _flist(ns.zs), tol))
    if fn == "rphis":
        if not ns.upper or ns.lower is None:
            raise SaranFKError("rphis needs --upper and --lower comma lists (raw bases)")
        lower = _flist(ns.lower) if ns.lower else []
        return out(rphis(_flist(ns.upper), lower, _fval(ns, "z"), ctx, tol))
    if fn == "phi3":
        if not ns.spec_json:
            raise SaranFKError("phi3 needs --spec-json with the parameter groups")
        groups = json.loads(ns.spec_json)
        if not isinstance(groups, dict):
            raise SaranFKError("phi3 --spec-json must be a JSON object of parameter groups")
        spec = Phi3Spec(**{k: tuple(v) for k, v in groups.items()})
        return out(phi3(spec, _fval(ns, "x"), _fval(ns, "y"), _fval(ns, "z"), ctx, tol))
    if fn == "qgamma":
        return out(q_gamma(_fval(ns, "x"), ctx))
    if fn == "qbeta":
        return out(q_beta(_fval(ns, "x"), _fval(ns, "y"), ctx))
    if fn == "measure-moment":
        params = _flist(ns.params or "")
        ell = _order(ns)
        if ns.measure == "dirichlet":
            spec = DirichletMeasure(*params)
        elif ns.measure == "hypergeometric":
            spec = HypergeometricMeasure(*params)
        else:
            raise SaranFKError("measure-moment needs --measure dirichlet|hypergeometric")
        return out(integrate_measure(lambda t: t**ell, spec, order=96))
    if fn == "q-moment":
        params = _flist(ns.params or "")
        ell = _order(ns)
        if ns.measure == "qdirichlet":
            spec = QDirichletMeasure(*params, ctx=ctx)
        elif ns.measure == "qhypergeometric":
            spec = QHypergeometricMeasure(*params, ctx=ctx)
        else:
            raise SaranFKError("q-moment needs --measure qdirichlet|qhypergeometric")
        return out(q_moment(spec, ell))
    raise SaranFKError(f"unhandled function {fn}")


def _resolve_cases(raw: str):
    registry = builtin_registry()
    if raw == "all":
        return list(registry)
    by_id = {c.id: c for c in registry}
    out = []
    for cid in raw.split(","):
        cid = cid.strip()
        if cid not in by_id:
            raise SaranFKError(f"unknown identity id {cid!r}")
        out.append(by_id[cid])
    return out


def _run_verification(ns) -> list[ReportRecord]:
    cases = _resolve_cases(ns.identities)
    seed = int(ns.seed)
    q_values = [float(q) for q in ns.q] if ns.q else [0.5]
    tol_override = _tol(ns, None)
    base = EvalSettings.default()
    records: list[ReportRecord] = []
    for case in cases:
        qs = q_values if case.uses_q else [None]
        for qv in qs:
            settings = base if qv is None else base.with_q(qv)
            count = int(ns.samples) if ns.samples else case.default_samples
            res = verify_identity(case, seed=seed, count=count,
                                  tol_override=tol_override, settings=settings)
            failures = []
            for f in res.failures:
                params = {k: (v.real if isinstance(v, complex) and v.imag == 0 else v)
                          for k, v in f.point.flat().items()}
                failures.append({"params": params, "residual": f.residual})
            records.append(
                ReportRecord(
                    id=case.id,
                    anchor=case.anchor,
                    q=qv,
                    samples=res.samples,
                    max_rel_residual=res.max_rel_residual,
                    passed=res.passed,
                    wall_time_ms=res.wall_time * 1000.0,
                    failures=failures,
                )
            )
    return records


def _render(records: list[ReportRecord], fmt: str) -> str:
    if fmt == "json":
        return "\n".join(json.dumps(r.to_json_dict(), sort_keys=True) for r in records) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["id", "anchor", "q", "samples", "max_rel_residual", "pass",
                         "wall_time_ms", "failures"])
        for r in records:
            label = r.id if r.q is None else f"{r.id}@q={r.q}"
            writer.writerow([label, r.anchor, r.q, r.samples,
                             f"{r.max_rel_residual:.6e}", r.passed,
                             f"{r.wall_time_ms:.1f}", len(r.failures)])
        return buf.getvalue()
    lines = []
    for r in records:
        label = r.id if r.q is None else f"{r.id}@q={r.q}"
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{status}  {label:<28} {r.anchor:<26} residual {r.max_rel_residual:.3e}"
            f"  ({r.samples} samples, {r.wall_time_ms:.0f} ms)"
        )
    return "\n".join(lines) + "\n"


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify(ns) -> int:
    records = _run_verification(ns)
    _emit(_render(records, ns.format), ns.output)
    return 0 if all(r.passed for r in records) else 1


def _cmd_list(ns) -> int:
    registry = builtin_registry()
    if ns.format == "json":
        rows = [
            {"id": c.id, "anchor": c.anchor, "cost_class": c.cost_class, "tol": c.tol}
            for c in registry
        ]
        _emit("\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n", ns.output)
        return 0
    lines = [
        f"{c.id:<28} {c.anchor:<28} {c.cost_class:<16} tol {c.tol:.0e}"
        for c in registry
    ]
    _emit("\n".join(lines) + "\n", ns.output)
    return 0


def _cmd_report(ns) -> int:
    with open(ns.input) as fh:
        records = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            try:
                records.append(
                    ReportRecord(
                        id=d["id"], anchor=d["anchor"], q=d["q"], samples=d["samples"],
                        max_rel_residual=d["max_rel_residual"], passed=d["pass"],
                        wall_time_ms=d["wall_time_ms"], failures=d["failures"],
                    )
                )
            except KeyError as exc:
                raise SaranFKError(f"report record lacks the field {exc}") from exc
    _emit(_render(records, ns.format), ns.output)
    return 0 if all(r.passed for r in records) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saranfk",
        description="Evaluate F_K-type hypergeometric functions and verify their integral identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a function at a point")
    pe.add_argument("function", help=f"one of: {', '.join(EVAL_FUNCTIONS)}")
    for flag in ("a", "b", "c", "z", "x", "y", "a1", "a2", "b1", "b2", "c1", "c2",
                 "alpha1", "alpha2", "beta1", "beta2", "gamma1", "gamma2", "gamma3", "ell"):
        pe.add_argument(f"--{flag}", default=None)
    pe.add_argument("--upper", default=None, help="comma list of upper parameters")
    pe.add_argument("--lower", default=None, help="comma list of lower parameters")
    pe.add_argument("--cc", default=None, help="comma list of denominators (fk_L)")
    pe.add_argument("--zs", default=None, help="comma list of arguments (fk_L)")
    pe.add_argument("--spec-json", default=None, help="phi3 parameter groups as JSON")
    pe.add_argument("--measure", default=None)
    pe.add_argument("--params", default=None, help="comma list of measure parameters")
    pe.add_argument("--q", action="append", default=None)
    pe.add_argument("--tol", default=None)
    pe.set_defaults(func=_cmd_eval)

    pv = sub.add_parser("verify", help="verify identities and emit a report")
    pv.add_argument("--identities", default="all")
    pv.add_argument("--seed", default="42")
    pv.add_argument("--samples", default=None)
    pv.add_argument("--tol", default=None)
    pv.add_argument("--q", action="append", default=None, help="repeatable q value for q-identities")
    pv.add_argument("--format", choices=("json", "csv", "human"), default="human")
    pv.add_argument("--output", default=None)
    pv.set_defaults(func=_cmd_verify)

    pl = sub.add_parser("list", help="print the identity registry")
    pl.add_argument("--format", choices=("json", "csv", "human"), default="human")
    pl.add_argument("--output", default=None)
    pl.set_defaults(func=_cmd_list)

    pr = sub.add_parser("report", help="re-render a saved json-lines report")
    pr.add_argument("input")
    pr.add_argument("--format", choices=("json", "csv", "human"), default="human")
    pr.add_argument("--output", default=None)
    pr.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return ns.func(ns)
    except SaranFKError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
