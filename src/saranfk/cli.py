"""Command-line front end.

Subcommands:
  eval     evaluate one function at a point
  verify   run identity verifications and emit a report
  list     print the identity registry
  report   re-render a saved json-lines report

The eval functions and their engines are the EVAL table, in the order the
help text lists them.  Number options must be finite, every --q must lie in
(0, 1), and a non-finite result is an error, never a printed value.

A verification record is a plain dict with the RECORD_FIELDS keys, the object
of one json line; verify renders the records it builds and report the ones it
reads through the same code, so both print the same bytes in every format.

Exit codes: 0 success / all identities pass, 1 verification failure,
2 usage or configuration error (domain violations, unknown ids, bad flags).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import sys

from .core import QContext, q_beta, q_gamma, sp
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
from .registry import EvalSettings, builtin_registry, registry_lookup, verify_identity
from .series import FkParams, appell_f2, fk_L, gauss_2f1, hyper_pfq, saran_fk_reexpand


# The fields of one verification record, in csv column order.
RECORD_FIELDS = ("id", "anchor", "q", "samples", "max_rel_residual", "pass", "wall_time_ms", "failures")


def _finite(raw: str, name: str) -> float:
    val = float(raw)
    if not math.isfinite(val):
        raise SaranFKError(f"eval: --{name} must be finite, got {raw}")
    return val


def _fval(ns, name: str) -> float:
    raw = getattr(ns, name)
    if raw is None:
        raise SaranFKError(f"eval: missing required option --{name}")
    return _finite(raw, name)


def _fvals(ns, *names: str) -> list[float]:
    return [_fval(ns, name) for name in names]


def _flist(ns, name: str) -> list[float]:
    """A comma-list option; absent or empty counts as missing."""
    raw = getattr(ns, name)
    if not raw:
        raise SaranFKError(f"eval: missing required option --{name}")
    return [_finite(v, name) for v in raw.split(",") if v.strip() != ""]


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


def _fk(ns) -> FkParams:
    return FkParams(*_fvals(ns, "alpha1", "alpha2", "beta1", "beta2", "gamma1", "gamma2", "gamma3"))


def _phi3(ns, ctx, tol):
    if not ns.spec_json:
        raise SaranFKError("phi3 needs --spec-json with the parameter groups")
    groups = json.loads(ns.spec_json)
    if not isinstance(groups, dict):
        raise SaranFKError("phi3 --spec-json must be a JSON object of parameter groups")
    spec = Phi3Spec(**{k: tuple(v) for k, v in groups.items()})
    return phi3(spec, *_fvals(ns, "x", "y", "z"), ctx, tol)


def _moment(ns, kinds: dict, integrate, **kw):
    """Moment of order --ell of the --measure named in kinds, built from --params."""
    params = _flist(ns, "params")
    ell = _order(ns)
    if ns.measure not in kinds:
        raise SaranFKError(f"{ns.function} needs --measure {'|'.join(kinds)}")
    return integrate(kinds[ns.measure](*params, **kw), ell)


# Function name -> engine call on the parsed options, the QContext of --q and
# the series tolerance.
EVAL = {
    "2f1": lambda ns, ctx, tol: gauss_2f1(*_fvals(ns, "a", "b", "c", "z"), tol),
    "pfq": lambda ns, ctx, tol: hyper_pfq(_flist(ns, "upper"), _flist(ns, "lower"), _fval(ns, "z"), tol),
    "f2": lambda ns, ctx, tol: appell_f2(*_fvals(ns, "a", "b1", "b2", "c1", "c2", "y", "z"), tol),
    "fk": lambda ns, ctx, tol: saran_fk_reexpand(_fk(ns), *_fvals(ns, "x", "y", "z"), tol),
    "fk_L": lambda ns, ctx, tol: fk_L(
        _fval(ns, "a1"), _fval(ns, "a2"), _flist(ns, "b"), _flist(ns, "cc"), _flist(ns, "zs"), tol),
    "phik": lambda ns, ctx, tol: phi_k_q(_fk(ns), *_fvals(ns, "x", "y", "z"), ctx, tol),
    # rphis takes an empty --lower: a series with no lower parameters.
    "rphis": lambda ns, ctx, tol: rphis(
        _flist(ns, "upper"), [] if ns.lower == "" else _flist(ns, "lower"), _fval(ns, "z"), ctx, tol),
    "phi3": _phi3,
    "qgamma": lambda ns, ctx, tol: q_gamma(_fval(ns, "x"), ctx),
    "qbeta": lambda ns, ctx, tol: q_beta(_fval(ns, "x"), _fval(ns, "y"), ctx),
    "measure-moment": lambda ns, ctx, tol: _moment(
        ns, {"dirichlet": DirichletMeasure, "hypergeometric": HypergeometricMeasure},
        lambda spec, ell: integrate_measure(lambda t: t**ell, spec, order=96)),
    "q-moment": lambda ns, ctx, tol: _moment(
        ns, {"qdirichlet": QDirichletMeasure, "qhypergeometric": QHypergeometricMeasure},
        q_moment, ctx=ctx),
}


def _cmd_eval(ns) -> int:
    fn = ns.function
    if fn not in EVAL:
        print(f"unknown function {fn!r}; choose from {', '.join(EVAL)}", file=sys.stderr)
        return 2
    tol = _tol(ns, 1e-12)
    qval = float(ns.q[0]) if ns.q else 0.5
    result = EVAL[fn](ns, QContext(q=qval), tol)
    value = getattr(result, "value", result)
    if not cmath.isfinite(value):
        raise SaranFKError(f"{fn} gave the non-finite value {value}")
    print(f"value: {value}")
    if hasattr(result, "value"):
        print(f"terms_used: {result.terms_used}")
        print(f"converged: {result.converged}")
        print(f"est_trunc_error: {result.est_trunc_error:.3e}")
    return 0


def _run_verification(ns) -> list[dict]:
    cases = builtin_registry() if ns.identities == "all" else [
        registry_lookup(cid.strip()) for cid in ns.identities.split(",")]
    seed = int(ns.seed)
    # QContext rejects a q outside (0, 1) before any identity runs.
    q_values = [QContext(q=float(q)).q for q in ns.q] if ns.q else [0.5]
    tol_override = _tol(ns, None)
    # `import saranfk` defers scipy; load it here, so that no record's time
    # holds the first import of scipy.special (read through sp) or LAPACK.
    sp.loggamma
    import scipy.linalg.lapack  # noqa: F401
    base = EvalSettings.default()
    records = []
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
            records.append(dict(zip(RECORD_FIELDS, (
                case.id, case.anchor, qv, res.samples, res.max_rel_residual, res.passed,
                res.wall_time * 1000.0, failures))))
    return records


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _render(records: list[dict], fmt: str) -> str:
    if fmt == "json":
        return "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
    labels = [r["id"] if r["q"] is None else f"{r['id']}@q={r['q']}" for r in records]
    if fmt == "csv":
        return _csv(RECORD_FIELDS, (
            [label, r["anchor"], r["q"], r["samples"], f"{r['max_rel_residual']:.6e}", r["pass"],
             f"{r['wall_time_ms']:.1f}", len(r["failures"])]
            for label, r in zip(labels, records)))
    return "\n".join(
        f"{'PASS' if r['pass'] else 'FAIL'}  {label:<28} {r['anchor']:<26}"
        f" residual {r['max_rel_residual']:.3e}  ({r['samples']} samples, {r['wall_time_ms']:.0f} ms)"
        for label, r in zip(labels, records)) + "\n"


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify(ns) -> int:
    records = _run_verification(ns)
    _emit(_render(records, ns.format), ns.output)
    return 0 if all(r["pass"] for r in records) else 1


def _cmd_list(ns) -> int:
    keys = ("id", "anchor", "cost_class", "tol")
    rows = [(c.id, c.anchor, c.cost_class, c.tol) for c in builtin_registry()]
    if ns.format == "csv":
        _emit(_csv(keys, rows), ns.output)
        return 0
    if ns.format == "json":
        lines = [json.dumps(dict(zip(keys, r)), sort_keys=True) for r in rows]
    else:
        lines = [f"{i:<28} {a:<28} {c:<16} tol {t:.0e}" for i, a, c, t in rows]
    _emit("\n".join(lines) + "\n", ns.output)
    return 0


def _cmd_report(ns) -> int:
    with open(ns.input) as fh:
        stored = [json.loads(line) for line in fh if line.strip()]
    try:
        records = [{k: d[k] for k in RECORD_FIELDS} for d in stored]
    except KeyError as exc:
        raise SaranFKError(f"report record lacks the field {exc}") from exc
    _emit(_render(records, ns.format), ns.output)
    return 0 if all(r["pass"] for r in records) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saranfk",
        description="Evaluate F_K-type hypergeometric functions and verify their integral identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a function at a point")
    pe.add_argument("function", help=f"one of: {', '.join(EVAL)}")
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
