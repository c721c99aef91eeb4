"""Runs one workload in a fresh process and prints its figures as one JSON line.

Started by run.py, which pins the environment and adds set-up time.  Untraced
(--trace 0) it reports the end-to-end figures and the raw times behind them;
traced (--trace 1) it reports the per-layer figures of traced passes over
both workloads, plus the tracing overhead on the named workload.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from collections import Counter

import mpmath
import numpy as np
import scipy

import saranfk
import workloads as wl
from probe import PROBE_REF_S
from selftest import run_selftest
from tracing import Tracer

WORKLOADS = ("verify", "engine-mix")
# Sampler seed of `saranfk verify` and of `verify_identity`: the verdict the
# library reports.  Its inputs are the same in every run, costly tail points
# included (its slowest `fa-erdelyi` point takes over a second on a 2-core
# x86 host), so its wall time moves with their cost and not with the seed.
VERDICT_SEED = 42
# Length of one verify pass on a 2-core x86 host.  A verify run makes
# round(seconds / length) passes: the verdict, then passes over distinct
# input sets drawn from its seed, so its inputs depend only on the seed and
# the run length.
NOMINAL_PASS_S = 13.5
# Length of one engine-mix pass on a 2-core x86 host, building its input set
# and references included.  An engine-mix run makes round(seconds / length)
# measured passes, so its inputs, and so the calls that fail, depend only on
# the seed and the run length, never on the machine's speed.
NOMINAL_ENGINE_PASS_S = 2.2
# Engine-mix passes of a traced run, untraced and traced on engine-mix.
TRACE_ENGINE_SETS = 5
# Ops on either side of an op whose probes set its speed (see `scaled_ops`).
PROBE_WINDOW = 5


def engine_calls(seed: int, index: int) -> list[wl.EngineCall]:
    return wl.build_engine_calls(wl.pass_seed(seed, index))


def measure_verify(units, seed: int, seconds: float):
    """The verdict pass and the passes over drawn input sets; all are
    measured."""
    count = max(1, round(seconds / NOMINAL_PASS_S))
    verdict = wl.run_verify_pass(units, VERDICT_SEED)
    drawn = [wl.run_verify_pass(units, wl.pass_seed(seed, i)) for i in range(1, count)]
    return [verdict] + drawn, [verdict] + drawn, scaled_wall(verdict)


def measure_engine(seed: int, seconds: float):
    """Engine-mix passes filling about `seconds` after a warm-up pass, each
    over a fresh input set, so the rule caches help only as they would in
    use.  Building an input set and its references, and checking the
    results, is not timed: a pass's time is the sum of its calls."""
    count = max(1, round(seconds / NOMINAL_ENGINE_PASS_S))
    warm = wl.run_engine_pass(engine_calls(seed, 0))
    measured = [wl.run_engine_pass(engine_calls(seed, i)) for i in range(1, count + 1)]
    wall_s = statistics.fmean(float(scaled_ops(p).sum()) for p in measured)
    return [warm] + measured, measured, wall_s


def by_kind(kinds, seconds) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for kind, secs in zip(kinds, seconds):
        out.setdefault(kind, []).append(secs)
    return out


def scaled_ops(p: wl.PassResult) -> np.ndarray:
    """Op times of a pass at the reference host speed.

    On a shared host the CPU alternates between full and reduced speed every
    few milliseconds, and the reduced share drifts over tens of seconds, so
    a whole run can be 1.5x slower than the next.  The probe after each op
    slows down with it.  Each op is scaled by the probe's reference time
    over the median of the probes after it and after the PROBE_WINDOW ops on
    either side, so an op of seconds is scaled by the speed of its own
    stretch of the pass.  Over six runs of the verdict on a 2-core x86 host
    this cut the spread of its wall time from 0.14 to 0.07 of its median.
    """
    probes = np.asarray(p.probe_s)
    local = np.array([np.median(probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
                      for i in range(len(probes))])
    return np.asarray(p.op_s) * PROBE_REF_S / local


def scaled_wall(p: wl.PassResult) -> float:
    """Wall time of a pass, scaled as its ops are."""
    return p.wall_s * float(scaled_ops(p).sum()) / sum(p.op_s)


def end_to_end(measured, wall_s: float) -> tuple[dict, dict, dict]:
    """End-to-end metrics in probe-scaled units, and the raw figures behind
    them."""
    op_s = [s for p in measured for s in scaled_ops(p)]
    raw = [s for p in measured for s in p.op_s]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (wall_s, "s"),
        "op_ms_p50": (wl.quantile_ms(op_s, 50), "ms"),
        "op_ms_p90": (wl.quantile_ms(op_s, 90), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    raw_figures = {
        "ops": len(raw),
        "pass_wall_s": [p.wall_s for p in measured],
        "op_ms": {f"p{q}": wl.quantile_ms(raw, q) for q in (50, 90)},
    }
    diagnostics = {
        "probe_ms": {f"p{q}": wl.quantile_ms([s for p in measured for s in p.probe_s], q)
                     for q in (10, 50, 90)},
        "op_ms": {f"p{q}": wl.quantile_ms(op_s, q) for q in (50, 75, 90, 95, 99)},
        "raw_op_ms": {f"p{q}": wl.quantile_ms(raw, q) for q in (50, 75, 90, 95, 99)},
    }
    return metrics, raw_figures, diagnostics


def traced(name: str, seed: int, cases, out_path: str):
    """Per-layer figures.  On verify, the verdict pass untraced twice and
    then traced.  On engine-mix, after a warm-up set, TRACE_ENGINE_SETS passes
    untraced, each followed by a traced one over another fresh set, so that
    both meet the rule caches and the host's drift alike; on verify only
    the first traced engine-mix pass runs.  The untraced engine-mix passes
    give the per-engine medians."""
    units = wl.verify_units(cases)
    sets = [engine_calls(seed, i) for i in range(2 * TRACE_ENGINE_SETS + 1)]
    passes = [wl.run_engine_pass(sets[0])]
    plain = {"verify": [], "engine-mix": []}
    walls = {"verify": [], "engine-mix": []}
    tracer = Tracer()

    def run_traced(workload: str, run) -> None:
        with tracer:
            span = tracer.open("workload", workload=workload)
            result = run()
            tracer.close(span)
        walls[workload].append(scaled_wall(result))
        passes.append(result)

    if name == "verify":
        # The first verdict pass of a process runs about 0.05 slower; the
        # traced pass is compared with a second one.
        passes.append(wl.run_verify_pass(units, VERDICT_SEED))
        plain["verify"].append(wl.run_verify_pass(units, VERDICT_SEED))
    run_traced("verify", lambda: wl.run_verify_pass(units, VERDICT_SEED, tracer))
    for i in range(TRACE_ENGINE_SETS):
        plain["engine-mix"].append(wl.run_engine_pass(sets[2 * i + 1]))
        if name == "engine-mix" or i == 0:
            run_traced("engine-mix", lambda s=sets[2 * i + 2]: wl.run_engine_pass(s, tracer))
    passes += plain["verify"] + plain["engine-mix"]
    tracer.dump(out_path)

    metrics = dict(tracer.layer_metrics())
    for key, ms in tracer.side_ms().items():
        metrics[key] = (ms, "ms")
    by_engine: dict[str, list[float]] = {}
    for p in plain["engine-mix"]:
        for engine, secs in by_kind(p.kinds, p.op_s).items():
            by_engine.setdefault(engine, []).extend(secs)
    for engine, secs in by_engine.items():
        metrics[f"engine.{engine}.ms_p50"] = (statistics.median(secs) * 1e3, "ms")
    untraced = statistics.fmean(scaled_wall(p) for p in plain[name])
    metrics["trace.overhead_frac"] = (statistics.fmean(walls[name]) / untraced - 1.0, "ratio")
    return passes, metrics, {}, {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", required=True)
    args = ap.parse_args(argv)

    cases = saranfk.builtin_registry()
    selftest_ok, selftest = run_selftest()
    if args.trace:
        passes, metrics, raw, diagnostics = traced(args.workload, args.seed, cases, args.trace_out)
    else:
        if args.workload == "verify":
            passes, measured, wall_s = measure_verify(wl.verify_units(cases), args.seed, args.seconds)
        else:
            passes, measured, wall_s = measure_engine(args.seed, args.seconds)
        metrics, raw, diagnostics = end_to_end(measured, wall_s)
    result = {
        "correct": selftest_ok and all(p.consistent for p in passes),
        "attempted": sum(len(p.op_s) for p in passes),
        "failed": sum(len(p.failed) for p in passes),
        "metrics": metrics,
        "selftest": selftest,
        "raw": raw,
        "failed_kinds": dict(Counter(k for p in passes for k in p.failed)),
        "diagnostics": diagnostics,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "mpmath": mpmath.__version__,
            "saranfk": saranfk.__file__,
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
