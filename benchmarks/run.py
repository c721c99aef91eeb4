"""Benchmark launcher for saranfk; run from the root of a source checkout.

    python3 benchmarks/run.py --workload verify --seed 1 --seconds 30 --trace 0

Pins the environment for every process it starts: SARANFK_DEFAULT_ORDER is
unset, BLAS and OpenMP threads are capped at the CPUs this process may use,
and saranfk is imported from ./src.  It then measures set-up time in fresh
interpreters, runs the workload in one fresh worker process, and prints the
figures as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A copy with the environment record goes to benchmarks/out/.  Exits with
status 2, printing no figures, when the checkout has no saranfk sources or
the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5
# Every run must end within 180 s.
DEADLINE_S = 170.0
# CPU time of the main thread for the given statements in a fresh
# interpreter that has loaded nothing else.
SETUP_CODE = """
import time
start = time.thread_time()
{}
print(time.thread_time() - start)
"""
SETUP_TIMED = "import saranfk\nsaranfk.builtin_registry()"
# The third-party modules saranfk loads on import: the host-speed reference
# of set-up, timed alike, and its CPU time on a quiet 2-core x86 host.
SETUP_REFERENCE = "import numpy\nimport scipy.special"
SETUP_REFERENCE_S = 0.32


def pinned_env(src: Path, nproc: int) -> dict:
    env = dict(os.environ)
    env.pop("SARANFK_DEFAULT_ORDER", None)
    for var in THREAD_VARS:
        env[var] = str(nproc)
    env["PYTHONPATH"] = str(src)
    return env


def setup_seconds(env: dict, cwd: Path, timeout: float) -> tuple[float, dict]:
    """Set-up time at the reference host speed, and the CPU times behind it.

    Each repeat times, in fresh interpreters, the main thread's CPU time for
    importing saranfk and building the registry, and then for importing
    saranfk's third-party modules alone.  Set-up is the median ratio of the
    two times SETUP_REFERENCE_S.  One untimed start of each first compiles
    the bytecode.

    On a shared host the wall time of the same set-up moves by a third with
    the neighbours' load, and its CPU time by up to a fifth; no pure-Python
    probe tracked either.  The ratio to the reference import moved by 0.02.
    """
    def cpu_s(statements: str) -> float:
        out = subprocess.run([sys.executable, "-c", SETUP_CODE.format(statements)], env=env,
                             cwd=cwd, capture_output=True, text=True, timeout=timeout, check=True)
        return float(out.stdout)

    cpu_s(SETUP_TIMED)
    cpu_s(SETUP_REFERENCE)
    pairs = [(cpu_s(SETUP_TIMED), cpu_s(SETUP_REFERENCE)) for _ in range(SETUP_REPEATS)]
    raw = {"cpu_s": statistics.median(t for t, _ in pairs),
           "reference_cpu_s": statistics.median(r for _, r in pairs)}
    return statistics.median(t / r for t, r in pairs) * SETUP_REFERENCE_S, raw


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify", "engine-mix"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    start = time.monotonic()
    root = Path.cwd()
    src = root / "src"
    if not (src / "saranfk" / "__init__.py").is_file():
        print(f"benchmark: no saranfk sources under {src}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = pinned_env(src, nproc)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        setup_s, setup_raw = (None, None) if args.trace else setup_seconds(env, root, DEADLINE_S)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--trace-out", str(out_dir / f"{stem}.trace.json")]
        worker = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                                timeout=max(1.0, DEADLINE_S - (time.monotonic() - start)))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        if getattr(exc, "stderr", None):
            print(exc.stderr, file=sys.stderr)
        return 2
    sys.stderr.write(worker.stderr)
    if worker.returncode != 0:
        print(f"benchmark: worker exited with status {worker.returncode}", file=sys.stderr)
        return 2
    report = json.loads(worker.stdout.strip().splitlines()[-1])

    metrics = report["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = (setup_s, "s")
        report["raw"]["setup"] = setup_raw
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    env_record = {**report["env"], "nproc": nproc,
                  "threads": {v: env[v] for v in THREAD_VARS}}
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump({"args": vars(args), "env": env_record, "selftest": report["selftest"],
                   **result, "failed_kinds": report["failed_kinds"], "raw": report["raw"],
                   "diagnostics": report["diagnostics"]},
                  fh, indent=1)
    print(json.dumps({"env": env_record, "selftest": report["selftest"], "raw": report["raw"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
