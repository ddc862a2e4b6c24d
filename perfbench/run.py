"""qbdesign benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from `src/`;
there is nothing to build.  Workloads (see workloads.py and
baseline.json for why each was chosen):

    optimize-first-order   optimize 12x14, pi1 = 0.1
    optimize-second-order  optimize 24x7 --order 2, pi1 = 0.8, pi2 = 0.5
    project                project on seeded isomorphs of case4.d1/d3/d6 and had16 (f = 3)
    evaluate               evaluate a seeded random batch, sweep, theory, fixtures check

With --trace 0 the last line holds the end-to-end metrics:

    setup_s      median over SETUP_PROBES fresh processes of the time from
                 spawn to ready (interpreter start, import, input generation)
    wall_s.best  one pass over the workload's CLI calls, each call at its
                 fastest over the timed passes
    work_per_s   units of work per pass over wall_s.best: restarts, models
                 scored, or designs evaluated
    peak_rss_mb  peak resident memory of the workload's process

setup_s and wall_s.best are scaled to the speed of the baseline machine:
multiplied by reference.REF_S over the fastest time of reference.run() in
the same run.  On a 2-vCPU x86_64 VM shared with other tenants the speed
of a core drifts by 20-60% over minutes; unscaled, best-call times spread
by up to 0.48 (interquartile range over median) across ten runs, and
median pass times by up to 0.41.

The line before it is a JSON object of details: the pinned environment,
the unscaled times (best pass, median pass, and the highest percentile
of pass time with at least ten passes beyond it, with the pass count),
the scale, per-call best times, and any problems found.

With --trace 1 the last line holds the per-layer metrics of a separate
traced run (see tracing.py); spans go to .perfbench_out/.

The workload runs in one child process with one BLAS/OpenMP thread,
QBDESIGN_THREADS unset and `--threads 1` on every call that takes it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("optimize-first-order", "optimize-second-order", "project", "evaluate")
SETUP_PROBES = 7
DEADLINE_S = 170
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("QBDESIGN_THREADS", "PYTHONPATH")}
    env.update(PINNED)
    return env


def worker_cmd(args, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def setup_time(args, env) -> float:
    """Seconds from spawning a fresh worker until it reports ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(worker_cmd(args, "--setup-only"), env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


def environment() -> dict:
    code = ("import json, numpy; c = numpy.show_config(mode='dicts')['Build Dependencies'];"
            "print(json.dumps({'numpy': numpy.__version__,"
            " 'blas': {k: c['blas'].get(k) for k in ('name', 'version', 'openblas configuration')}}))")
    probe = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                           text=True, timeout=60, check=True)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "pinned_env": PINNED,
        **json.loads(probe.stdout),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "qbdesign" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print(f"error: {root} holds no qbdesign source or no BENCHMARK.json;"
              " run from the repo root", file=sys.stderr)
        return 2
    start = time.perf_counter()
    env = child_env()
    detail = {"workload": args.workload, "seed": args.seed, "env": environment()}
    metrics = {}
    if not args.trace:
        setup_time(args, env)  # unmeasured: compiles bytecode, warms the page cache
        probes = [setup_time(args, env) for _ in range(SETUP_PROBES)]
        detail["setup_probes_s"] = probes
    budget = DEADLINE_S - (time.perf_counter() - start)
    proc = subprocess.run(worker_cmd(args, "--seconds", str(args.seconds), "--trace", str(args.trace)),
                          env=env, capture_output=True, text=True, timeout=budget)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    metrics.update(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(probes) * result["scale"]
    detail.update(result["detail"], problems=result["problems"])
    declared = json.loads((root / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    detail["failed_ratio"] = result["failed"] / result["attempted"]
    print(json.dumps(detail))
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared[section]
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
