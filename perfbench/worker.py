"""One workload in one process: set up, print "ready", run passes, print a JSON result.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Run from the root of a checkout; `run.py` starts it with the pinned
environment.  Every CLI call goes through `qbdesign.cli.main(argv)` in this
process, with stdout and stderr captured.  A call fails if it raises,
returns non-zero, prints "error:", or its output fails its check.  The
first pass is a warm-up whose outputs are checked against the independent
oracles in checks.py; every later pass must print exactly what it printed.

With --trace 0 the run times untraced passes.  With --trace 1 it
alternates untraced and traced passes, derives the per-layer metrics from
the traced ones, and writes the spans to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import reference
import tracing
import workloads

ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench_out"
MAX_TRACED_PASSES = 5  # bounds the spans kept in memory
MAX_PROBLEMS = 20  # problems listed in the details; every failure is counted
# Counts that must repeat exactly, pass to pass and run to run at one seed.
EXACT_COUNTS = (
    "optimizer.delta_calls", "optimizer.flips", "optimizer.sweeps",
    "projection.models", "projection.eigvalsh_calls", "wordcounts.subsets",
)


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from qbdesign import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"qbdesign imported from {cli.__file__}, not from {src}")
    return cli


def run_call(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash counts as a failed call; the run goes on
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


class Runner:
    """Runs passes, times every call, checks every output and keeps the failure tally."""

    def __init__(self, cli, calls):
        self.cli = cli
        self.calls = [c for c in calls if not c.warmup_only]
        self.warmup_calls = calls
        self.reference: dict[str, tuple[str, list[str]]] = {}  # label -> (stdout, problems)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def warm_up(self) -> float:
        """One untimed pass, plus the warm-up-only calls, checked against the oracles.

        Returns the seconds its timed calls took."""
        times, _ = self.run_pass(self.warmup_calls)
        return sum(t for c, t in zip(self.warmup_calls, times) if not c.warmup_only)

    def run_pass(self, calls=None, tracer=None) -> tuple[list[float], list[str]]:
        """Seconds and stdout per call."""
        calls = self.calls if calls is None else calls
        gc.collect()
        results = []
        if tracer is not None:
            root = tracer.open(tracer.name_id("bench.pass"))
        for k, call in enumerate(calls):
            if tracer is not None:
                tracer.call_no = k
                idx = tracer.open(tracer.name_id(f"bench.call.{call.label}"))
            t0 = time.perf_counter()
            rc, out, err = run_call(self.cli, call.argv)
            results.append((time.perf_counter() - t0, rc, out, err))
            if tracer is not None:
                tracer.close(idx)
        if tracer is not None:
            tracer.close(root)
        for call, (_, rc, out, err) in zip(calls, results):
            self.attempted += 1
            problems = []
            if rc != 0 or "error:" in out or "error:" in err:
                problems.append(f"exit {rc}: {err.strip()[-300:]}")
            elif call.label not in self.reference:
                problems = call.check(out)
                self.reference[call.label] = (out, problems)
            elif out != self.reference[call.label][0]:
                problems.append("output differs from the first pass")
            else:  # the same output as the first pass gets the same verdict
                problems = self.reference[call.label][1]
            if problems:
                self.failed += 1
                if len(self.problems) < MAX_PROBLEMS:
                    self.problems.extend(f"{call.label}: {p}" for p in problems[:3])
        return [r[0] for r in results], [r[2] for r in results]


def best_pass(call_times: list[list[float]]) -> float:
    """Pass time with every call at its fastest over the passes run."""
    return sum(min(per_call) for per_call in zip(*call_times))


def output_counts(calls, outs: list[str]) -> dict[str, int]:
    """Counts read from the program's own output for one pass."""
    models = no_est = checks_run = 0
    for call, out in zip(calls, outs):
        if call.argv[0] == "project":
            for row in out.splitlines()[1:]:
                f = row.split(",")
                models += int(f[2])
                no_est += int(f[3])
        if call.argv[0] == "fixtures":
            checks_run += sum(1 for ln in out.splitlines() if ": pass (" in ln or ": FAIL (" in ln)
    return {
        "cli.output_bytes": sum(len(out.encode()) for out in outs),
        "projection.models": models,
        "projection.no_est": no_est,
        "fixtures.checks": checks_run,
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qbdesign").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_counts_repeat(workload: str, seed: int, counts: dict) -> list[str]:
    """Compare exact counts with an earlier traced run of the same source and seed."""
    path = OUT_DIR / f"counts-{workload}-seed{seed}-{source_digest()}.json"
    mine = {k: counts[k] for k in EXACT_COUNTS}
    if path.exists():
        before = json.loads(path.read_text())
        return [f"{k} was {before[k]} in an earlier run, now {mine[k]}"
                for k in EXACT_COUNTS if before.get(k) != mine[k]]
    path.write_text(json.dumps(mine, indent=1) + "\n")
    return []


def timed_run(runner: Runner, seconds: float, warmup_s: float) -> dict:
    """Times passes, with reference runs between them; times are scaled to the reference speed."""
    ref_reps = max(1, round(warmup_s / reference.REF_EVERY_S))
    ref_times: list[float] = []
    call_times: list[list[float]] = []
    start = time.perf_counter()
    while not call_times or time.perf_counter() - start < seconds:
        ref_times.extend(reference.run() for _ in range(ref_reps))
        call_times.append(runner.run_pass()[0])
    scale = reference.REF_S / min(ref_times)
    best = best_pass(call_times)
    pass_times = [sum(t) for t in call_times]
    tail, pct, n = tracing.tail(pass_times)
    return {
        "metrics": {
            "wall_s.best": best * scale,
            "work_per_s": sum(c.units for c in runner.calls) / (best * scale),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "scale": scale,
        "detail": {
            "speed_scale": scale, "ref_best_s": min(ref_times), "ref_runs": len(ref_times),
            "raw_wall_s.best": best, "raw_wall_s.p50": statistics.median(pass_times),
            "raw_wall_s.tail": tail, "tail_percentile": pct, "tail_beyond": 10 if pct < 100 else 0,
            "passes": n,
            "call_best_s": {c.label: min(t) for c, t in zip(runner.calls, zip(*call_times))},
            "pass_s": pass_times,
        },
    }


def traced_run(runner: Runner, seconds: float, workload: str, seed: int) -> dict:
    """Alternate untraced and traced passes: at least two traced, at most
    MAX_TRACED_PASSES, then untraced passes until the time is up."""
    tracer = tracing.Tracer()
    plain: list[list[float]] = []
    traced: list[list[float]] = []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        plain.append(runner.run_pass()[0])
        if len(traced) == MAX_TRACED_PASSES:
            continue
        tracer.pass_no = len(traced)
        restore = tracing.install(tracer)
        try:
            times, outs = runner.run_pass(tracer=tracer)
        finally:
            tracing.uninstall(restore)
        traced.append(times)
    groups: dict[str, list[int]] = {"had16": [], "case4": []}
    for k, call in enumerate(runner.calls):
        for g in groups:
            if call.label.startswith(g):
                groups[g].append(k)
    metrics, per_pass = tracing.layer_metrics(tracer, list(range(len(traced))), groups)
    metrics.update(output_counts(runner.calls, outs))
    metrics["trace.overhead"] = best_pass(traced) / best_pass(plain)
    problems = [f"{k} differs between traced passes: {[row[k] for row in per_pass]}"
                for k in EXACT_COUNTS if k in per_pass[0] and len({row[k] for row in per_pass}) > 1]
    problems += check_counts_repeat(workload, seed, metrics)
    span_file = OUT_DIR / f"trace-{workload}-seed{seed}.npz"
    tracer.save(span_file)
    return {
        "metrics": metrics,
        "problems": problems,
        "detail": {"traced_passes": len(traced), "untraced_passes": len(plain),
                   "spans": len(tracer.name), "span_file": str(span_file.relative_to(ROOT)),
                   "exact_counts": {k: metrics[k] for k in EXACT_COUNTS}},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    cli = import_program()
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT_DIR))
    try:
        calls = workloads.WORKLOADS[args.workload](args.seed, ROOT, tmp)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        runner = Runner(cli, calls)
        warmup_s = runner.warm_up()  # fills caches; outputs are checked against the oracles
        if args.trace:
            result = traced_run(runner, args.seconds, args.workload, args.seed)
        else:
            result = timed_run(runner, args.seconds, warmup_s)
        problems = runner.problems + result.pop("problems", [])
        result.update(attempted=runner.attempted, failed=runner.failed, problems=problems)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
