"""Command-line interface: evaluate, optimize, sweep, project, theory, fixtures."""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import fixtures as fixture_registry
from .criteria import (
    Prior,
    as_efficiency,
    es2,
    qb_from_word_counts,
    ue_s2,
)
from .design import (
    Design,
    ModelOrder,
    balance_profile,
    load_design,
    parse_design,
    save_design,
)
from .errors import QbDesignError
from .optimizer import OptimizerConfig, multi_restart
from .projection import projection_report
from .theory import balance_intervals, qb_block_value, verify_block_pattern
from .wordcounts import subset_diagnostics, word_counts


def _fmt(x: float, table: bool = False) -> str:
    return f"{x:.3f}" if table else f"{x:.6g}"


def _order(arg: int) -> ModelOrder:
    return ModelOrder.FIRST_ORDER if arg == 1 else ModelOrder.SECOND_ORDER


def _default_threads() -> int:
    try:
        return max(1, int(os.environ.get("QBDESIGN_THREADS", "1")))
    except ValueError:
        return 1


def _load(path: str) -> Design:
    """Read a design from a file, stdin ("-"), or the corpus ("fixture:<id>")."""
    if path == "-":
        return parse_design(sys.stdin.read())
    if path.startswith("fixture:"):
        f = fixture_registry.load_fixture(path[len("fixture:"):])
        if f.design is None:
            raise QbDesignError(f"fixture {f.id} has no design, only an X'X listing")
        return f.design
    return load_design(path)


def cmd_evaluate(args) -> int:
    d = _load(args.design)
    order = _order(args.order)
    prior = Prior(args.pi1, args.pi2, order)
    k_max = min(2 if order is ModelOrder.FIRST_ORDER else 4, d.factors)
    w = word_counts(d, k_max)
    prof = balance_profile(d)
    tf = args.table_format
    print(f"design: {args.design} (N={d.runs}, m={d.factors})")
    print(
        f"level-balanced factors: {prof.n_balanced}/{d.factors}"
        f" (imbalances: {' '.join(str(v) for v in prof.imbalances)})"
    )
    for k in range(1, k_max + 1):
        print(f"b{k} = {w.b(k)} ({_fmt(w.b_float(k), tf)})")
    qb = qb_from_word_counts(w, prior, d.factors)
    if order is ModelOrder.FIRST_ORDER:
        label = f"first-order, pi1={_fmt(args.pi1)}"
    else:
        label = f"second-order, pi1={_fmt(args.pi1)}, pi2={_fmt(args.pi2)}"
    print(f"QB({label}) = {_fmt(qb, tf)}")
    if d.factors >= 2:
        e = es2(d)
        print(f"E(s2) = {_fmt(e.value, tf)} (b1_zero={'yes' if e.b1_zero else 'no'})")
    print(f"UE(s2) = b1+b2 = {ue_s2(d)}")
    a = as_efficiency(d)
    print(f"As(main effects) = {'not estimable' if a is None else _fmt(a, tf)}")
    if args.subsets:
        for line in subset_diagnostics(d, args.subsets):
            print(line)
    return 0


def cmd_optimize(args) -> int:
    order = _order(args.order)
    cfg = OptimizerConfig(
        runs=args.runs,
        factors=args.factors,
        prior=Prior(args.pi1, args.pi2, order),
        restarts=args.restarts,
        seed=args.seed,
        max_stale_sweeps=args.stale_sweeps,
        epsilon=args.epsilon,
        tiebreak_as=not args.no_tiebreak_as,
    )
    res = multi_restart(cfg, threads=args.threads)
    if args.progress:
        for st in res.restart_log:
            print(
                f"restart={st.seed} seed={cfg.seed} qb={_fmt(st.qb)} sweeps={st.sweeps}",
                file=sys.stderr,
            )
    print(f"best QB = {_fmt(res.qb)}")
    bs = " ".join(f"b{k}={res.word_counts.b(k)}" for k in range(1, res.word_counts.k_max + 1))
    print(f"word counts: {bs}")
    print(f"level-balanced factors: {res.n_level_balanced}/{args.factors}")
    a = res.as_main
    print(f"As(main effects) = {'not estimable' if a is None else _fmt(a)}")
    if args.output:
        save_design(res.best, args.output)
        print(f"design written to {args.output}")
    else:
        sys.stdout.write("\n".join(" ".join(str(v) for v in row) for row in res.best.entries) + "\n")
    return 0


def _grid(lo: float, hi: float, step: float) -> list[float]:
    """Points lo + i*step up to hi; the count comes from the decimal values
    as typed, so float error neither adds a point past hi nor drops hi."""
    if not (math.isfinite(step) and step > 0) or not 0 <= lo < hi <= 1:
        raise QbDesignError("need 0 <= lo < hi <= 1 and step > 0")
    n = int((Fraction(repr(hi)) - Fraction(repr(lo))) / Fraction(repr(step)))
    return [min(lo + i * step, hi) for i in range(n + 1)]


def cmd_sweep(args) -> int:
    if len(args.designs) < 2:
        raise QbDesignError("sweep compares designs; pass at least two paths")
    designs = [_load(p) for p in args.designs]
    names = []
    for p in args.designs:
        stem = p[len("fixture:"):] if p.startswith("fixture:") else Path(p).stem
        while stem in names:
            stem += "+"
        names.append(stem)
    order = _order(args.order)
    k_max = 2 if order is ModelOrder.FIRST_ORDER else 4
    counts = [word_counts(d, min(k_max, d.factors)) for d in designs]
    pi1_grid = _grid(args.lo, args.hi, args.step)
    two_d = args.pi2_lo is not None
    if two_d:
        if order is ModelOrder.FIRST_ORDER:
            raise QbDesignError("a pi2 grid needs --order 2")
        pi2_grid = _grid(args.pi2_lo, args.pi2_hi, args.pi2_step)
    else:
        pi2_grid = [args.pi2]
    # every prior is checked before the header, so bad input prints no CSV
    priors = [[Prior(pi1, pi2, order) for pi2 in pi2_grid] for pi1 in pi1_grid]
    header = (["pi1", "pi2"] if two_d else ["pi1"])
    header += [f"qb:{n}" for n in names] + [f"releff:{n}" for n in names]
    print(",".join(header))
    prev_argmin = None
    for row_priors in priors:
        for prior in row_priors:
            pi1, pi2 = prior.pi1, prior.pi2
            qbs = [
                qb_from_word_counts(w, prior, d.factors)
                for w, d in zip(counts, designs)
            ]
            qmin = min(qbs)
            argmin = qbs.index(qmin)
            rel = [1.0 if q == qmin else (qmin / q if q > 0 else 1.0) for q in qbs]
            row = [f"{pi1:.6g}"] + ([f"{pi2:.6g}"] if two_d else [])
            row += [f"{q:.6g}" for q in qbs] + [f"{r:.6g}" for r in rel]
            print(",".join(row))
            if prev_argmin is not None and argmin != prev_argmin:
                at = f"pi1={pi1:.6g}" + (f" pi2={pi2:.6g}" if two_d else "")
                print(
                    f"argmin change at {at}: {names[prev_argmin]} -> {names[argmin]}",
                    file=sys.stderr,
                )
            prev_argmin = argmin
    return 0


def cmd_project(args) -> int:
    if args.t_max is not None and args.t_max < 1:
        raise ValueError(f"--t-max must be >= 1, got {args.t_max}")
    d = _load(args.design)
    t_values = None
    if args.t_max is not None:
        t_values = {f: range(1, args.t_max + 1) for f in args.f}
    rep = projection_report(d, args.f, t_values)
    sys.stdout.write(rep.to_csv())
    return 0


def cmd_theory(args) -> int:
    bi = balance_intervals(args.runs, args.factors)
    print(f"N={args.runs} m={args.factors}: {bi.k} intervals")
    for lo, hi, nlb, lb in bi.intervals():
        print(f"  pi1 in ({lo}, {hi}]: non-level-balanced={nlb} level-balanced={lb}")
    if args.pi1 is not None:
        nlb, lb = bi.split_for(args.pi1)
        val = qb_block_value(args.runs, args.factors, lb, args.pi1)
        print(
            f"pi1={_fmt(args.pi1)}: optimal split non-level-balanced={nlb}"
            f" level-balanced={lb} QB={_fmt(val)}"
        )
    if args.design:
        rep = verify_block_pattern(_load(args.design))
        print(
            f"pattern match: {'yes' if rep.matches else 'no'}"
            f" (level-balanced={rep.n_level_balanced},"
            f" non-level-balanced={rep.n_non_level_balanced},"
            f" block signs {rep.block_signs[0]}/{rep.block_signs[1]})"
        )
        for i, j, v in rep.violations:
            print(f"  violation: a[{i},{j}] = {v}")
    return 0


def cmd_fixtures(args) -> int:
    if args.action == "list":
        for fid in fixture_registry.list_fixtures():
            f = fixture_registry.load_fixture(fid)
            parts = [f"N={f.runs}", f"m={f.factors}", f"order={f.order.value}"]
            if f.design is not None:
                parts.append("design")
            if f.expected_xtx is not None:
                parts.append("xtx")
            if f.expected_b:
                parts.append(
                    " ".join(f"b{k}={v}" for k, v in sorted(f.expected_b.items()))
                )
            print(f"{fid}: {' '.join(parts)} -- {f.source}")
        return 0
    ids = [args.id] if args.id else fixture_registry.list_fixtures()
    failures = 0
    for fid in ids:
        f = fixture_registry.load_fixture(fid)
        for name, ok, detail in fixture_registry.check_fixture(f):
            status = "pass" if ok else "FAIL"
            print(f"{fid} {name}: {status} ({detail})")
            failures += 0 if ok else 1
    if failures:
        print(f"{failures} fixture check(s) failed", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qbdesign",
        description="Evaluate and construct two-level screening designs under the QB criterion.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="criteria report for a design file")
    p.add_argument("design")
    p.add_argument("--order", type=int, choices=(1, 2), default=1)
    p.add_argument("--pi1", type=float, required=True)
    p.add_argument("--pi2", type=float, default=0.0)
    p.add_argument("--table-format", action="store_true", help="3-decimal table output")
    p.add_argument("--subsets", type=int, metavar="K", help="dump per-subset J diagnostics for size K")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("optimize", help="multi-restart coordinate exchange")
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--factors", type=int, required=True)
    p.add_argument("--order", type=int, choices=(1, 2), default=1)
    p.add_argument("--pi1", type=float, required=True)
    p.add_argument("--pi2", type=float, default=0.0)
    p.add_argument("--restarts", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=1e-9)
    p.add_argument("--stale-sweeps", type=int, default=2)
    p.add_argument("--no-tiebreak-as", action="store_true")
    p.add_argument("--output", "-o")
    p.add_argument("--threads", type=int, default=_default_threads())
    p.add_argument("--progress", action="store_true", help="per-restart log on stderr")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("sweep", help="QB over a pi1 (and optional pi2) grid (CSV)")
    p.add_argument("designs", nargs="+")
    p.add_argument("--lo", type=float, default=0.1)
    p.add_argument("--hi", type=float, default=0.8)
    p.add_argument("--step", type=float, default=0.001)
    p.add_argument("--order", type=int, choices=(1, 2), default=1)
    p.add_argument("--pi2", type=float, default=0.0, help="fixed pi2 (order 2)")
    p.add_argument("--pi2-lo", type=float)
    p.add_argument("--pi2-hi", type=float, default=0.8)
    p.add_argument("--pi2-step", type=float, default=0.1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("project", help="projection estimability report (CSV)")
    p.add_argument("design")
    p.add_argument("--f", type=int, nargs="+", required=True)
    p.add_argument("--t-max", type=int)
    p.add_argument(
        "--threads",
        type=int,
        default=_default_threads(),
        help="accepted for compatibility; has no effect (scoring is batched in one process)",
    )
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("theory", help="level-balance interval table and pattern checks")
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--factors", type=int, required=True)
    p.add_argument("--pi1", type=float)
    p.add_argument("--design")
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("fixtures", help="list or check the bundled design corpus")
    p.add_argument("action", choices=("list", "check"))
    p.add_argument("id", nargs="?")
    p.set_defaults(func=cmd_fixtures)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (QbDesignError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
