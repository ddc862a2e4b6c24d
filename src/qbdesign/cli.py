"""Command-line interface: evaluate, optimize, sweep, project, theory, fixtures."""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import fixtures as fixture_registry
from .criteria import (
    Prior,
    as_efficiency,
    es2,
    qb_coefficients,
    qb_from_word_counts,
    ue_s2,
)
from .design import (
    Design,
    ModelOrder,
    balance_profile,
    format_design,
    load_design,
    parse_design,
    save_design,
)
from .errors import QbDesignError
from .optimizer import OptimizerConfig, multi_restart
from .projection import projection_report
from .theory import balance_intervals, qb_block_value, verify_block_pattern
from .wordcounts import subset_diagnostics, word_counts


# Largest pi1 x pi2 grid `sweep` evaluates.  It bounds the run time only:
# the grid is evaluated and printed SWEEP_CHUNK_POINTS points at a time.
MAX_GRID_POINTS = 10**6
SWEEP_CHUNK_POINTS = 512


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _order(arg: int) -> ModelOrder:
    return ModelOrder.FIRST_ORDER if arg == 1 else ModelOrder.SECOND_ORDER


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
    if args.subsets is not None and not 1 <= args.subsets <= d.factors:
        raise QbDesignError(f"--subsets must be in 1..{d.factors}, got {args.subsets}")
    k_max = len(qb_coefficients(prior, d.factors))
    w = word_counts(d, k_max)
    prof = balance_profile(d)
    print(f"design: {args.design} (N={d.runs}, m={d.factors})")
    print(
        f"level-balanced factors: {prof.n_balanced}/{d.factors}"
        f" (imbalances: {' '.join(str(v) for v in prof.imbalances)})"
    )
    for k in range(1, k_max + 1):
        print(f"b{k} = {w.b(k)} ({_fmt(w.b_float(k))})")
    qb = qb_from_word_counts(w, prior, d.factors)
    if order is ModelOrder.FIRST_ORDER:
        label = f"first-order, pi1={_fmt(args.pi1)}"
    else:
        label = f"second-order, pi1={_fmt(args.pi1)}, pi2={_fmt(args.pi2)}"
    print(f"QB({label}) = {_fmt(qb)}")
    if d.factors >= 2:
        e = es2(d, w)
        print(f"E(s2) = {_fmt(e.value)} (b1_zero={'yes' if e.b1_zero else 'no'})")
    print(f"UE(s2) = b1+b2 = {ue_s2(d, w)}")
    a = as_efficiency(d)
    print(f"As(main effects) = {'not estimable' if a is None else _fmt(a)}")
    if args.subsets is not None:
        for line in subset_diagnostics(d, args.subsets):
            print(line)
    return 0


def _check_threads(args) -> None:
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")


def _check_writable(path: str) -> None:
    """Refuse an output path that cannot be written, before a long run rather than after."""
    target = Path(path)
    folder = target.parent
    if not folder.is_dir():
        raise QbDesignError(f"cannot write {path}: directory {folder} does not exist")
    if target.is_dir():
        raise QbDesignError(f"cannot write {path}: it is a directory")
    if not os.access(target if target.exists() else folder, os.W_OK):
        raise QbDesignError(f"cannot write {path}: permission denied")


def cmd_optimize(args) -> int:
    _check_threads(args)
    cfg = OptimizerConfig(
        runs=args.runs,
        factors=args.factors,
        prior=Prior(args.pi1, args.pi2, _order(args.order)),
        restarts=args.restarts,
        seed=args.seed,
    )

    if args.output:
        _check_writable(args.output)

    def progress(stats) -> None:
        for st in stats:
            print(
                f"restart={st.restart} seed={cfg.seed} qb={_fmt(st.qb)} sweeps={st.sweeps}",
                file=sys.stderr,
            )

    res = multi_restart(cfg, threads=args.threads, on_block=progress if args.progress else None)
    if args.output:
        save_design(res.best, args.output)
    print(f"best QB = {_fmt(res.qb)}")
    bs = " ".join(f"b{k}={res.word_counts.b(k)}" for k in range(1, res.word_counts.k_max + 1))
    print(f"word counts: {bs}")
    print(f"level-balanced factors: {res.n_level_balanced}/{args.factors}")
    a = res.as_main
    print(f"As(main effects) = {'not estimable' if a is None else _fmt(a)}")
    if args.output:
        print(f"design written to {args.output}")
    else:
        sys.stdout.write(format_design(res.best))
    return 0


def _grid_size(lo: float, hi: float, step: float, flag: str = "--") -> int:
    """Number of points lo + i*step up to hi; the count comes from the decimal
    values as typed, so float error neither adds a point past hi nor drops hi.
    An error names the axis's flags, {flag}lo, {flag}hi and {flag}step."""
    if not (math.isfinite(step) and step > 0) or not 0 <= lo < hi <= 1:
        raise QbDesignError(
            f"need 0 <= {flag}lo < {flag}hi <= 1 and {flag}step > 0,"
            f" got {flag}lo {lo}, {flag}hi {hi}, {flag}step {step}"
        )
    return int((Fraction(repr(hi)) - Fraction(repr(lo))) / Fraction(repr(step))) + 1


def _grid(lo: float, hi: float, step: float, start: int, stop: int) -> np.ndarray:
    """Points start..stop-1 of the grid, each the float min(lo + i*step, hi)."""
    return np.minimum(lo + np.arange(start, stop) * step, hi)


def _prior_chunks(args, pi1_size: int, pi2_axis: np.ndarray, order: ModelOrder):
    """The sweep grid as priors of a pi1 column by a pi2 row of at most
    SWEEP_CHUNK_POINTS points, in row-major order: whole pi1 rows, or pieces
    of one row when a row alone is longer than a chunk.  Each has a trailing
    axis of length 1, for the designs."""
    rows = max(1, SWEEP_CHUNK_POINTS // len(pi2_axis))
    cols = min(len(pi2_axis), SWEEP_CHUNK_POINTS)
    for r0 in range(0, pi1_size, rows):
        pi1 = _grid(args.lo, args.hi, args.step, r0, min(r0 + rows, pi1_size))
        for c0 in range(0, len(pi2_axis), cols):
            yield Prior(pi1[:, None, None], pi2_axis[None, c0 : c0 + cols, None], order)


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
    counts = [word_counts(d) for d in designs]
    factors = [d.factors for d in designs]
    pi1_size = _grid_size(args.lo, args.hi, args.step)
    two_d = args.pi2_lo is not None
    if two_d and order is ModelOrder.FIRST_ORDER:
        raise QbDesignError("a pi2 grid needs --order 2")
    pi2_size = _grid_size(args.pi2_lo, args.pi2_hi, args.pi2_step, "--pi2-") if two_d else 1
    if pi1_size * pi2_size > MAX_GRID_POINTS:
        raise QbDesignError(
            f"the pi1 x pi2 grid has more than {MAX_GRID_POINTS} points; use a coarser step"
        )
    if two_d:
        pi2_axis = _grid(args.pi2_lo, args.pi2_hi, args.pi2_step, 0, pi2_size)
    else:
        pi2_axis = np.array([args.pi2])
    # every pi1 lies in [lo, hi], so checking lo, hi and the pi2 axis checks
    # every prior of the grid before the header: bad input prints no CSV
    Prior(np.array([[args.lo], [args.hi]]), pi2_axis[None, :], order)
    header = (["pi1", "pi2"] if two_d else ["pi1"])
    header += [f"qb:{n}" for n in names] + [f"releff:{n}" for n in names]
    print(",".join(header))
    # every cell is "%.6g", a chunk at a time (see csvcells); imported here,
    # since only sweep prints cells in bulk
    from .csvcells import csv_rows

    prev_argmin = None
    for grid in _prior_chunks(args, pi1_size, pi2_axis, order):
        # every design's QB in one pass, on the chunk's trailing axis
        qbs = qb_from_word_counts(counts, grid, factors).reshape(-1, len(designs))
        pi1 = grid.pi1.ravel()
        pis = [np.repeat(pi1, len(qbs) // len(pi1))]
        if two_d:
            pis.append(np.tile(grid.pi2.ravel(), len(pi1)))
        qmin = qbs.min(axis=1, keepdims=True)
        rel = np.divide(qmin, qbs, out=np.ones_like(qbs), where=qbs != qmin)
        cells = np.column_stack([*pis, qbs, rel])
        # argmin is the first minimal design, as list.index gives it; each
        # change is reported right after its row, its point as its cells print
        argmin = qbs.argmin(axis=1)
        before = np.concatenate(([argmin[0] if prev_argmin is None else prev_argmin], argmin[:-1]))
        text = csv_rows(cells)
        changes = np.flatnonzero(argmin != before).tolist()
        # one format call a chunk, split into rows only if a change falls in it
        rows, done = text.splitlines(keepends=True) if changes else [text], 0
        for i in changes:
            sys.stdout.write("".join(rows[done : i + 1]))
            done = i + 1
            at = " ".join(f"{k}={v:.6g}" for k, v in zip(header, cells[i, : len(pis)].tolist()))
            print(f"argmin change at {at}: {names[before[i]]} -> {names[argmin[i]]}", file=sys.stderr)
        sys.stdout.write("".join(rows[done:]))
        prev_argmin = argmin[-1]
    return 0


def cmd_project(args) -> int:
    _check_threads(args)
    if args.t_max is not None and args.t_max < 1:
        raise ValueError(f"--t-max must be >= 1, got {args.t_max}")
    d = _load(args.design)
    rep = projection_report(d, args.f, args.t_max)
    sys.stdout.write(rep.to_csv())
    return 0


def cmd_theory(args) -> int:
    # everything that can fail runs before the first line is printed
    bi = balance_intervals(args.runs, args.factors)
    # the split follows the prior as typed: 0.1 is the endpoint 1/10, not the float above it
    pi1 = Fraction(repr(args.pi1)) if args.pi1 is not None and 0 < args.pi1 <= 1 else args.pi1
    split = bi.split_for(pi1) if pi1 is not None else None
    rep = None
    if args.design:
        d = _load(args.design)
        if (d.runs, d.factors) != (args.runs, args.factors):
            raise QbDesignError(
                f"design is {d.runs}x{d.factors}, but --runs/--factors give"
                f" {args.runs}x{args.factors}"
            )
        rep = verify_block_pattern(d)
    print(f"N={args.runs} m={args.factors}: {bi.k} intervals")
    for lo, hi, nlb, lb in bi.intervals():
        print(f"  pi1 in ({lo}, {hi}]: non-level-balanced={nlb} level-balanced={lb}")
    if split is not None:
        nlb, lb = split
        val = qb_block_value(args.runs, args.factors, lb, args.pi1)
        print(
            f"pi1={_fmt(args.pi1)}: optimal split non-level-balanced={nlb}"
            f" level-balanced={lb} QB={_fmt(val)}"
        )
    if rep is not None:
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
    manifest = fixture_registry.read_manifest()
    ids = [args.id] if args.id else fixture_registry.list_fixtures(manifest)
    selection = fixture_registry.load_fixtures(ids, manifest)  # a bad file fails before any output
    if args.action == "list":
        for f in selection:
            parts = [f"N={f.runs}", f"m={f.factors}", f"order={f.order.value}"]
            if f.design is not None:
                parts.append("design")
            if f.expected_xtx is not None:
                parts.append("xtx")
            if f.expected_b:
                parts.append(
                    " ".join(f"b{k}={v}" for k, v in sorted(f.expected_b.items()))
                )
            print(f"{f.id}: {' '.join(parts)} -- {f.source}")
        return 0
    failures = 0
    for f, rows in zip(selection, fixture_registry.check_fixtures(selection)):
        for name, ok, detail in rows:
            status = "pass" if ok else "FAIL"
            print(f"{f.id} {name}: {status} ({detail})")
            failures += 0 if ok else 1
    if failures:
        print(f"{failures} fixture check(s) failed", file=sys.stderr)
        return 1
    return 0


@functools.cache  # one parser per process: main only parses
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
    p.add_argument("--output", "-o")
    p.add_argument("--threads", type=int, default=1, help="worker processes (default: 1)")
    p.add_argument(
        "--progress", action="store_true", help="per-restart log on stderr, as restarts finish"
    )
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
        default=1,
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
        rc = args.func(args)
        sys.stdout.flush()  # so a reader gone before the exit flush is caught here
        return rc
    except BrokenPipeError:  # the reader closed stdout: end quietly, 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (QbDesignError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
