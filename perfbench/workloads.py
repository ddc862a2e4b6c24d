"""The benchmark's workloads: seeded inputs, the CLI calls of one pass, and their checks.

Every workload is built from the benchmark seed alone; the program sees
only the generated argv and design files.  A pass is the list of calls
below, run in order; every pass of a run repeats the same calls on the
same inputs, so every pass must print the same output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks

DEFAULT_SEED = 1
FIXTURE_DIR = Path("src/qbdesign/fixtures/data")
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# An optimize pass is 100 restarts in short calls with consecutive restart
# seeds.  Short calls let the fastest run of each call fall between bursts of
# load from other tenants of the machine; 100 restarts keep the work per pass
# within a few percent from seed to seed.
FIRST_ORDER_CALLS = (10, 10)  # calls per pass, restarts per call (~0.08 s)
SECOND_ORDER_CALLS = (20, 5)  # a 24x7 second-order restart costs ~2x a 12x14 one
# Random-design shapes of the evaluate batch: the corpus shapes, plus 24x30,
# whose k = 4 word-count intermediate is about 21 MB.
EVALUATE_SHAPES = ((12, 14), (14, 12), (22, 15), (16, 6), (24, 7), (24, 30))
THEORY_MEMBER = 1  # the 14x12 member, N = 2 (mod 4)
PI1_GRID = ("0.1", "0.8", "0.001")  # the paper's grid
PI2_GRID = ("0.1", "0.8", "0.1")


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a pass; `check` maps stdout to a list of problems."""

    label: str
    argv: list[str]
    check: Callable[[str], list[str]]
    units: int = 0  # units of work this call contributes to work_per_s
    warmup_only: bool = False  # a check run once, before timing


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed % 2**64))


def _write(x: np.ndarray, path: Path) -> str:
    path.write_text("\n".join(" ".join(str(int(v)) for v in row) for row in x) + "\n")
    return str(path)


def _read_fixture(name: str, root: Path) -> np.ndarray:
    return checks.parse_rows(
        [ln for ln in (root / FIXTURE_DIR / name).read_text().splitlines() if ln.strip()]
    )


def _isomorph(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random row permutation, column permutation and column sign switch."""
    x = x[rng.permutation(x.shape[0])][:, rng.permutation(x.shape[1])]
    return x * rng.choice(np.array([-1, 1]), size=x.shape[1])


def _optimize(order: int, n: int, m: int, pi1: float, pi2: float, restarts: int,
              restart_seed: int, target: float | None = None, warmup_only: bool = False) -> Call:
    argv = ["optimize", "--runs", str(n), "--factors", str(m), "--order", str(order),
            "--pi1", str(pi1), "--pi2", str(pi2), "--restarts", str(restarts),
            "--seed", str(restart_seed), "--threads", "1"]
    check = partial(checks.check_optimize, n=n, m=m, pi1=pi1, pi2=pi2, order=order,
                    epsilon=1e-9, target=target)
    return Call(f"optimize.seed{restart_seed}", argv, check, units=restarts,
                warmup_only=warmup_only)


def _restart_seeds(seed: int, calls: int) -> range:
    first = seed % 2**32 * calls
    return range(first, first + calls)


def optimize_first_order(seed: int, root: Path, tmp: Path) -> list[Call]:
    """Units are restarts.  At the default seed the warm-up also runs
    acceptance criterion 7a itself (200 restarts, restart seed 1)."""
    n_calls, restarts = FIRST_ORDER_CALLS
    calls = [_optimize(1, 12, 14, 0.1, 0.0, restarts, s) for s in _restart_seeds(seed, n_calls)]
    if seed == DEFAULT_SEED:
        calls.append(_optimize(1, 12, 14, 0.1, 0.0, 200, 1,
                               target=checks.CRITERION_7A_TARGET, warmup_only=True))
    return calls


def optimize_second_order(seed: int, root: Path, tmp: Path) -> list[Call]:
    """Units are restarts."""
    n_calls, restarts = SECOND_ORDER_CALLS
    return [_optimize(2, 24, 7, 0.8, 0.5, restarts, s) for s in _restart_seeds(seed, n_calls)]


def _expected_rows(name: str, f: int) -> str:
    """Header and the rows for projection size f of a frozen table."""
    lines = (EXPECTED_DIR / name).read_text().splitlines()
    return "\n".join([lines[0]] + [ln for ln in lines[1:] if ln.split(",")[0] == str(f)]) + "\n"


def _expect_csv(expected: str, name: str, out: str) -> list[str]:
    if out == expected:
        return []
    got, want = out.splitlines(), expected.splitlines()
    diff = next((f"{g!r} vs {w!r}" for g, w in zip(got, want) if g != w), "length differs")
    return [f"projection table differs from {name}: {diff}"]


def project(seed: int, root: Path, tmp: Path) -> list[Call]:
    """Every Table-4 cell of the three case4 designs, and had16 at f = 3.

    One call per design and projection size f keeps every call under about
    0.6 s, short enough for its fastest run to be timed steadily; had16 at
    f = 4 (86,190 models in one 2 s call) is left out for that reason.  The
    report is invariant under the isomorphs, so the frozen tables hold at
    any seed.  Units are models scored.
    """
    rng = _rng(seed)
    calls = []
    for fid, sizes in (("case4.d1", (3, 4, 5, 6)), ("case4.d3", (3, 4, 5, 6)),
                       ("case4.d6", (3, 4, 5, 6)), ("had16", (3,))):
        x = _isomorph(_read_fixture(fid.replace(".", "_") + ".txt", root), rng)
        path = _write(x, tmp / f"{fid}.txt")
        name = f"project-{fid}.csv"
        for f in sizes:
            expected = _expected_rows(name, f)
            models = sum(int(row.split(",")[2]) for row in expected.splitlines()[1:])
            argv = ["project", path, "--f", str(f), "--t-max", "10", "--threads", "1"]
            calls.append(Call(f"{fid}.f{f}", argv, partial(_expect_csv, expected, name),
                              units=models))
    return calls


def _grid_points(lo: str, hi: str, step: str) -> int:
    return int((Fraction(hi) - Fraction(lo)) / Fraction(step)) + 1


def evaluate(seed: int, root: Path, tmp: Path) -> list[Call]:
    """evaluate on a random batch, then sweep, theory --design and fixtures check.

    Units are designs evaluated.
    """
    rng = _rng(seed)
    designs = [rng.choice(np.array([-1, 1]), size=shape) for shape in EVALUATE_SHAPES]
    names = [f"d{i}-{n}x{m}" for i, (n, m) in enumerate(EVALUATE_SHAPES)]
    paths = [_write(x, tmp / f"{v}.txt") for x, v in zip(designs, names)]
    calls = [
        Call(f"evaluate.{v}", ["evaluate", p, "--order", "2", "--pi1", "0.5", "--pi2", "0.5"],
             partial(checks.check_evaluate, x=x, pi1=0.5, pi2=0.5, order=2), units=1)
        for x, v, p in zip(designs, names, paths)
    ]
    lo, hi, step = PI1_GRID
    calls.append(Call(
        "sweep",
        ["sweep", *paths, "--order", "2", "--lo", lo, "--hi", hi, "--step", step,
         "--pi2-lo", PI2_GRID[0], "--pi2-hi", PI2_GRID[1], "--pi2-step", PI2_GRID[2]],
        partial(checks.check_sweep, designs=designs, names=names, order=2,
                pi1_range=(float(lo), float(hi)),
                n_points=_grid_points(*PI1_GRID) * _grid_points(*PI2_GRID)),
    ))
    member = designs[THEORY_MEMBER]
    n, m = member.shape
    calls.append(Call(
        "theory",
        ["theory", "--runs", str(n), "--factors", str(m), "--design", paths[THEORY_MEMBER]],
        partial(checks.check_theory, x=member),
    ))
    calls.append(Call("fixtures", ["fixtures", "check"], checks.check_fixtures))
    return calls


WORKLOADS = {
    "optimize-first-order": optimize_first_order,
    "optimize-second-order": optimize_second_order,
    "project": project,
    "evaluate": evaluate,
}
