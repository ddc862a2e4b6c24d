"""Independent oracles and output checks for the benchmark's CLI calls.

Nothing here calls qbdesign: every expected value is recomputed from the
design matrix alone, so a faster program path is checked against code it
does not share.

Word counts come from the moment/word-length duality (Xu & Wu, Ann.
Statist. 29, 2001): summed over all k-subsets of m factors,

    S_k = sum_s J_s^2 = sum_{r, r'} K_k(d_rr'; m),

where d_rr' is the Hamming distance between runs r and r' and
K_k(d; m) = sum_j (-1)^j C(d, j) C(m - d, k - j) is the Krawtchouk
polynomial.  That is O(N^2 m) and exact in integers.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Relative tolerance for a float printed with 6 significant digits.
PRINTED_REL_TOL = 1e-5
# Reciprocal condition number below which a centered Gram matrix is singular.
RCOND_SINGULAR = 1e-10
# QB of supp1.d1 (b1 = 0, b2 = 8/3, N=12, m=14) at pi1 = 0.1: the optimizer
# attainment target of acceptance criterion 7a.
CRITERION_7A_TARGET = float(2 * Fraction(1, 10) ** 2 * Fraction(8, 3))


def krawtchouk(m: int, k_max: int) -> np.ndarray:
    """K[k - 1, d] = K_k(d; m) for k = 1..k_max and d = 0..m, as int64."""
    table = np.zeros((k_max, m + 1), dtype=np.int64)
    for k in range(1, k_max + 1):
        for d in range(m + 1):
            table[k - 1, d] = sum(
                (-1) ** j * math.comb(d, j) * math.comb(m - d, k - j)
                for j in range(0, k + 1)
            )
    return table


def distances(x: np.ndarray) -> np.ndarray:
    """N x N Hamming distances between runs."""
    return (x[:, None, :] != x[None, :, :]).sum(axis=2)


def word_count_sums(x: np.ndarray, k_max: int) -> tuple[int, ...]:
    """Exact S_1..S_k_max from the distance distribution."""
    n, m = x.shape
    hist = np.bincount(distances(x).ravel(), minlength=m + 1)
    table = krawtchouk(m, k_max)
    return tuple(int(v) for v in table @ hist)


def qb_weights(pi1: float, pi2: float, order: int, m: int) -> tuple[float, ...]:
    """Closed-form word-count weights of QB for the chosen maximal model."""
    if order == 1:
        return (pi1, 2 * pi1**2)
    return (
        pi1 + 2 * (m - 1) * pi1**2 * pi2,
        2 * pi1**2 + pi1**2 * pi2 + 2 * (m - 2) * pi1**3 * pi2**2,
        6 * pi1**3 * pi2,
        6 * pi1**4 * pi2**2,
    )


def k_max_for(order: int, m: int) -> int:
    return min(2 if order == 1 else 4, m)


def qb_value(s: tuple[int, ...], n: int, m: int, pi1: float, pi2: float, order: int) -> float:
    w = qb_weights(pi1, pi2, order, m)
    return sum(wk * sk for wk, sk in zip(w, s)) / (n * n)


def flip_deltas(x: np.ndarray, k_max: int) -> np.ndarray:
    """Exact change of S_k for every single-entry sign switch, shape (N, m, k_max).

    Switching entry (i, j) moves each distance d(i, r') by +1 where runs i
    and r' agree in column j and by -1 where they differ; every other
    distance is unchanged, and each pair counts twice in S_k.
    """
    n, m = x.shape
    table = krawtchouk(m, k_max)
    dist = distances(x)
    out = np.zeros((n, m, k_max), dtype=np.int64)
    for i in range(n):
        others = np.arange(n) != i
        d = dist[i, others]
        moved = d[:, None] + np.where(x[others] == x[i], 1, -1)
        for k in range(k_max):
            out[i, :, k] = 2 * (table[k][moved].sum(axis=0) - table[k][d].sum())
    return out


def as_main(x: np.ndarray) -> float | None:
    """As efficiency of the main-effects model; None when not estimable."""
    n, m = x.shape
    xc = x - x.mean(axis=0)
    eig = np.linalg.eigvalsh(xc.T @ xc)
    if eig[-1] <= 0 or eig[0] / eig[-1] < RCOND_SINGULAR:
        return None
    return m / (n * float((1.0 / eig).sum()))


def parse_rows(lines: list[str]) -> np.ndarray:
    return np.array([[int(v) for v in ln.split()] for ln in lines], dtype=np.int64)


def close(printed: str, expected: float) -> bool:
    return abs(float(printed) - expected) <= PRINTED_REL_TOL * abs(expected) + 1e-12


def _field(lines: list[str], prefix: str) -> str | None:
    for ln in lines:
        if ln.startswith(prefix):
            return ln[len(prefix):]
    return None


def _check_as(problems: list[str], printed: str | None, x: np.ndarray) -> None:
    expected = as_main(x)
    if printed is None:
        problems.append("no As line")
    elif expected is None:
        if printed.strip() != "not estimable":
            problems.append(f"As {printed!r}, expected not estimable")
    elif printed.strip() == "not estimable" or not close(printed, expected):
        problems.append(f"As {printed!r}, expected {expected:.6g}")


def check_optimize(
    out: str, n: int, m: int, pi1: float, pi2: float, order: int,
    epsilon: float, target: float | None,
) -> list[str]:
    """Reported QB and b_k match the emitted design; no single flip improves it."""
    problems: list[str] = []
    lines = out.splitlines()
    try:
        x = parse_rows(lines[4:])
    except ValueError as exc:
        return [f"design rows unreadable: {exc}"]
    if x.shape != (n, m) or not np.isin(x, (-1, 1)).all():
        return [f"emitted design has shape {x.shape}, expected ({n}, {m}) of +-1"]
    k_max = k_max_for(order, m)
    s = word_count_sums(x, k_max)
    qb = qb_value(s, n, m, pi1, pi2, order)
    printed_qb = _field(lines, "best QB = ")
    if printed_qb is None or not close(printed_qb, qb):
        problems.append(f"best QB {printed_qb!r}, design gives {qb:.6g}")
    expected_b = " ".join(f"b{k}={Fraction(s[k - 1], n * n)}" for k in range(1, k_max + 1))
    if _field(lines, "word counts: ") != expected_b:
        problems.append(f"word counts {_field(lines, 'word counts: ')!r}, expected {expected_b!r}")
    n_lb = int((x.sum(axis=0) == 0).sum())
    if _field(lines, "level-balanced factors: ") != f"{n_lb}/{m}":
        problems.append("level-balanced count differs from the emitted design")
    _check_as(problems, _field(lines, "As(main effects) = "), x)
    w = np.array(qb_weights(pi1, pi2, order, m)[:k_max])
    best_delta = float((flip_deltas(x, k_max) @ w).min()) / (n * n)
    if best_delta < -epsilon:
        problems.append(f"a single flip improves QB by {-best_delta:.3g}")
    if target is not None and qb > target + 1e-12:
        problems.append(f"QB {qb:.6g} misses the criterion-7a target {target:.6g}")
    return problems


def check_evaluate(out: str, x: np.ndarray, pi1: float, pi2: float, order: int) -> list[str]:
    """b_k, QB, E(s2), UE(s2), As and the balance count against the oracles."""
    problems: list[str] = []
    lines = out.splitlines()
    n, m = x.shape
    k_max = k_max_for(order, m)
    s = word_count_sums(x, k_max)
    if not lines or not lines[0].endswith(f"(N={n}, m={m})"):
        problems.append("design line has the wrong size")
    n_lb = int((x.sum(axis=0) == 0).sum())
    lb = _field(lines, "level-balanced factors: ")
    if lb is None or not lb.startswith(f"{n_lb}/{m} "):
        problems.append(f"level-balanced {lb!r}, expected {n_lb}/{m}")
    for k in range(1, k_max + 1):
        got = _field(lines, f"b{k} = ")
        want = Fraction(s[k - 1], n * n)
        if got is None or Fraction(got.split()[0]) != want:
            problems.append(f"b{k} {got!r}, expected {want}")
    qb = qb_value(s, n, m, pi1, pi2, order)
    qb_line = next((ln for ln in lines if ln.startswith("QB(")), None)
    if qb_line is None or not close(qb_line.rsplit("= ", 1)[1], qb):
        problems.append(f"QB line {qb_line!r}, expected {qb:.6g}")
    e = _field(lines, "E(s2) = ")
    if e is None or not close(e.split()[0], s[1] / math.comb(m, 2)):
        problems.append(f"E(s2) {e!r}")
    ue = _field(lines, "UE(s2) = b1+b2 = ")
    if ue is None or Fraction(ue) != Fraction(s[0] + s[1], n * n):
        problems.append(f"UE(s2) {ue!r}")
    _check_as(problems, _field(lines, "As(main effects) = "), x)
    return problems


def check_sweep(
    out: str, designs: list[np.ndarray], names: list[str], order: int,
    pi1_range: tuple[float, float], n_points: int,
) -> list[str]:
    """Every CSV cell against the closed-form QB at the row's (pi1, pi2)."""
    lines = out.splitlines()
    header = ["pi1", "pi2"] + [f"qb:{v}" for v in names] + [f"releff:{v}" for v in names]
    if not lines or lines[0].split(",") != header:
        return [f"sweep header {lines[:1]!r}"]
    try:
        table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    except ValueError as exc:
        return [f"sweep row unreadable: {exc}"]
    if table.shape != (n_points, len(header)):
        return [f"sweep has shape {table.shape}, expected ({n_points}, {len(header)})"]
    problems = []
    pi1, pi2 = table[:, 0], table[:, 1]
    if pi1.min() != pi1_range[0] or pi1.max() != pi1_range[1]:
        problems.append(f"pi1 grid spans {pi1.min()}..{pi1.max()}")
    qbs = np.empty((len(table), len(designs)))
    for c, x in enumerate(designs):
        n, m = x.shape
        s = word_count_sums(x, k_max_for(order, m))
        w = qb_weights(pi1, pi2, order, m)
        qbs[:, c] = sum(wk * sk for wk, sk in zip(w, s)) / (n * n)
    printed_qb = table[:, 2 : 2 + len(designs)]
    if (np.abs(printed_qb - qbs) > PRINTED_REL_TOL * np.abs(qbs) + 1e-12).any():
        problems.append("a sweep QB cell differs from the closed form")
    rel = np.where(qbs > 0, qbs.min(axis=1, keepdims=True) / np.where(qbs > 0, qbs, 1), 1.0)
    if (np.abs(table[:, 2 + len(designs) :] - rel) > PRINTED_REL_TOL).any():
        problems.append("a sweep relative efficiency differs from min QB / QB")
    return problems


def check_theory(out: str, x: np.ndarray) -> list[str]:
    """Interval count and the level-balance tally of the block-pattern report."""
    n, m = x.shape
    k = (m + 1) // 2 if m % 2 else m // 2 + 1
    lines = out.splitlines()
    problems = []
    if not lines or lines[0] != f"N={n} m={m}: {k} intervals":
        problems.append(f"theory header {lines[:1]!r}")
    if len(lines) < k + 2:
        return problems + ["theory output is truncated"]
    n_lb = int((x.sum(axis=0) == 0).sum())
    pattern = lines[k + 1]
    if not pattern.startswith("pattern match: ") or f"(level-balanced={n_lb}," not in pattern:
        problems.append(f"pattern line {pattern!r}, expected level-balanced={n_lb}")
    return problems


def check_fixtures(out: str) -> list[str]:
    lines = out.splitlines()
    if not lines:
        return ["fixtures check printed nothing"]
    return [f"fixture check failed: {ln}" for ln in lines if ": FAIL (" in ln]
