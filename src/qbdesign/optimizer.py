"""Coordinate-exchange construction of QB-optimal designs.

A random start is improved by scanning coordinates in row-major order and
flipping the sign of any entry whose flip strictly improves QB; the scan
repeats until a full sweep accepts nothing.  Restarts from independent random
starts guard against local optima, with the As efficiency of the full
main-effects fit as an optional tie-breaker among equal-QB results.

The criterion is maintained incrementally and exactly through the
distance form of the word counts (see `wordcounts`):

    S_k = sum_{r, r'} K_k(d_rr'; m).

Flipping entry (i, j) changes only the distances from run i, each by
sg_r = x_ij * x_rj = +-1 (0 for r = i).  So

    S_k' - S_k = 2 * sum_r [K_k(d_ir + sg_r; m) - K_k(d_ir; m)] = 4 t_k,

with t_k an integer, and S_k stays exact along the whole search.  One numpy
gather over the N x m matrix of sg values gives t_k for all m flips of a
row and every k at once, in O(N m k_max).
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .criteria import Prior, as_efficiency, qb_coefficients
from .design import Design
from .wordcounts import WordCounts, krawtchouk_table, run_distances

QB_TIE_TOL = 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    """Search parameters for multi-restart coordinate exchange."""

    runs: int
    factors: int
    prior: Prior
    restarts: int = 100
    seed: int = 0
    max_stale_sweeps: int = 2
    epsilon: float = 1e-9
    tiebreak_as: bool = True

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.max_stale_sweeps < 1:
            raise ValueError("max_stale_sweeps must be >= 1")
        if not 0 <= self.seed < 2**128:
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed}")


@dataclass(frozen=True)
class RestartStat:
    seed: int
    qb: float
    sweeps: int


@dataclass(frozen=True)
class OptResult:
    best: Design
    qb: float
    word_counts: WordCounts
    restart_log: tuple[RestartStat, ...]
    n_level_balanced: int
    as_main: float | None = None


class QbEngine:
    """Mutable search state: the design, its run distances, and exact S_k."""

    def __init__(self, design: Design, prior: Prior):
        self.n = design.runs
        self.m = design.factors
        self.x = design.entries.copy()
        coeff = qb_coefficients(prior, self.m)
        self.k_max = min(len(coeff), self.m)
        self.weights = coeff[: self.k_max]
        self._n2 = self.n * self.n
        self._kraw = krawtchouk_table(self.m, self.k_max, self.n)[1:]
        self._dist = run_distances(self.x)
        self._s = [int(kr[self._dist].sum()) for kr in self._kraw]

    def qb(self) -> float:
        """Criterion value from the exact per-size totals."""
        return sum(w * s for w, s in zip(self.weights, self._s)) / self._n2

    def word_counts(self) -> WordCounts:
        return WordCounts(runs=self.n, s_k=tuple(self._s))

    def row_deltas(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """QB changes for sign-switching each entry of row i, with their exact terms.

        Returns (delta, t): delta[j] is the QB change of flipping (i, j) and
        t[k - 1, j] = (S_k' - S_k) / 4 the integer behind it.
        """
        sg = self.x[i] * self.x
        sg[i] = 0
        di = self._dist[i]
        moved = self._kraw[:, di[:, None] + sg].sum(axis=1)
        t = (moved - self._kraw[:, di].sum(axis=1, keepdims=True)) // 2
        # w_1 t_1 + w_2 t_2 + ... left to right, so each delta[j] is the same
        # float a per-coordinate sum would give
        acc = self.weights[0] * t[0]
        for w, tk in zip(self.weights[1:], t[1:]):
            acc = acc + w * tk
        return 4.0 * acc / self._n2, t

    def delta(self, i: int, j: int) -> float:
        """QB change if entry (i, j) were sign-switched."""
        return float(self.row_deltas(i)[0][j])

    def flip(self, i: int, j: int, t: np.ndarray | None = None) -> None:
        """Apply the sign switch, updating run distances and S_k exactly.

        `t` is the term matrix `row_deltas(i)` returned for the current
        state, when the caller already has it.
        """
        if t is None:
            t = self.row_deltas(i)[1]
        step = self.x[i, j] * self.x[:, j]
        step[i] = 0
        self._dist[i] += step
        self._dist[:, i] += step
        self._s = [s + 4 * int(tk) for s, tk in zip(self._s, t[:, j])]
        self.x[i, j] = -self.x[i, j]

    def design(self) -> Design:
        return Design(self.x.copy())


def qb_delta(d: Design, i: int, j: int, prior: Prior) -> float:
    """QB(d with entry (i, j) negated) - QB(d), via the incremental engine.

    Row and factor indices are 0-based.
    """
    if not (0 <= i < d.runs and 0 <= j < d.factors):
        raise IndexError(f"coordinate ({i}, {j}) out of range")
    return QbEngine(d, prior).delta(i, j)


def coordinate_exchange(
    start: Design,
    prior: Prior,
    max_stale_sweeps: int = 2,
    epsilon: float = 1e-9,
    debug: bool = False,
) -> tuple[Design, float, int]:
    """Greedy first-improvement coordinate exchange from a given start.

    Sweeps all N*m coordinates row-major, accepting a flip iff it decreases
    QB by more than epsilon; stops after `max_stale_sweeps` consecutive
    sweeps without an accepted flip.  Returns (design, qb, sweeps).  With
    debug=True the incremental state is checked against a from-scratch
    recomputation after every accepted flip.
    """
    eng = QbEngine(start, prior)
    sweeps = 0
    stale = 0
    while stale < max_stale_sweeps:
        sweeps += 1
        accepted = 0
        for i in range(eng.n):
            j = 0
            while j < eng.m:
                # the first improving flip at or after j; the row's later
                # deltas are evaluated again once it is applied
                delta, t = eng.row_deltas(i)
                hits = np.flatnonzero(delta[j:] < -epsilon)
                if not hits.size:
                    break
                j += int(hits[0])
                eng.flip(i, j, t)
                accepted += 1
                j += 1
                if debug:
                    fresh = QbEngine(eng.design(), prior)
                    assert eng._s == fresh._s
                    assert np.array_equal(eng._dist, fresh._dist)
                    assert abs(eng.qb() - fresh.qb()) <= 1e-10
        stale = stale + 1 if accepted == 0 else 0
    return eng.design(), eng.qb(), sweeps


def _run_restart(cfg: OptimizerConfig, r: int) -> tuple[int, float, int, np.ndarray]:
    rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(r))
    start = Design(rng.integers(0, 2, size=(cfg.runs, cfg.factors)) * 2 - 1)
    best, qb, sweeps = coordinate_exchange(
        start, cfg.prior, cfg.max_stale_sweeps, cfg.epsilon
    )
    return r, qb, sweeps, best.entries


def multi_restart(cfg: OptimizerConfig, threads: int = 1) -> OptResult:
    """Coordinate exchange from `restarts` random starts; deterministic reduction.

    Restart r draws its start from the Philox stream jumped r times from
    cfg.seed, so results are reproducible and independent of the execution
    schedule.  QB ties within 1e-9 are broken by the larger main-effects As
    efficiency (when tiebreak_as is set), then by restart index.
    """
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            raw = list(pool.map(_run_restart, itertools.repeat(cfg), range(cfg.restarts)))
        raw.sort(key=lambda t: t[0])
    else:
        raw = [_run_restart(cfg, r) for r in range(cfg.restarts)]

    log = tuple(RestartStat(seed=r, qb=qb, sweeps=sw) for r, qb, sw, _ in raw)
    qb_min = min(st.qb for st in log)
    eligible = [t for t in raw if t[1] <= qb_min + QB_TIE_TOL]
    best_as: float | None = None
    if cfg.tiebreak_as:
        scored = []
        for r, qb, sw, entries in eligible:
            a = as_efficiency(Design(entries))
            scored.append((-(a if a is not None else -np.inf), r, qb, entries, a))
        scored.sort(key=lambda t: (t[0], t[1]))
        _, r, qb, entries, best_as = scored[0]
    else:
        r, qb, _, entries = eligible[0]

    best = Design(entries)
    eng = QbEngine(best, cfg.prior)
    wc = eng.word_counts()
    n_lb = int((best.column_sums() == 0).sum())
    return OptResult(
        best=best,
        qb=eng.qb(),
        word_counts=wc,
        restart_log=log,
        n_level_balanced=n_lb,
        as_main=best_as if cfg.tiebreak_as else as_efficiency(best),
    )
