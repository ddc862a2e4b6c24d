"""Coordinate-exchange construction of QB-optimal designs.

A random start is improved by scanning coordinates in row-major order and
flipping the sign of any entry whose flip strictly improves QB, sweep after
sweep, until N*m coordinates in a row are rejected: the design is then a
local optimum.  Restarts from independent random starts guard against
local optima, with the As efficiency of the full main-effects fit as an
optional tie-breaker among equal-QB results.

The criterion is maintained incrementally and exactly through the
distance form of the word counts (see `wordcounts`):

    S_k = sum_{r, r'} K_k(d_rr'; m).

Flipping entry (i, j) changes only the distances from run i, each by
sg_r = x_ij * x_rj = +-1 (0 for r = i).  So

    S_k' - S_k = 2 * sum_r [K_k(d_ir + sg_r; m) - K_k(d_ir; m)] = 4 t_k,

with t_k an integer, and S_k stays exact along the whole search.  With the
difference tables U = Dp - Dm and V = Dp + Dm, where Dp(d) = K_k(d + 1) -
K_k(d) and Dm(d) = K_k(d - 1) - K_k(d), each term with sg = +-1 is
2 [K_k(d + sg) - K_k(d)] = U(d) sg + V(d).  A block holds its designs in
float64 with a trailing column of ones, so x_i . x_r + 1 = m + 1 - 2 d_ir
is one BLAS matmul from the design and indexes one table of [U | V] / 4.
A second matmul of the rows read from it against the ones-extended
designs gives sum_r U x_rj in the first m columns and sum_r V in the ones
column: t_k for all m flips of a row and every k, in O(N m k_max), less
the run itself (d = 0, sg = +1).  The table is scaled by 1/4 and the QB
weights by 4, both powers of two, so t_k comes out as the exact integer
and each QB change is the same float as 4 (w_1 t_1 + w_2 t_2 + ...) / N^2
summed left to right.  The sums are exact, as a block refuses a table
whose partial sums could reach 2^53 (at the int64 check's largest m,
N = 2, they stay under 0.29 * 2^53).  The designs and S_k are the whole
state; the N x N distances are counted once.

Restarts run in lockstep.  A block of at most RESTARTS_PER_BLOCK restarts,
whose build fits BLOCK_BYTES, stacks designs and S_k along a leading axis,
and each restart has one cursor: pos, the coordinates it has scanned over
all sweeps, and lim, N*m past its last flip.  One iteration scores a
window of rows from the cursor of every running restart: one row in a full
block, more in the slots a small block or a block's tail leaves idle,
within WINDOW_WORK multiply-adds.  Each restart takes its first improving
coordinate at or after the cursor in row-major order, the serial scan's
choice, since nothing flips between the rows of a window, and moves its
cursor past it, or past the window.  It leaves the block at the certificate
pos = lim, N*m rejections in a row; its sweep count is the sweeps begun.
The window rows of each cursor row and the advance past each lane are
small tables built once per window width, and only the window's first row
has lanes before the cursor to mask, so the bookkeeping of an iteration is
a few array passes, none larger than the window.
No quantity mixes restarts, and every decision rests on integer t_k and
on the same float expression per restart, so the results do not depend
on the block size, the window width or the number of worker processes.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .criteria import Prior, as_efficiency, qb_coefficients, qb_from_word_counts
from .design import Design
from .errors import TooLargeError
from .wordcounts import WordCounts, krawtchouk_sums, krawtchouk_table

IMPROVE_TOL = 1e-9  # a flip is taken when it lowers QB by more than this
RESTARTS_PER_BLOCK = 64  # restarts advanced together
WINDOW_WORK = 2**16  # multiply-adds one iteration may spend on lookahead rows
# Bytes of the int64 (R, N, N) run distances and (R, N, m) starts a block's
# build counts S_k from, and of its float64 (R, N, m + 1) designs; the restarts
# per block are cut to fit, and a search whose one restart does not fit is
# refused before anything is allocated.
BLOCK_BYTES = 2**27


@dataclass(frozen=True)
class OptimizerConfig:
    """Search parameters for multi-restart coordinate exchange."""

    runs: int
    factors: int
    prior: Prior
    restarts: int = 100
    seed: int = 0
    tiebreak_as: bool = True

    def __post_init__(self):
        if self.runs < 2:
            raise ValueError(f"runs must be >= 2, got {self.runs}")
        if self.factors < 1:
            raise ValueError(f"factors must be >= 1, got {self.factors}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if not 0 <= self.seed < 2**128:
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed}")


class RestartStat(NamedTuple):  # a tuple: a long log stays small, and it pickles
    restart: int
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


class _Block:
    """Stacked search state of R restarts: designs and exact S_k.

    xo is float64 (R, N, m + 1), the designs with a trailing column of ones,
    and x its (R, N, m) view; s is int64 (R, k_max).  Both are owned by the
    block.  row_deltas and flip are the package's one row-delta and one flip
    update; qb_delta and coordinate_exchange run a block of one.
    """

    def __init__(self, x: np.ndarray, prior: Prior):
        """x is an int64 (R, N, m) stack of +-1 designs."""
        r, self.n, self.m = x.shape
        self.prior = prior
        weights = qb_coefficients(prior, self.m)
        self.k_max = len(weights)
        kraw = krawtchouk_table(self.m, self.k_max, self.n)[1:]
        self.s = krawtchouk_sums(x, kraw)
        self.xo = np.ones((r, self.n, self.m + 1))
        self.xo[..., :-1] = x
        self._at = np.arange(r)[:, None]
        # Dp(d) = K(d + 1) - K(d) = z[d + 1] and Dm(d) = K(d - 1) - K(d) =
        # -z[d], 0 where the step leaves 0..m, as U = Dp - Dm and V = Dp + Dm
        # side by side
        z = np.zeros((self.k_max, self.m + 2), dtype=np.int64)
        z[:, 1:-1] = kraw[:, 1:] - kraw[:, :-1]
        uv = np.concatenate([z[:, 1:] + z[:, :-1], z[:, 1:] - z[:, :-1]]).T
        # row_deltas sums these in float64: exact while its partial sums, at
        # most 2 (N + 1) max |U|, |V|, stay below 2^53
        if 2 * (self.n + 1) * int(np.abs(uv).max()) >= 2**53:
            raise TooLargeError(f"row deltas of a {self.n}x{self.m} design pass exact float64")
        # [U | V] / 4 at distance d in row m + 1 - 2d of 2m + 2, the value of
        # x_i . x_r + 1 on the ones-extended rows; take reads the negative
        # ones from the end.  The scalings by 1/4 here and 4 in the weights
        # are powers of two, so every sum is exact or rounds as unscaled.
        self._uv = np.zeros((2 * self.m + 2, 2 * self.k_max))
        self._uv[self.m + 1 - 2 * np.arange(self.m + 1)] = uv * 0.25
        # the run itself, U(0) + V(0) = 2 Dp(0), over 4
        self._own = 0.5 * z[:, 1:2, None]
        self._w4 = 4.0 * np.array(weights)[:, None, None, None]

    @property
    def x(self) -> np.ndarray:
        """The (R, N, m) designs, a view of xo."""
        return self.xo[..., :-1]

    def word_counts(self, r: int) -> WordCounts:
        """Restart r's exact word counts."""
        return WordCounts(runs=self.n, s_k=tuple(self.s[r].tolist()))

    def qb(self, r: int) -> float:
        """Criterion value of restart r from its exact word counts."""
        return qb_from_word_counts(self.word_counts(r), self.prior, self.m)

    def row_deltas(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """QB changes of sign-switching each entry of rows rows[r, l], for every restart r.

        rows is (R, L).  Returns (delta, t): delta[r, l, j] is the QB change
        of flipping (rows[r, l], j) in restart r and t[r, l, k - 1, j] =
        (S_k' - S_k) / 4 the integer behind it, in float64.
        """
        k, xo = self.k_max, self.xo
        xi = xo[self._at, rows]
        # [U | V] / 4 at the rows' distances to every run, (R, L, N, 2k)
        uv = self._uv.take((xi @ xo.swapaxes(1, 2)).astype(np.intp), axis=0)
        # 2 [K(d + sg) - K(d)] = U[d] sg + V[d] for sg = x_ij x_rj = +-1.
        # Summed over the runs r it is one float64 matmul per row, exact on
        # these quarter integers: sum_r U x_rj in the first m columns and
        # sum_r V in the ones column, laid out k-major so that each pass
        # below runs over long contiguous rows.  The run itself (d = 0,
        # sg = +1), whose distance does not move, is taken back out.
        a = np.empty((2 * k,) + xi.shape)
        np.matmul(uv.swapaxes(-1, -2), xo[:, None], out=a.transpose(1, 2, 0, 3))
        t = a[:k] * xi
        t += (a[k:, ..., -1] - self._own)[..., None]
        # 4 w_1 t_1 + 4 w_2 t_2 + ... left to right (add.reduce over the
        # outer axis), so each delta is the same float a per-coordinate sum
        # would give; column m, the ones column, is left out
        delta = (t * self._w4).sum(axis=0)
        delta /= self.n * self.n
        return delta[..., :-1], t.transpose(1, 2, 0, 3)[..., :-1]

    def flip(self, at: np.ndarray, rows: np.ndarray, cols: np.ndarray, t: np.ndarray) -> None:
        """Sign-switch entry (rows[h], cols[h]) of restart at[h], for every h.

        t[h] holds the exact terms (S_k' - S_k) / 4 of that flip.
        """
        self.xo[at, rows, cols] *= -1
        self.s[at] += 4 * t.astype(np.int64)

    def keep(self, mask: np.ndarray) -> None:
        """Drop the restarts where mask is False."""
        self.xo, self.s = self.xo[mask], self.s[mask]
        self._at = self._at[: len(self.s)]


def qb_delta(d: Design, i: int, j: int, prior: Prior) -> float:
    """QB(d with entry (i, j) negated) - QB(d), via the incremental row deltas.

    Row and factor indices are 0-based.
    """
    if not (0 <= i < d.runs and 0 <= j < d.factors):
        raise IndexError(f"coordinate ({i}, {j}) out of range")
    delta, _ = _Block(d.entries[None].copy(), prior).row_deltas(np.array([[i]]))
    return float(delta[0, 0, j])


def _check_state(block: _Block, r: int, prior: Prior) -> None:
    """Assert restart r's incremental state equals a from-scratch rebuild."""
    fresh = _Block(block.x[r : r + 1].astype(np.int64), prior)
    assert np.array_equal(block.s[r], fresh.s[0])


def _exchange(
    x: np.ndarray, prior: Prior, debug: bool = False
) -> list[tuple[np.ndarray, float, int, WordCounts]]:
    """Coordinate exchange from each start in the int64 (R, N, m) stack x, in lockstep.

    Every iteration scores a window of rows from each running restart's
    cursor and takes, per restart, the first improving coordinate at or
    after the cursor in row-major order; a restart is done once it has
    scanned N*m coordinates past its last flip.  Returns (entries, qb,
    sweeps, word counts) per start, in input order, with sweeps =
    ceil(pos / (N*m)) and the exact word counts the search carried.
    """
    block = _Block(x, prior)
    n, m = block.n, block.m
    nm = n * m
    ids = np.arange(len(x))
    pos = np.zeros(len(x), dtype=np.intp)  # coordinates scanned, row-major, over all sweeps
    lim = np.full(len(x), nm, dtype=np.intp)  # pos at the certificate: N*m past the last flip
    out: list[tuple[np.ndarray, float, int, WordCounts]] = [None] * len(x)
    width, improving, cols = 0, np.ones((0, 0, 0), dtype=bool), np.arange(m)
    while len(ids):
        # the idle slots' worth of rows, within WINDOW_WORK multiply-adds
        row_work = len(ids) * n * m * block.k_max
        w = max(1, min(n, RESTARTS_PER_BLOCK // len(ids), WINDOW_WORK // row_work))
        if w != width:
            # per cursor row, its window of rows; per lane, the advance past it
            width = w
            windows = (np.arange(n)[:, None] + np.arange(width)) % n
            step = np.minimum(np.arange(1, width * m + 2), width * m)
        if improving.shape[:2] != (len(ids), width + 1):
            # one row past the window, its first lane set: argmax stops there,
            # at lane width * m, when no coordinate improves
            improving = np.ones((len(ids), width + 1, m), dtype=bool)
        row, col = np.divmod(pos, m)
        rows = windows.take(row % n, axis=0)
        delta, t = block.row_deltas(rows)
        np.less(delta, -IMPROVE_TOL, out=improving[:, :width])
        # the lanes before the cursor, all in the window's first row, do not count
        improving[:, 0] &= cols >= col[:, None]
        c = improving.reshape(len(ids), -1).argmax(axis=1)
        hit = c < width * m
        at = hit.nonzero()[0]
        if at.size:
            l, j = np.divmod(c[at], m)
            block.flip(at, rows[at, l], j, t[at, l, :, j])
            if debug:
                for r in at:
                    _check_state(block, r, prior)
        # past the flip, or the window, up to the certificate: that covers every
        # coordinate against this state, so no window has a flip beyond it
        pos -= col
        pos += step.take(c)
        np.minimum(pos, lim, out=pos)
        lim[at] = pos[at] + nm
        # N*m rejections in a row, all against one state: a local optimum
        done = (pos == lim).nonzero()[0]
        if done.size:
            for r in done:
                sweeps = -(-int(pos[r]) // nm)
                out[ids[r]] = (block.x[r].astype(np.int64), block.qb(r), sweeps, block.word_counts(r))
            keep = pos != lim
            ids, pos, lim = ids[keep], pos[keep], lim[keep]
            block.keep(keep)
    return out


def coordinate_exchange(
    start: Design, prior: Prior, debug: bool = False
) -> tuple[Design, float, int]:
    """Greedy first-improvement coordinate exchange from a given start.

    Sweeps the N*m coordinates row-major, accepting a flip iff it decreases
    QB by more than IMPROVE_TOL, and stops once N*m coordinates in a row
    have been rejected.  Returns (design, qb, sweeps), sweeps counting the
    sweeps begun: the same count as scanning on to the end of the first
    sweep that accepts nothing.  With debug=True the incremental state is checked
    against a from-scratch recomputation after every accepted flip.  This is
    the lockstep kernel run on a block of one.
    """
    [(entries, qb, sweeps, _)] = _exchange(start.entries[None].copy(), prior, debug)
    return Design(entries), qb, sweeps


def _start(cfg: OptimizerConfig, r: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=cfg.seed, counter=r << 128))
    return rng.integers(0, 2, size=(cfg.runs, cfg.factors)) * 2 - 1


def _run_block(
    cfg: OptimizerConfig, lo: int, hi: int
) -> tuple[tuple[RestartStat, ...], list[tuple[np.ndarray, WordCounts]]]:
    """Restarts lo..hi-1 through the lockstep kernel: their stats, and their
    final designs with those designs' exact word counts."""
    x = np.stack([_start(cfg, r) for r in range(lo, hi)])
    res = _exchange(x, cfg.prior)
    stats = tuple(RestartStat(r, qb, sw) for r, (_, qb, sw, _) in zip(range(lo, hi), res))
    return stats, [(entries, wc) for entries, _, _, wc in res]


def _collect(
    blocks, on_block
) -> tuple[tuple[RestartStat, ...], dict[RestartStat, tuple[np.ndarray, WordCounts]]]:
    """Every block's stats, in restart order, and the final designs and word
    counts of the restarts whose QB equals the best; on_block sees each block.

    Each QB is qb_from_word_counts of exact S_k, so equal word counts tie.
    The tie set is pruned to the running minimum after each block; a tie of
    the final minimum is a tie of every running minimum, so none is dropped.
    """
    qbs, sweeps, tied = [], [], {}
    for stats, finals in blocks:
        qbs += [st.qb for st in stats]
        sweeps += [st.sweeps for st in stats]
        tied.update(zip(stats, finals))
        del finals  # freed before the next block runs, not while it runs
        qb_min = min(st.qb for st in tied)
        tied = {st: fin for st, fin in tied.items() if st.qb == qb_min}
        if on_block is not None:
            on_block(stats)
    # built after the last block, so the records never sit beside a running block
    return tuple(map(RestartStat, range(len(qbs)), qbs, sweeps)), tied


def _block_size(cfg: OptimizerConfig, threads: int) -> int:
    """Restarts per block: at most RESTARTS_PER_BLOCK, at most what fits in
    BLOCK_BYTES, and no more than an even share of the restarts per worker."""
    per_restart = 8 * cfg.runs * (cfg.runs + 2 * cfg.factors + 1)
    if per_restart > BLOCK_BYTES:
        raise TooLargeError(
            f"one restart of a {cfg.runs}x{cfg.factors} search needs"
            f" {per_restart / 2**20:,.0f} MiB of run distances and designs,"
            f" more than the {BLOCK_BYTES // 2**20} MiB a block may use"
        )
    return min(RESTARTS_PER_BLOCK, BLOCK_BYTES // per_restart, -(-cfg.restarts // threads))


def multi_restart(
    cfg: OptimizerConfig,
    threads: int = 1,
    on_block: Callable[[tuple[RestartStat, ...]], None] | None = None,
) -> OptResult:
    """Coordinate exchange from `restarts` random starts; deterministic reduction.

    Restart r draws its start from the Philox stream jumped r times from
    cfg.seed, seeded at that state (counter r * 2^128), so results are
    reproducible and independent of the execution schedule.  Restarts run
    in contiguous blocks of at most RESTARTS_PER_BLOCK, and of at most
    BLOCK_BYTES of run distances and designs (TooLargeError, before any
    allocation, when one restart does not fit); with threads > 1 the blocks
    are spread over a process pool of at most os.cpu_count() workers.
    `on_block`, when given, receives each block's restart stats in restart
    order as soon as that block and every earlier one are done.  Only the
    final designs whose QB equals the least in the restart log are kept;
    among them the larger main-effects As efficiency wins (when tiebreak_as
    is set), then the lower restart index.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    size = _block_size(cfg, threads)
    los = range(0, cfg.restarts, size)
    his = [min(lo + size, cfg.restarts) for lo in los]
    if threads > 1 and len(los) > 1:
        # imported here: loading the pool machinery costs about 20 ms, which
        # every command would pay at start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, len(los), os.cpu_count() or 1)) as pool:
            blocks = pool.map(_run_block, itertools.repeat(cfg), los, his)
            log, tied = _collect(blocks, on_block)
    else:
        log, tied = _collect(map(_run_block, itertools.repeat(cfg), los, his), on_block)

    # (stat, design, word counts) of each tie, in restart order
    ties = [(st, Design(x), wc) for st, (x, wc) in tied.items()]
    best_as: float | None = None
    if cfg.tiebreak_as:
        # the largest As wins, a non-estimable fit last; min keeps the first
        # of equals, the lowest restart index
        scored = [(tie, as_efficiency(tie[1])) for tie in ties]
        (st, best, wc), best_as = min(scored, key=lambda t: np.inf if t[1] is None else -t[1])
    else:
        st, best, wc = ties[0]
    n_lb = int((best.column_sums() == 0).sum())
    return OptResult(
        best=best,
        qb=st.qb,  # qb_from_word_counts(wc, ...), as the search computed it
        word_counts=wc,
        restart_log=log,
        n_level_balanced=n_lb,
        as_main=best_as if cfg.tiebreak_as else as_efficiency(best),
    )
