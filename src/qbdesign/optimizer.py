"""Coordinate-exchange construction of QB-optimal designs.

A random start is improved by scanning coordinates in row-major order and
flipping the sign of any entry whose flip strictly improves QB, sweep after
sweep, until N*m coordinates in a row are rejected: the design is then a
local optimum.  Restarts from independent random starts guard against
local optima, and the As efficiency of the full main-effects fit breaks
ties among equal-QB results.

Each flip is scored exactly through the distance form of the word counts
(see `wordcounts`):

    S_k = sum_{r, r'} K_k(d_rr'; m).

Flipping entry (i, j) changes only the distances from run i, each by
sg_r = x_ij * x_rj = +-1 (0 for r = i).  So

    S_k' - S_k = 2 * sum_r [K_k(d_ir + sg_r; m) - K_k(d_ir; m)] = 4 t_k,

with t_k an integer, scored from the design alone.  With the
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
and each flip's sum s is the same float as 4 (w_1 t_1 + w_2 t_2 + ...)
summed left to right: N^2 times its QB change, undivided.  The sums are
exact, as a block refuses a table whose partial sums could reach 2^53
(at the int64 check's largest m, N = 2, they stay under 0.29 * 2^53).
A flip improves when s / N^2 < -IMPROVE_TOL, which holds exactly when
s <= thr (see _improve_threshold): the search divides nothing, and
qb_delta makes the one division.  No decision reads S_k itself, so the
designs are the whole state: a block counts the word counts of its final
designs once, in one krawtchouk_sums with the Krawtchouk table of its
[U | V], and each QB is qb_from_word_counts of those exact integers.

Restarts run in lockstep.  A block of at most RESTARTS_PER_BLOCK restarts,
whose final count fits BLOCK_BYTES, stacks the designs along a leading
axis, and each restart has one cursor: pos, the coordinates it has scanned
over all sweeps, and lim, N*m past its last flip.  One iteration scores a
window of rows from the cursor of every running restart: one row in a full
or half-full block, more in half the slots a small block or a block's tail
leaves idle, within WINDOW_WORK multiply-adds.  An iteration takes at most
one flip per restart, so lookahead rows past a flip are scored for nothing:
half the idle slots cost fewer rows than all of them for a few more
iterations.  Each restart takes its first improving coordinate at or after
the cursor in row-major order, the serial scan's choice, since nothing
flips between the rows of a window, and moves its cursor past it, or past
the window.  It leaves the block at the certificate pos = lim, N*m
rejections in a row; its sweep count is the sweeps begun.  A block builds
one table of each row's window, as wide as a set of one restart takes;
each set of running restarts, whose count alone sets its width, copies
its first columns and its buffer of improving lanes, and computes no
table.  Only the window's first row has lanes before the cursor to mask,
so an iteration's bookkeeping is a few array passes, none larger than the
window.  No quantity mixes restarts, and every decision rests on integer
t_k and on the same float expression per restart, so the results do not
depend on the block size, the window width or the number of worker
processes.  The tests hold the oracle of the row deltas: their
exact_state fixture checks, at each accepted flip, 4 t_k against S_k
counted from scratch before and after it.
"""

from __future__ import annotations

import itertools
import math
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
# Bytes of a block's int64 (R, N, m) starts beside, during the search, its
# float64 (R, N, m + 1) designs and, in the final count, its int64 (R, N, m)
# finals and (R, N, N) run distances; the restarts per block are cut to fit,
# and a search whose one restart does not fit is refused before anything is
# allocated.
BLOCK_BYTES = 2**27
START_WORDS = 2**12  # Philox words held at once while starts are drawn (one restart's at least)


@dataclass(frozen=True)
class OptimizerConfig:
    """Search parameters for multi-restart coordinate exchange."""

    runs: int
    factors: int
    prior: Prior
    restarts: int = 100
    seed: int = 0

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
    as_main: float | None  # the As of the tie-break, None if not estimable


class _Block:
    """Stacked search state of R restarts: their designs.

    xo is float64 (R, N, m + 1), the designs with a trailing column of ones,
    and x its (R, N, m) view, owned by the block; the views of xo that
    row_deltas reads are made at build and again in keep, and its matmul
    output buffer is kept while the rows' shape holds.  kraw, the int64
    table of K_1..K_kmax, gives [U | V] and the final word counts.  A flip
    whose row-delta sum s has s <= thr lowers QB by more than IMPROVE_TOL.
    row_deltas and flip are the package's one row-delta and one flip;
    qb_delta and coordinate_exchange run a block of one.
    """

    def __init__(self, x: np.ndarray, prior: Prior):
        """x is an int64 (R, N, m) stack of +-1 designs."""
        r, self.n, self.m = x.shape
        weights = qb_coefficients(prior, self.m)
        self.k_max = len(weights)
        # the final count's table too; it refuses word counts past int64 up front
        self.kraw = krawtchouk_table(self.m, self.k_max, self.n)[1:]
        self.xo = np.ones((r, self.n, self.m + 1))
        self.xo[..., :-1] = x
        # Dp(d) = K(d + 1) - K(d) = z[d + 1] and Dm(d) = K(d - 1) - K(d) =
        # -z[d], 0 where the step leaves 0..m, as U = Dp - Dm and V = Dp + Dm
        # side by side
        z = np.zeros((self.k_max, self.m + 2), dtype=np.int64)
        z[:, 1:-1] = self.kraw[:, 1:] - self.kraw[:, :-1]
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
        self.thr = _improve_threshold(self.n * self.n)
        self._out = None
        self._views()

    def _views(self) -> None:
        """The views of xo that row_deltas reads, made again when xo is replaced."""
        self._at = np.arange(len(self.xo))[:, None]
        self._xt = self.xo.swapaxes(1, 2)
        self._xo1 = self.xo[:, None]

    @property
    def x(self) -> np.ndarray:
        """The (R, N, m) designs, a view of xo."""
        return self.xo[..., :-1]

    def row_deltas(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """N^2 times the QB changes of sign-switching each entry of rows[r, l], per restart r.

        rows is (R, L).  Returns (s, t), in float64: s[r, l, j] = 4 (w_1 t_1
        + w_2 t_2 + ...), the QB change of flipping (rows[r, l], j) in
        restart r times N^2, undivided, and t[k - 1, r, l, j] = (S_k' -
        S_k) / 4 the integer behind it.  t is (k_max, R, L, m + 1), as the
        kernel lays it out; its last column, the ones column's, is no flip.
        """
        k = self.k_max
        xi = self.xo[self._at, rows]
        # [U | V] / 4 at the rows' distances to every run, (R, L, N, 2k)
        uv = self._uv.take((xi @ self._xt).astype(np.intp), axis=0)
        # 2 [K(d + sg) - K(d)] = U[d] sg + V[d] for sg = x_ij x_rj = +-1.
        # Summed over the runs r it is one float64 matmul per row, exact on
        # these quarter integers: sum_r U x_rj in the first m columns and
        # sum_r V in the ones column, laid out k-major so that each pass
        # below runs over long contiguous rows.  The run itself (d = 0,
        # sg = +1), whose distance does not move, is taken back out.  The
        # (2k, R, L, m + 1) output and its views live while the window's
        # shape holds; t and s are new arrays, so no caller sees them.
        if self._out is None or self._out[0].shape[:2] != rows.shape:
            self._out = None  # freed before its successor is allocated
            a = np.empty((2 * k,) + xi.shape)
            self._out = a.transpose(1, 2, 0, 3), a[:k], a[k:, ..., -1]
        out, u, v = self._out
        np.matmul(uv.swapaxes(-1, -2), self._xo1, out=out)
        t = u * xi
        t += (v - self._own)[..., None]
        # 4 w_1 t_1 + 4 w_2 t_2 + ... left to right (add.reduce over the
        # outer axis), so each sum is the same float a per-coordinate sum
        # would give; column m, the ones column, is left out
        s = np.add.reduce(t * self._w4, axis=0)
        return s[..., :-1], t

    def flip(self, at: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
        """Sign-switch entry (rows[h], cols[h]) of restart at[h], for every h."""
        np.negative.at(self.xo, (at, rows, cols))

    def keep(self, mask: np.ndarray) -> None:
        """Drop the restarts where mask is False."""
        self.xo = self.xo[mask]
        self._out = None
        self._views()


def _improve_threshold(nn: int) -> float:
    """The largest float64 s with s / nn < -IMPROVE_TOL, for nn = N^2.

    Correctly rounded division by nn is monotone in s, so s <= this
    threshold exactly when s / nn < -IMPROVE_TOL: the search decides on the
    undivided sums of row_deltas as it would on their quotients.
    """
    s = -IMPROVE_TOL * nn
    while not s / nn < -IMPROVE_TOL:
        s = math.nextafter(s, -math.inf)
    while math.nextafter(s, math.inf) / nn < -IMPROVE_TOL:
        s = math.nextafter(s, math.inf)
    return s


def qb_delta(d: Design, i: int, j: int, prior: Prior) -> float:
    """QB(d with entry (i, j) negated) - QB(d), via the incremental row deltas.

    Row and factor indices are 0-based.  The row deltas' sum is divided by
    N^2 here, the one division: the search compares the sums with thr.
    """
    if not (0 <= i < d.runs and 0 <= j < d.factors):
        raise IndexError(f"coordinate ({i}, {j}) out of range")
    s, _ = _Block(d.entries[None].copy(), prior).row_deltas(np.array([[i]]))
    return float(s[0, 0, j]) / (d.runs * d.runs)


def _exchange(x: np.ndarray, prior: Prior) -> list[tuple[np.ndarray, float, int, WordCounts]]:
    """Coordinate exchange from each start in the int64 (R, N, m) stack x, in lockstep.

    Every iteration scores a window of rows from each running restart's cursor
    and takes, per restart, the first improving coordinate at or after the
    cursor in row-major order; a restart is done once it has scanned N*m
    coordinates past its last flip, and the rest then copy their width's
    columns of the block's one window table.  Returns (entries, qb, sweeps,
    word counts) per start, in input order, with sweeps = ceil(pos / (N*m))
    and the exact word counts of the final designs, counted once per block.
    """
    block = _Block(x, prior)
    n, m = block.n, block.m
    nm = n * m
    ids = np.arange(len(x))
    pos = np.zeros(len(x), dtype=np.intp)  # coordinates scanned, row-major, over all sweeps
    lim = np.full(len(x), nm, dtype=np.intp)  # pos at the certificate: N*m past the last flip
    # per start, its final design and its pos at the certificate, written as it finishes
    finals, ends = np.empty(x.shape, dtype=np.int64), np.empty(len(x), dtype=np.intp)
    cols, row_work = np.arange(m), n * m * block.k_max

    def window_width(r: int) -> int:
        # half the idle slots' worth of rows, within WINDOW_WORK multiply-adds
        return max(1, min(n, RESTARTS_PER_BLOCK // (2 * r), WINDOW_WORK // (r * row_work)))

    # per cursor row, its window of rows, as wide as a set of one takes; a
    # set copies its columns once, as take would copy the slice every time
    windows = (np.arange(n)[:, None] + np.arange(window_width(1))) % n
    while len(ids):
        # set up for this set of running restarts, whose width depends only
        # on how many run: its window columns and an improving buffer
        r = len(ids)
        width = window_width(r)
        win = windows[:, :width].copy()
        # one row past the window, its first lane set: argmax stops there, at
        # lane width * m, when no coordinate improves
        improving = np.ones((r, width + 1, m), dtype=bool)
        scored, first, lanes = improving[:, :width], improving[:, 0], improving.reshape(r, -1)
        # bound here, from the block, so that methods patched on _Block see every call
        row_deltas, flip, thr = block.row_deltas, block.flip, block.thr
        while True:
            row, col = np.divmod(pos, m)
            rows = win.take(row, axis=0, mode="wrap")
            s, _ = row_deltas(rows)
            np.less_equal(s, thr, out=scored)
            # the lanes before the cursor, all in the window's first row, do not count
            first &= cols >= col[:, None]
            c = lanes.argmax(axis=1)
            hit = c < width * m
            at = hit.nonzero()[0]
            if at.size:
                l, j = np.divmod(c[at], m)
                flip(at, rows[at, l], j)
            # past the flip at lane c, or past the window at c = width * m, up
            # to the certificate: that covers every coordinate against this
            # state, so no window has a flip beyond it
            pos -= col
            pos += c + hit
            np.minimum(pos, lim, out=pos)
            lim[at] = pos[at] + nm
            # N*m rejections in a row, all against one state: a local optimum
            done = (pos == lim).nonzero()[0]
            if done.size:
                break
        finished = ids[done]
        finals[finished] = block.x[done]
        ends[finished] = pos[done]
        keep = pos != lim
        ids, pos, lim = ids[keep], pos[keep], lim[keep]
        block.keep(keep)
    wcs = [WordCounts(n, tuple(row)) for row in krawtchouk_sums(finals, block.kraw).tolist()]
    qbs = qb_from_word_counts(wcs, prior, [m] * len(wcs)).tolist()
    sweeps = (-(-ends // nm)).tolist()
    return [(f.copy(), qb, sw, wc) for f, qb, sw, wc in zip(finals, qbs, sweeps, wcs)]


def coordinate_exchange(start: Design, prior: Prior) -> tuple[Design, float, int]:
    """Greedy first-improvement coordinate exchange from a given start.

    Sweeps the N*m coordinates row-major, accepting a flip iff it decreases
    QB by more than IMPROVE_TOL, and stops once N*m coordinates in a row
    have been rejected.  Returns (design, qb, sweeps), sweeps counting the
    sweeps begun: the same count as scanning on to the end of the first
    sweep that accepts nothing.  This is the lockstep kernel run on a block
    of one; the tests' exact_state oracle checks the t_k of every accepted
    flip against S_k counted from scratch before and after it.
    """
    [(entries, qb, sweeps, _)] = _exchange(start.entries[None].copy(), prior)
    return Design(entries), qb, sweeps


def _starts(cfg: OptimizerConfig, lo: int, hi: int) -> np.ndarray:
    """The random starts of restarts lo..hi-1, (R, N, m), read from Philox words.

    Restart r resets one Philox of key cfg.seed to counter r * 2^128, which
    is [0, 0, r mod 2^64, r >> 64] in 64-bit words, with an empty buffer,
    and draws ceil(N m / 2) words.  Entry t of its row-major design is +1
    where the top bit of the t-th 32-bit half of those words, low half
    first, is set, and -1 where it is clear: 2 b - 1 for the bit b that
    numpy's Generator.integers(0, 2) takes from the same half by Lemire's
    method.  The restarts are drawn in chunks of at most START_WORDS words
    (one restart at least), each chunk read in one pass, so the words held
    beside the starts stay a small part of them.
    """
    nm = cfg.runs * cfg.factors
    words = -(-nm // 2)
    bitgen = np.random.Philox(key=cfg.seed)
    state = bitgen.state  # a copy: counter 0, nothing buffered
    counter = state["state"]["counter"]
    x = np.empty((hi - lo, nm), dtype=np.int64)
    raw = np.empty((min(hi - lo, max(1, START_WORDS // words)), words), dtype=np.uint64)
    for c in range(lo, hi, len(raw)):
        chunk = raw[: min(len(raw), hi - c)]
        for i, r in enumerate(range(c, c + len(chunk))):
            counter[2:] = r % 2**64, r >> 64
            bitgen.state = state
            chunk[i] = bitgen.random_raw(words)
        # the 32-bit halves, low half first whatever the byte order; a
        # half's top bit is its sign bit, so the shift gives -1 where it is
        # set and 0 where it is clear, and -2 v - 1 maps those to +1 and -1
        halves = chunk.astype("<u8", copy=False).view("<i4")[:, :nm]
        np.right_shift(halves, 31, out=x[c - lo : c - lo + len(chunk)])
    x *= -2
    x -= 1
    return x.reshape(hi - lo, cfg.runs, cfg.factors)


def _run_block(
    cfg: OptimizerConfig, lo: int, hi: int
) -> tuple[tuple[RestartStat, ...], list[tuple[np.ndarray, WordCounts]]]:
    """Restarts lo..hi-1 through the lockstep kernel: their stats, and their
    final designs with those designs' exact word counts."""
    res = _exchange(_starts(cfg, lo, hi), cfg.prior)
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

    Restart r draws its start from Philox counter r * 2^128 of key cfg.seed
    (see _starts), so results are reproducible and independent of the
    execution schedule.  Restarts run in contiguous blocks of at most
    RESTARTS_PER_BLOCK, and of at most BLOCK_BYTES of run distances and
    designs (TooLargeError, before any allocation, when one restart does not
    fit); with threads > 1 the blocks are spread over a process pool of at
    most os.cpu_count() workers.  `on_block`, when given, receives each
    block's restart stats in restart order as soon as that block and every
    earlier one are done.  Only the final designs whose QB equals the least
    in the restart log are kept; among them the larger main-effects As
    efficiency wins, a non-estimable fit last, then the lower restart index.
    Their As come from one stacked as_efficiency.
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
    # the largest As wins, a non-estimable fit last; min keeps the first of
    # equals, the lowest restart index.  Every tie is scored in one pass.
    scored = zip(ties, as_efficiency([d for _, d, _ in ties]))
    (st, best, wc), best_as = min(scored, key=lambda t: np.inf if t[1] is None else -t[1])
    n_lb = int((best.column_sums() == 0).sum())
    return OptResult(
        best=best,
        qb=st.qb,  # qb_from_word_counts(wc, ...), as the search computed it
        word_counts=wc,
        restart_log=log,
        n_level_balanced=n_lb,
        as_main=best_as,
    )
