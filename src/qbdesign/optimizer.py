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

with t_k an integer, scored from the design alone.  In the inner product
g_r = x_i . x_r = m - 2 d_ir every step is one polynomial family (the
Krawtchouk difference identities): with Q_0 = 0 and Q_k(g) = K_{k-1}(d - 1;
m - 2), so Q_1 = 1, Q_2 = g, Q_3 = (g^2 - m + 2) / 2 and Q_4 = g (g^2 -
3m + 8) / 6,

    K_k(d + sg) - K_k(d) = 2 [Q_{k-1}(g) - sg Q_k(g)]

for each step sg = +-1 that stays inside 0..m.  Summed over every run, the
run itself (g = m, sg = +1) taken back out,

    t_k = Q_k(m) - Q_{k-1}(m) + sum_r Q_{k-1}(g_r) - x_ij sum_r Q_k(g_r) x_rj.

A block holds its designs in float64 with a trailing column of ones, so one
BLAS matmul of the rows [Q_1 .. Q_k](g_r) by the ones-extended designs
scores a row's m flips for every k in O(N m k_max): it gives sum_r Q_k(g_r)
x_rj in the first m columns and sum_r Q_k(g_r), which t_{k+1} reads, in the
ones column (for t_2 it is N Q_1, a constant).  Two kernels, chosen by
k_max, differ only in how they make those rows.  Up to k = 2 (every
first-order search, and second order at m <= 2) the moment kernel writes g,
one matmul of the row by the designs, into row 1 of a kept operand [1; g];
with the column sums c_j that gives

    t_1 = 1 - x_ij c_j,    t_2 = N + m - 1 - x_ij (X'g)_j,

whose partial sums are integers no larger than N m, the size of the design
itself, so float64 holds them exactly and the kernel needs no refusal.
Past k = 2, where the rows would need g^2, g^3 and denominators of 3, the
table kernel reads them from a table of Q by x_i . x_r + 1 = m + 1 - 2 d_ir,
one matmul on the ones-extended rows, with one take.  The table comes from
the block's Krawtchouk table: 4 Q_k(g) = K_k(d - 1) - K_k(d + 1) for
0 < d < m, and at the ends, where only one step stays inside 0..m,
Q_k(m) = Q_{k-1}(m) + (K_k(0) - K_k(1)) / 2 and Q_k(-m) = (-1)^(k-1) Q_k(m).
Its entries are integers and its partial sums at most 2 (N + 1) max |Q|,
so a block refuses a table where that could reach 2^53 (at the int64
check's largest m, N = 2, it stays under 0.072 * 2^53).  The QB weights
are scaled by 4, a power of two, so each flip's sum s is the same float as
4 (w_1 t_1 + w_2 t_2 + ...) summed left to right: N^2 times its QB change,
undivided.
A flip improves when s / N^2 < -IMPROVE_TOL, which holds exactly when
s <= thr (see _improve_threshold): the search divides nothing, and
qb_delta makes the one division.  A flip negates its entry of xo by the
entry's flat index, (restart N + row) (m + 1) + column: an iteration's
flips, at most one per restart, are one fancy get and set.  No decision
reads S_k itself, so the designs are the whole state: a block counts the
word counts of its final designs once, in one krawtchouk_sums with the
Krawtchouk table it built at the start, and each QB is
qb_from_word_counts of those exact integers.

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
table.  Only the window's first row has lanes before the cursor, and the
array path masks them in a few array passes, none larger than the window,
that cost about as much for one running restart as for many.  So a set of
at most SCALAR_CURSORS restarts (a small block, a block's tail and
coordinate_exchange's block of one) keeps its cursors as Python ints: one
loop over the whole window's argmax lanes, which costs per restart,
searches again from the cursor where a lane lies before it, moves each
cursor and works out its flip's flat index.  Both read the same rows
and lanes and make the same flips.  No quantity mixes restarts,
and every decision rests on integer t_k and on the same float expression
per restart, so the results do not depend on the block size, the window
width or the number of worker processes.  The tests hold the oracle of the
row deltas: their exact_state fixture checks, at each accepted flip, 4 t_k
against S_k counted from scratch before and after it.
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
# Sets of at most this many running restarts keep their cursors in Python
# ints, larger sets in arrays.  The int loop costs per restart, the array
# passes per iteration, so ints win on few restarts and arrays on many.  Set
# by set (both paths on the same sets of 40 blocks of 64, 2-vCPU x86_64, two
# runs), ints were no slower up to 25-26 running restarts at 12x14, 25-31 at
# 24x7 o2, 22-24 at 16x6 o2, 23-24 at 32x10, 38 at 48x12 o2 and 45-54 at
# 64x30 o2 (first order unless "o2"), and 1.11-1.28x slower at 64.  The cut
# is below the smallest seen, so no shape measured runs ints where arrays
# are faster.
SCALAR_CURSORS = 12
# Bytes of a block's int64 (R, N, m) starts beside, during the search, its
# float64 (R, N, m + 1) designs and, in the final count, its int64 (R, N, m)
# finals and (R, N, N) run distances; the restarts per block are cut to fit,
# and a search whose one restart does not fit is refused before anything is
# allocated.
BLOCK_BYTES = 2**27


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
    row_deltas and flip read are made at build and again in keep, and the
    kernel's matmul buffers are kept while the rows' shape holds.  kraw,
    the int64 table of K_1..K_kmax, gives the final word counts, t's terms
    shared by every flip and, past k_max = 2, the table _q of Q_1..Q_kmax;
    _q is None when the block runs the moment kernel.
    A flip whose row-delta sum s has s <= thr lowers QB by more than
    IMPROVE_TOL.  row_deltas and flip are the package's one row-delta and
    one flip; qb_delta and coordinate_exchange run a block of one.
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
        self._w4 = 4.0 * np.array(weights)[:, None, None, None]
        self.thr = _improve_threshold(self.n * self.n)
        self._out = None
        # t_k's terms shared by every flip: the run itself, Q_k(m) - Q_{k-1}(m)
        # = (K_k(0) - K_k(1)) / 2, taken back out, and sum_r Q_1(g_r) = N Q_1
        t0 = 0.5 * (self.kraw[:, 0] - self.kraw[:, 1])
        t0[1:2] += self.n * t0[0]
        self._t0 = t0[:, None, None, None]
        self._q = None  # the moment kernel makes its rows from g
        if self.k_max > 2:
            # Q_k at d = 0..m: 4 Q_k(d) = K_k(d - 1) - K_k(d + 1) inside, and at
            # the ends the values whose one step inside 0..m holds
            q = np.empty((self.m + 1, self.k_max), dtype=np.int64)
            q[1:-1] = ((self.kraw[:, :-2] - self.kraw[:, 2:]) // 4).T
            q[0] = np.cumsum(self.kraw[:, 0] - self.kraw[:, 1]) // 2  # Q_k(m)
            q[-1] = q[0] * (-1) ** np.arange(self.k_max)
            # the table kernel sums these in float64: exact while its partial
            # sums, at most 2 (N + 1) max |Q|, stay below 2^53
            if 2 * (self.n + 1) * int(np.abs(q).max()) >= 2**53:
                raise TooLargeError(f"row deltas of a {self.n}x{self.m} design pass exact float64")
            # Q at distance d in row m + 1 - 2d of 2m + 2, the value of
            # x_i . x_r + 1 on the ones-extended rows; take reads the negative
            # ones from the end
            self._q = np.zeros((2 * self.m + 2, self.k_max))
            self._q[self.m + 1 - 2 * np.arange(self.m + 1)] = q
        self._views()

    def _views(self) -> None:
        """The views of xo that row_deltas reads, made again when xo is replaced."""
        self._at = np.arange(len(self.xo))[:, None]
        # the moment kernel's g leaves the ones column out, the table's index keeps it
        self._xt = (self.x if self._q is None else self.xo).swapaxes(1, 2)
        self._xo1 = self.xo[:, None]
        self._xf = self.xo.reshape(-1)

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
        # One float64 matmul per row of the (R, L, k, N) operand, Q_1..Q_k at
        # every run, against the ones-extended designs, laid out k-major so
        # that each pass below runs over long contiguous rows: a[k - 1] is
        # sum_r Q_k(g_r) x_rj in the first m columns and sum_r Q_k(g_r) in the
        # ones column.  The output, its views and the moment kernel's operand
        # with its Q_2 row live while the window's shape, their key, holds; t
        # and s are new arrays, so no caller sees them.
        if self._out is None or self._out[0] != rows.shape:
            self._out = None  # freed before its successor is allocated
            a = np.empty((k,) + xi.shape)
            b = np.ones(rows.shape + (k, self.n)) if self._q is None else None
            g = b[..., 1, :] if b is not None and k > 1 else None
            self._out = rows.shape, a.transpose(1, 2, 0, 3), a, b, g
        _, out, a, b, g = self._out
        if self._q is None:
            # Q_1 = 1 is b's row 0, and Q_2 = g goes into row 1
            if g is not None:
                np.matmul(xi[..., :-1], self._xt, out=g)
        else:
            b = self._q.take((xi @ self._xt).astype(np.intp), axis=0).swapaxes(-1, -2)
        np.matmul(b, self._xo1, out=out)
        # t_k = t0_k + sum_r Q_{k-1}(g_r) - x_ij a[k - 1], exact on these
        # integers; the sum is the ones column of row k - 1, in t0 for k = 2
        t = a * xi
        np.subtract(self._t0, t, out=t)
        if k > 2:
            t[2:] += a[1:-1, ..., -1:]
        # 4 w_1 t_1 + 4 w_2 t_2 + ... left to right (add.reduce over the
        # outer axis, or at k = 2 its one add), so each sum is the same float
        # a per-coordinate sum would give; column m, the ones column, is left out
        tw = t * self._w4
        s = tw[0] + tw[1] if k == 2 else np.add.reduce(tw, axis=0)
        return s[..., :-1], t

    def flip(self, flat: np.ndarray) -> None:
        """Sign-switch the entries of xo at the distinct flat indices flat."""
        xf = self._xf
        xf[flat] = -xf[flat]

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
        wm = width * m
        # bound here, from the block, so that methods patched on _Block see every call
        row_deltas, flip, thr, shape = block.row_deltas, block.flip, block.thr, block.xo.shape
        # few running restarts keep their cursors as Python ints (see SCALAR_CURSORS)
        scalar = r <= SCALAR_CURSORS
        if scalar:
            pl, ll = pos.tolist(), lim.tolist()
            row, col = map(list, zip(*[divmod(p, m) for p in pl]))
        while True:
            if not scalar:
                row, col = np.divmod(pos, m)
            rows = win.take(row, axis=0, mode="wrap")
            s, _ = row_deltas(rows)
            np.less_equal(s, thr, out=scored)
            # the lanes before the cursor, all in the window's first row, do not count
            if not scalar:
                first &= cols >= col[:, None]
            c = lanes.argmax(axis=1)
            # past the flip at lane c, or past the window at c = width * m, up
            # to the certificate: that covers every coordinate against this
            # state, so no window has a flip beyond it.  N*m rejections in a
            # row, all against one state, are a local optimum.
            if scalar:
                # window row l of cursor row i is (i + l) mod N, the table's
                # entry, so a flip's flat index in xo needs no gather
                flat, done = [], False
                for h, ch in enumerate(c.tolist()):
                    k = col[h]
                    if ch < k:
                        ch = k + int(lanes[h, k:].argmax())
                    hit = ch < wm
                    p = pl[h] - k + ch + hit
                    pl[h] = p = p if p < ll[h] else ll[h]
                    if hit:
                        l, j = divmod(ch, m)
                        flat.append((h * n + (row[h] + l) % n) * (m + 1) + j)
                        ll[h] = p + nm
                    elif p == ll[h]:
                        done = True
                    row[h], col[h] = divmod(p, m)
                if flat:
                    flip(np.array(flat))
            else:
                hit = c < wm
                at = hit.nonzero()[0]
                if at.size:
                    l, j = np.divmod(c[at], m)
                    flip(np.ravel_multi_index((at, rows[at, l], j), shape))
                pos -= col
                pos += c + hit
                np.minimum(pos, lim, out=pos)
                lim[at] = pos[at] + nm
                done = (pos == lim).any()
            if done:
                break
        if scalar:
            pos, lim = np.array(pl, dtype=np.intp), np.array(ll, dtype=np.intp)
        done = (pos == lim).nonzero()[0]
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
    of one, so its cursor is a Python int throughout (see SCALAR_CURSORS);
    the tests' exact_state oracle checks the t_k of every accepted flip
    against S_k counted from scratch before and after it.
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
    method.  Every restart's words are drawn into one array and read in one
    pass; at 4 bytes an entry, they are freed on return, before the block's
    float designs (8 (m + 1) bytes a row) exist, so never set its peak.
    """
    nm = cfg.runs * cfg.factors
    bitgen = np.random.Philox(key=cfg.seed)
    state = bitgen.state  # a copy: counter 0, nothing buffered
    counter = state["state"]["counter"]
    raw = np.empty((hi - lo, -(-nm // 2)), dtype=np.uint64)
    for i, r in enumerate(range(lo, hi)):
        counter[2:] = r % 2**64, r >> 64
        bitgen.state = state
        raw[i] = bitgen.random_raw(raw.shape[1])
    # the 32-bit halves, low half first whatever the byte order; a half's top
    # bit is its sign bit, so the shift gives -1 where it is set and 0 where
    # it is clear, and -2 v - 1 maps those to +1 and -1
    x = np.empty((hi - lo, nm), dtype=np.int64)
    np.right_shift(raw.astype("<u8", copy=False).view("<i4")[:, :nm], 31, out=x)
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
