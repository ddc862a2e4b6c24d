"""Projection analysis: estimability and mean As efficiency over submodels.

For every f-subset of factors and every choice of t of its C(f,2) two-factor
interactions, the model (intercept + f mains + the t interactions) is scored
by As efficiency; singular models count as efficiency 0 and are tallied as
non-estimable.  Under effect marginality these models are exactly the
f-factor projections of the second-order model space.

Scoring is batched.  The centered Grams of a stack of f-subsets are built at
once, an (S, q, q) array with q = f + C(f,2): design.model_gram forms each
subset's intercept, mains and pairs and their Gram, and design.schur_center
centers it.  Each model's Gram is the p x p block (p = f + t) of
its subset's Gram on the f mains and its t pairs.  Levels t are taken in
increasing order.  Within a level the choices of pairs are unranked in
chunks, for one subset or for a group of subsets that share a chunk, and
the models a chunk leaves go to eigvalsh in windows.  Two steps keep most
models away from eigvalsh:

- Superset screen.  Dropping one pair from a model leaves a model of level
  t - 1 whose Gram is a principal submatrix of the model's Gram.  By Cauchy
  interlacing the model's smallest eigenvalue is at most the submodel's and
  its largest at least the submodel's, so in exact arithmetic its
  reciprocal condition is no larger, and a model with a non-estimable
  one-pair-less submodel is not estimable either.  When level t - 1 of the
  stack was scored, such a model is counted non-estimable without a call.
  Each subset keeps one flag per choice of level t - 1, and a model finds
  its submodels' flags by the combinatorial ranks of its dropped-one
  choices.  In floating point the eigenvalues only approximate this order:
  that every screened model is non-estimable under one eigvalsh call per
  model is checked by the oracle tests on the paper's designs and on random
  ones, not proved.  With a level missing below t (t_values such as
  {5: [8]}), level t is scored without the screen.
- Dedup of identical blocks.  The blocks of a window are gathered and
  sorted by their bytes.  Each run of byte-identical blocks goes to
  eigvalsh once, in one call per window, and every model takes its run's
  result.

Memory is bounded by a byte budget, not by the number of models: a chunk's
pair rows and ranks, and a window's blocks, each take at most WINDOW_BYTES
(a window holds max(1, WINDOW_BYTES // (8 p^2)) models), and the flags of a
level at most FLAG_BYTES per stack, down to one subset per stack.

Byte-equal input gives the same LAPACK output however the blocks are
batched, so each model's eigenvalues and efficiency are the bits a
one-model-at-a-time loop computes, and the per-model values come out in the
same (subset, choice) order.  The cell mean is math.fsum over the estimable
values, correctly rounded in any order.  So the per-model values and the
report, CSV included, do not depend on the screen, the dedup or the budgets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .criteria import as_from_eigenvalues
from .design import Design, model_gram, schur_center
from .errors import TooLargeError

# Bytes of a chunk's pair rows and ranks and of a window's blocks, and
# f-subsets per stack of centered Grams.  Both only bound memory: a window of
# 16 x 16 blocks holds 64 models, and its distinct blocks take one eigvalsh
# call.
WINDOW_BYTES = 2**17
SUBSETS_PER_STACK = 1024
# Bytes of one level's flags, one per model of a stack; a stack is cut to
# fit, but never below one subset.
FLAG_BYTES = 2**20
# A level may have fewer choices of pairs than this, so that ranks fit int64.
_CHOICES_CAP = 2**62


@dataclass(frozen=True)
class ProjectionRow:
    f: int
    t: int
    n_models: int
    no_est: int
    mean_as: float


@dataclass(frozen=True)
class ProjectionCounts:
    """Work done for one (f, t) cell; screened + scored == models."""

    models: int
    screened: int  # counted non-estimable by the superset screen
    scored: int  # models that took an eigvalsh result
    distinct: int  # distinct blocks sent to eigvalsh
    no_est: int
    eigvalsh_calls: int


@dataclass(frozen=True)
class ProjectionReport:
    rows: tuple[ProjectionRow, ...]
    counts: tuple[ProjectionCounts, ...]  # counts[i] is rows[i]'s; not in the CSV

    def cell(self, f: int, t: int) -> ProjectionRow:
        for row in self.rows:
            if row.f == f and row.t == t:
                return row
        raise KeyError(f"no projection cell (f={f}, t={t})")

    def to_csv(self) -> str:
        lines = ["f,t,n_models,no_est,mean_as"]
        lines += [
            f"{r.f},{r.t},{r.n_models},{r.no_est},{r.mean_as:.3f}" for r in self.rows
        ]
        return "\n".join(lines) + "\n"


def _choice_chunks(f: int, n_pairs: int, t: int, size: int, screen: bool):
    """Runs of at most `size` choices of t of the P = n_pairs pairs, in lexicographic order.

    Yields (start, rows, ranks) with one column per choice: rows[:, c], shape
    (f + t, k), holds the Gram rows of choice start + c (the f mains, then
    its pairs), and ranks[j, c], when `screen` is set, the lexicographic rank
    among the choices of t - 1 pairs of that choice with its j-th pair
    dropped.

    Choices are unranked in the combinatorial number system: with
    x = C(P, t) - rank, the i-th pair is P - w for the smallest w with
    C(w, t - i) >= x, and x then drops by a_i = C(w - 1, t - i), ending at 1.
    A choice c_0 < ... < c_{r-1} has rank C(P, r) - 1 - sum_i C(P - 1 - c_i,
    r - i).  With c_j dropped (r = t - 1) the pairs before j keep their
    place, giving b_i = C(w - 1, t - 1 - i), and the pairs after it move up
    one, giving a_i; so the rank is C(P, t - 1) - x + sum_{i<=j} a_i -
    sum_{i<j} b_i, with x taken before the first step.
    """
    # every x, a_i and b_i is below C(P, t) or C(P, t - 1), so a larger C(w, u)
    # may be stored as the cap
    comb = np.array(
        [[min(math.comb(w, u), _CHOICES_CAP) for w in range(n_pairs + 1)] for u in range(t + 1)]
    )
    n_choices = math.comb(n_pairs, t)
    for start in range(0, n_choices, size):
        k = min(size, n_choices - start)
        x = n_choices - np.arange(start, start + k)
        rows = np.empty((f + t, k), dtype=np.intp)
        rows[:f] = np.arange(f)[:, None]
        ranks = np.empty((t, k), dtype=np.int64) if screen else None
        if screen:
            acc = math.comb(n_pairs, t - 1) - x
        for i in range(t):
            w = np.searchsorted(comb[t - i], x)
            rows[f + i] = f + n_pairs - w
            a = comb[t - i].take(w - 1)
            x -= a
            if screen:
                acc += a
                ranks[i] = acc
                acc -= comb[t - 1 - i].take(w - 1)
        yield start, rows, ranks


def _score_blocks(gram: np.ndarray, off: np.ndarray, n: int):
    """As efficiencies of the blocks at flat positions off (L, p, p) of the Gram stack.

    Byte-identical blocks are scored once: the blocks are sorted by their
    bytes, each run of equal neighbours goes to eigvalsh as its first block,
    and every block takes its run's result.  Returns (efficiencies, NaN where
    not estimable; distinct blocks), from one eigvalsh call.
    """
    blocks = gram.take(off)
    bits = blocks.reshape(len(off), -1).view(np.uint64)
    order = bits.view(np.dtype((np.void, blocks[0].nbytes))).ravel().argsort(kind="stable")
    ordered = bits[order]
    starts = np.ones(len(order), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    first = order[starts]  # the earliest of each run of equal blocks
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(starts) - 1
    eff = as_from_eigenvalues(np.linalg.eigvalsh(blocks[first]), n)
    return eff[inverse], len(first)


def _score_subsets(
    x: np.ndarray, f: int, wanted: tuple[int, ...]
) -> dict[int, tuple[np.ndarray, ProjectionCounts]]:
    """Per t: (efficiencies of the estimable models, the cell's counts).

    Models are taken f-subset by f-subset in lexicographic order, and within
    a subset by choice of pairs in lexicographic order.
    """
    n, m = x.shape
    pair_pos = np.array(list(itertools.combinations(range(f), 2)), dtype=np.intp).reshape(-1, 2)
    n_pairs = len(pair_pos)
    q = f + n_pairs
    levels = sorted(set(wanted))
    vals: dict[int, list[np.ndarray]] = {t: [] for t in levels}
    counts = {t: dict.fromkeys(ProjectionCounts.__dataclass_fields__, 0) for t in levels}
    widest = max((math.comb(n_pairs, t) for t in levels), default=1)
    per_stack = min(SUBSETS_PER_STACK, max(1, FLAG_BYTES // widest))
    xf = x.astype(float)  # every +-1 product and sum is exact
    subsets = itertools.combinations(range(m), f)
    while stack := list(itertools.islice(subsets, per_stack)):
        fs = np.array(stack, dtype=np.intp)
        gram = schur_center(model_gram(xf, fs, fs[:, pair_pos]), n)  # (S, q, q)
        flags = {}  # t -> (S, C(P, t)), True where not estimable: the screen of level t + 1
        for t in levels:
            p = f + t
            n_choices = math.comb(n_pairs, t)
            screen = t - 1 in flags
            prev = flags.pop(t - 1, None)
            bad_t = np.empty((len(stack), n_choices), dtype=bool) if t + 1 in wanted else None
            chunk = max(1, WINDOW_BYTES // (8 * (p + t)))  # choices: their rows and ranks
            window = max(1, WINDOW_BYTES // (8 * p * p))  # models: their blocks
            group = max(1, chunk // n_choices)  # subsets that share one chunk
            cell = counts[t]
            for s0 in range(0, len(stack), group):
                g = min(group, len(stack) - s0)
                for c0, rows, ranks in _choice_chunks(f, n_pairs, t, chunk, screen):
                    k = rows.shape[1]
                    if screen:
                        bad = prev[s0 : s0 + g][:, ranks].any(axis=1)
                    else:
                        bad = np.zeros((g, k), dtype=bool)
                    si, ci = np.nonzero(~bad)
                    cell["models"] += g * k
                    cell["screened"] += g * k - len(si)
                    cell["scored"] += len(si)
                    for w0 in range(0, len(si), window):
                        ws, wc = si[w0 : w0 + window], ci[w0 : w0 + window]
                        r = rows[:, wc].T
                        off = (s0 + ws)[:, None, None] * (q * q) + r[:, :, None] * q
                        eff, distinct = _score_blocks(gram, off + r[:, None, :], n)
                        cell["distinct"] += distinct
                        cell["eigvalsh_calls"] += 1
                        singular = np.isnan(eff)
                        bad[ws, wc] = singular
                        vals[t].append(eff[~singular])
                    cell["no_est"] += int(bad.sum())
                    if bad_t is not None:
                        bad_t[s0 : s0 + g, c0 : c0 + k] = bad
            if bad_t is not None:
                flags[t] = bad_t
    return {
        t: (np.concatenate(vals[t]) if vals[t] else np.empty(0), ProjectionCounts(**counts[t]))
        for t in levels
    }


def projection_report(
    d: Design,
    f_values: Iterable[int],
    t_values: Mapping[int, Sequence[int]] | None = None,
) -> ProjectionReport:
    """Mean As and non-estimable counts per (f, t) cell.

    t_values optionally restricts the interaction counts per f; the default
    is t = 1..C(f,2).  Only t in 0..C(f,2) are scored, each once and in
    increasing order; a t_values[f] is only asked whether it holds each of
    them, so a range of any length costs nothing.
    """
    m = d.factors
    f_sorted = sorted(set(f_values))
    for f in f_sorted:
        if f < 1:
            raise ValueError(f"projection size must be >= 1, got {f}")
        if f > m:
            raise ValueError(f"projection size {f} exceeds {m} factors")
    rows = []
    counts = []
    for f in f_sorted:
        max_t = f * (f - 1) // 2
        if t_values and f in t_values:
            wanted = tuple(t for t in range(max_t + 1) if t in t_values[f])
        else:
            wanted = tuple(range(1, max_t + 1))
        for t in wanted:
            if math.comb(max_t, t) >= _CHOICES_CAP:
                raise TooLargeError(
                    f"{f}-factor projections with t = {t} have C({max_t}, {t}) models"
                    " per factor subset, too many to score"
                )
        scores = _score_subsets(d.entries, f, wanted)
        for t in wanted:
            vals, cell = scores[t]
            n_models = math.comb(m, f) * math.comb(max_t, t)
            assert cell.models == n_models == len(vals) + cell.no_est
            rows.append(
                ProjectionRow(
                    f=f,
                    t=t,
                    n_models=n_models,
                    no_est=cell.no_est,
                    mean_as=math.fsum(vals) / n_models,
                )
            )
            counts.append(cell)
    return ProjectionReport(rows=tuple(rows), counts=tuple(counts))
