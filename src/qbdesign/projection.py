"""Projection analysis: estimability and mean As efficiency over submodels.

For every f-subset of factors and every choice of t of its C(f,2) two-factor
interactions, the model (intercept + f mains + the t interactions) is scored
by As efficiency; singular models count as efficiency 0 and are tallied as
non-estimable.  Under effect marginality these models are exactly the
f-factor projections of the second-order model space.

Scoring is batched.  The centered Grams of a stack of f-subsets are built at
once, an (S, q, q) array with q = f + C(f,2): design.model_gram forms each
subset's intercept, mains and pairs and their Gram, and design.schur_center
centers it.  Each model's Gram is the p x p block (p = f + t) of its
subset's Gram on the f mains and its t pairs.  Levels t = 1..T are taken
in increasing order: level 1 is every single pair of each subset, and each
level t > 1 joins level t - 1.  Three steps make the work scale with the
distinct subset Grams, the models that may be estimable and the distinct
blocks:

- Subset groups.  The subsets of a stack are grouped by the bytes of their
  centered Grams, and only one representative per group is scored; every
  member takes its values and counts, in subset order.
- Levels by a join.  Dropping one pair from a model leaves a model of level
  t - 1 whose Gram is a principal submatrix of the model's Gram.  By Cauchy
  interlacing the model's smallest eigenvalue is at most the submodel's and
  its largest at least the submodel's, so in exact arithmetic its
  reciprocal condition is no larger, and a model with a non-estimable
  one-pair-less submodel is not estimable either.  So level t > 1 is built
  from the estimable models of level t - 1 alone, by Apriori candidate
  generation (Agrawal & Srikant, VLDB 1994; see _joined), and the other
  models are counted non-estimable ("screened") without being built.  In
  floating point the eigenvalues only approximate this order: that every
  screened model is non-estimable under one eigvalsh call per model is
  checked by the oracle tests on the paper's designs and on random ones,
  not proved.
- Dedup per slice.  The models of a slice of a level are keyed by their
  blocks' entries as small integers (see _keys) and sorted once.  Only the
  first block of each run of equal keys is gathered in float and goes to
  eigvalsh, and every model takes its run's result.

Memory is bounded by byte budgets, not by the number of models or runs.
A stack takes as many subsets as fit FLAG_BYTES, at 8 (q + 1) N bytes of
float columns each (model_gram builds them) plus a byte per model of the
widest level's flags, but never fewer than one subset.  A slice holds at
most max(FLAG_BYTES // (8 (p + t)), C(f,2)) candidates, and the key
temporaries and the blocks of one eigvalsh call take at most WINDOW_BYTES
(a call gets max(1, WINDOW_BYTES // (8 p^2)) blocks).  The estimable
models of a level are kept for the join while the next level is scored:
an index and a byte per pair each (two bytes past q = 255).

Byte-equal input gives the same LAPACK output however the blocks are
batched, so each model's eigenvalues and efficiency are the bits a
one-model-at-a-time loop computes, and the per-model values come out in the
same (subset, choice) order.  The cell mean is math.fsum over the estimable
values, correctly rounded in any order.  So the per-model values and the
report, CSV included, do not depend on the groups, the join, the dedup or
the budgets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .criteria import as_from_eigenvalues
from .design import Design, model_gram, schur_center
from .errors import TooLargeError

# Bytes of the blocks of one eigvalsh call and of the key temporaries.  It
# only bounds memory: a call takes up to 64 blocks of 16 x 16.
WINDOW_BYTES = 2**17
# Bytes of a stack, at its model columns and one level's flags (a stack is
# cut to fit, but never below one subset), and of a slice of a level's
# candidates, about 8 (p + t) each.  A slice is deduped at once and a stack
# grouped at once: wider ones send fewer blocks to eigvalsh.
FLAG_BYTES = 2**23
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
    """Work done for one (f, t) cell; screened + scored == models.

    Every member of a subset group counts its representative's models, so
    models, screened, scored and no_est do not depend on the groups.
    distinct and eigvalsh_calls are the work done: blocks are distinct
    within a slice of one stack's level.
    """

    models: int
    screened: int  # counted non-estimable, never built: a submodel is not estimable
    scored: int  # models that took an eigvalsh result
    distinct: int  # distinct blocks sent to eigvalsh
    no_est: int
    eigvalsh_calls: int
    subsets: int  # representatives scored: distinct subset Grams per stack


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


def _joined(reps: np.ndarray, rows: np.ndarray, ok: np.ndarray, f: int, comb: np.ndarray,
            size: int):
    """Level-t models whose every one-pair-less submodel is estimable, in (rep, choice) order.

    reps and rows are the estimable models of level t - 1 >= 1, in (rep,
    choice) order, and ok[r, rank] flags them by colex rank.  Two of them of
    one rep that share their first t - 2 pairs, A before B, make the
    candidate A + B's last pair, whose submodels without its last two pairs
    are A and B (Apriori candidate generation).  The others, without pair j
    < t - 2, are looked up in ok: a choice c_0 < ... < c_{r-1} of the pairs
    has colex rank sum_i C(c_i, i + 1) (the combinatorial number system), so
    with c_j dropped the rank is sum_{i<j} C(c_i, i + 1) + sum_{i>j} C(c_i,
    i), a prefix and a suffix sum.  Yields (reps, rows) runs of at most
    about `size` candidates, pruned.
    """
    e, t = rows.shape[0], rows.shape[1] + 1
    # runs of models of one rep that share their first t - 2 pairs
    last = np.empty(e, dtype=bool)
    last[-1:] = True
    last[:-1] = reps[1:] != reps[:-1]
    last[:-1] |= (rows[1:, : t - 2] != rows[:-1, : t - 2]).any(axis=1)
    run_last = np.flatnonzero(last)
    later = run_last[np.searchsorted(run_last, np.arange(e))] - np.arange(e)  # each one's B's
    ends = later.cumsum()
    i0 = 0
    while i0 < e:
        i1 = max(i0 + 1, int(np.searchsorted(ends, ends[i0] - later[i0] + size, side="right")))
        cnt = later[i0:i1]
        a = np.repeat(np.arange(i0, i1), cnt)
        b = a + 1 + np.arange(len(a)) - np.repeat(cnt.cumsum() - cnt, cnt)
        i0 = i1
        rep = reps[a]
        cand = np.empty((len(a), t), dtype=np.intp)
        cand[:, :-1] = rows[a]
        cand[:, -1] = rows[b, -1]
        if t > 2:  # the rank without c_0 is a suffix sum; each j moves c_{j-1} to the prefix
            c = cand - f
            rank = comb[np.arange(1, t), c[:, 1:]].sum(axis=1)
            keep = ok[rep, rank]
            for j in range(1, t - 2):
                rank += comb[j].take(c[:, j - 1]) - comb[j].take(c[:, j])
                keep &= ok[rep, rank]
            rep, cand = rep[keep], cand[keep]
        yield rep, cand


def _group(a: np.ndarray):
    """(first, inverse) of the rows of a 2-D array, grouped by their bytes.

    first[g] is the earliest row of group g and inverse[i] is row i's group;
    groups are numbered in byte order.
    """
    order = a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).ravel().argsort(kind="stable")
    ordered = a[order]
    starts = np.empty(len(a), dtype=bool)
    starts[:1] = True
    (ordered[1:] != ordered[:-1]).any(axis=1, out=starts[1:])
    inverse = np.empty_like(order)
    inverse[order] = starts.cumsum() - 1
    return order[starts], inverse


def _keys(gram: np.ndarray, f: int):
    """Tables of a stack's block keys: (head, row, ids), in one small dtype.

    ids[r] is Gram r with each entry's index among the stack's distinct
    values (by bits), head[r] the group of its f x f mains block, and
    row[r, c] the group of pair c's entries on the mains and its diagonal
    entry.  A model's block is symmetric, and eigvalsh reads one triangle,
    so its key is head, the row of each of its pairs and the ids between
    its pairs: equal keys, byte-equal blocks.
    """
    n_reps, q = gram.shape[:2]
    ids = _group(gram.view(np.uint64).reshape(-1, 1))[1].reshape(gram.shape)
    head = _group(ids[:, :f, :f].reshape(n_reps, -1))[1]
    diag = ids.diagonal(axis1=1, axis2=2)[:, f:, None]
    row = _group(np.concatenate([ids[:, f:, :f], diag], axis=2).reshape(-1, f + 1))[1]
    dtype = np.min_scalar_type(max(ids.max(), len(head), len(row)))
    return head.astype(dtype), row.astype(dtype).reshape(n_reps, q - f), ids.astype(dtype)


def _pairs(k: int) -> np.ndarray:
    """Positions (a, b), a < b, of the C(k, 2) pairs of k items, in lexicographic order."""
    return np.array(list(itertools.combinations(range(k), 2)), dtype=np.intp).reshape(-1, 2)


def _score_models(gram, keys, reps, rows, f: int, n: int):
    """As efficiencies, NaN where not estimable, of the models (reps, rows).

    The models are sorted by their keys (see _keys), and the first block of
    each run of equal keys is gathered in float and goes to eigvalsh,
    WINDOW_BYTES of blocks per call.  Returns (efficiencies, distinct
    blocks, eigvalsh calls).
    """
    head, row, ids = keys
    k, t = rows.shape
    q = gram.shape[-1]
    below = _pairs(t)
    key = np.empty((k, 1 + t + len(below)), dtype=head.dtype)
    step = max(1, WINDOW_BYTES // (8 * key.shape[1]))
    for k0 in range(0, k, step):
        rp, rw = reps[k0 : k0 + step, None], rows[k0 : k0 + step]
        part = key[k0 : k0 + step]
        part[:, 0] = head.take(rp[:, 0])
        part[:, 1 : 1 + t] = row.take(rp * row.shape[1] + (rw - f))
        part[:, 1 + t :] = ids.take((rp * q + rw[:, below[:, 1]]) * q + rw[:, below[:, 0]])
    first, inverse = _group(key)
    p = f + t
    eff = np.empty(len(first))
    window = max(1, WINDOW_BYTES // (8 * p * p))
    for w0 in range(0, len(first), window):
        w = first[w0 : w0 + window]
        r = np.empty((len(w), p), dtype=np.intp)
        r[:, :f] = np.arange(f)
        r[:, f:] = rows[w]
        off = (reps[w] * (q * q))[:, None, None] + r[:, :, None] * q + r[:, None, :]
        eff[w0 : w0 + window] = as_from_eigenvalues(np.linalg.eigvalsh(gram.take(off)), n)
    return eff[inverse], len(first), -(-len(first) // window)


def _score_subsets(
    x: np.ndarray, f: int, t_max: int
) -> dict[int, tuple[np.ndarray, ProjectionCounts]]:
    """Per t = 1..t_max <= C(f,2): (efficiencies of the estimable models, the cell's counts).

    Models are taken f-subset by f-subset in lexicographic order, and within
    a subset by choice of pairs in lexicographic order.
    """
    n, m = x.shape
    pair_pos = _pairs(f)
    n_pairs = len(pair_pos)
    q = f + n_pairs
    levels = range(1, t_max + 1)
    vals: dict[int, list[np.ndarray]] = {t: [] for t in levels}
    counts = {t: dict.fromkeys(ProjectionCounts.__dataclass_fields__, 0) for t in levels}
    widest = max((math.comb(n_pairs, t) for t in levels), default=1)
    per_stack = max(1, FLAG_BYTES // (widest + 8 * (q + 1) * n))  # flags and float columns
    # comb[u, w] = C(w, u); any entry a rank sums is below C(P, t) < _CHOICES_CAP
    comb = np.array([[min(math.comb(w, u), _CHOICES_CAP) for w in range(n_pairs + 1)]
                     for u in range(t_max + 1)])
    singles = np.arange(f, q, dtype=np.intp)[:, None]  # the Gram row of each pair
    small = np.min_scalar_type(q)  # the dtype of kept Gram rows
    xf = x.astype(float)  # every +-1 product and sum is exact
    subsets = itertools.combinations(range(m), f)
    while stack := list(itertools.islice(subsets, per_stack)):
        fs = np.array(stack, dtype=np.intp)
        gram = schur_center(model_gram(xf, fs, fs[:, pair_pos]), n)
        # one representative per group of byte-equal Grams; member[s] is s's group
        first, member = _group(gram.reshape(len(fs), -1).view(np.uint64))
        gram = gram[first]
        keys = _keys(gram, f)
        n_reps = len(first)
        for t in levels:
            n_choices = math.comb(n_pairs, t)
            size = max(1, FLAG_BYTES // (8 * (f + 2 * t)))  # 8 (p + t) bytes each
            if t == 1:  # every pair of each rep, whole reps per slice
                group = max(1, size // n_pairs)
                source = ((np.repeat(g, n_pairs), np.tile(singles, (len(g), 1)))
                          for g in np.split(np.arange(n_reps), range(group, n_reps, group)))
            else:  # level t - 1's estimable models, flagged by colex rank sum_i C(c_i, i + 1)
                source = _joined(*est, ok, f, comb, size)
            keep = t < t_max
            next_reps, next_rows = [np.empty(0, np.intp)], [np.empty((0, t), small)]
            next_ok = np.zeros((n_reps, n_choices), dtype=bool) if keep else None
            scored = np.zeros(n_reps, dtype=np.intp)
            good = np.zeros(n_reps, dtype=np.intp)
            kept = [np.empty(0)]
            cell = counts[t]
            for reps, rows in source:
                if not len(reps):
                    continue
                eff, distinct, calls = _score_models(gram, keys, reps, rows, f, n)
                cell["distinct"] += distinct
                cell["eigvalsh_calls"] += calls
                scored += np.bincount(reps, minlength=n_reps)
                fine = ~np.isnan(eff)
                reps, rows = reps[fine], rows[fine]
                good += np.bincount(reps, minlength=n_reps)
                kept.append(eff[fine])
                if keep:
                    next_reps.append(reps)
                    next_rows.append(rows.astype(small))
                    next_ok[reps, comb[np.arange(1, t + 1), rows - f].sum(1)] = True
            # each member takes its representative's values and counts, in subset order
            n_good = good[member]
            at = np.repeat(good.cumsum()[member] - n_good.cumsum(), n_good)
            vals[t].append(np.concatenate(kept)[at + np.arange(len(at))])
            n_scored = int(scored[member].sum())
            cell["models"] += len(stack) * n_choices
            cell["scored"] += n_scored
            cell["screened"] += len(stack) * n_choices - n_scored
            cell["no_est"] += len(stack) * n_choices - len(at)
            cell["subsets"] += n_reps
            est = (np.concatenate(next_reps), np.concatenate(next_rows)) if keep else None
            ok = next_ok
    return {
        t: (np.concatenate(vals[t]), ProjectionCounts(**counts[t])) for t in levels
    }


def projection_report(
    d: Design, f_values: Iterable[int], t_max: int | None = None
) -> ProjectionReport:
    """Mean As and non-estimable counts per (f, t) cell.

    Each f scores the levels t = 1..min(t_max, C(f,2)), each once and in
    increasing order; the default t_max is C(f,2), every level.  An f = 1
    has no pairs and no cells.
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
        top = max_t if t_max is None else min(t_max, max_t)
        for t in range(1, top + 1):
            if math.comb(max_t, t) >= _CHOICES_CAP:
                raise TooLargeError(
                    f"{f}-factor projections with t = {t} have C({max_t}, {t}) models"
                    " per factor subset, too many to score"
                )
        for t, (vals, cell) in _score_subsets(d.entries, f, top).items():
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
