"""J-characteristics and generalized word counts, computed exactly.

For a factor subset s, the J-characteristic is the integer sum over runs of
the product of the columns in s.  The generalized word count b_k sums
(J_s/N)^2 over all k-subsets; b_1 measures level imbalance, b_2 pairwise
non-orthogonality, b_3 and b_4 the aliasing relevant to two-factor
interaction models.  S_k = N^2 b_k is an integer and is what gets stored.

S_k is not summed over subsets.  Expanding J_s^2 as a double sum over runs
r, r' and summing over all k-subsets gives the moment/word-length duality
(Xu & Wu, Ann. Statist. 29, 2001; Xu, Statistica Sinica 13, 2003):

    S_k = sum_{r, r'} K_k(d_rr'; m),
    K_k(d; m) = sum_j (-1)^j C(d, j) C(m - d, k - j),

where d_rr' is the Hamming distance between runs r and r' and K_k is the
Krawtchouk polynomial: the product x_rl x_r'l is -1 on the d_rr' factors
where the runs differ and +1 on the others.  So S_k = sum_d h(d) K_k(d; m)
over the histogram h of the N x N distance matrix, the number of ordered
run pairs at each distance d = 0..m: one bincount and one small integer
matmul, with no intermediate that grows with C(m, k).  The table of
K_k(d; m) is not summed from binomials either: the three-term recurrence
in k (see krawtchouk_table) gives each row from the two before it, for
every d at once, in exact integers.  The optimizer scores its flips and
counts its final designs through one such table per block of restarts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .design import Design, ModelOrder, model_terms
from .errors import BadSubsetError, TooLargeError


@dataclass(frozen=True)
class WordCounts:
    """Exact word counts S_k = sum of J_s^2 over |s| = k, for k = 1..k_max."""

    runs: int
    s_k: tuple[int, ...]

    @property
    def k_max(self) -> int:
        return len(self.s_k)

    def s(self, k: int) -> int:
        """S_k as an exact integer; 0 for k beyond k_max (no subsets counted)."""
        if 1 <= k <= len(self.s_k):
            return self.s_k[k - 1]
        return 0

    def b(self, k: int) -> Fraction:
        """b_k = S_k / N^2 as an exact rational."""
        return Fraction(self.s(k), self.runs * self.runs)

    def b_float(self, k: int) -> float:
        return self.s(k) / (self.runs * self.runs)

    def b_all(self) -> tuple[Fraction, ...]:
        return tuple(self.b(k) for k in range(1, self.k_max + 1))


def _check_subset(subset: Sequence[int], m: int) -> tuple[int, ...]:
    sub = tuple(subset)
    if not sub:
        raise BadSubsetError("subset must be nonempty")
    if len(set(sub)) != len(sub):
        raise BadSubsetError(f"duplicated indices in {sub}")
    for j in sub:
        if not 1 <= j <= m:
            raise BadSubsetError(f"factor index {j} out of range 1..{m}")
    return sub


def j_characteristic(d: Design, subset: Sequence[int]) -> int:
    """Sum over runs of the product of the columns in `subset` (1-based indices)."""
    sub = _check_subset(subset, d.factors)
    cols = [j - 1 for j in sub]
    return int(d.entries[:, cols].prod(axis=1).sum())


def krawtchouk_table(m: int, k_max: int, runs: int = 1) -> np.ndarray:
    """K[k, d] = K_k(d; m) for k = 0..k_max and d = 0..m, as exact int64.

    Rows come from the three-term recurrence, one row at a time for every d
    (the coefficients of (1 - z)^d (1 + z)^(m - d), whose derivative gives it):

        K_0 = 1,  K_1(d) = m - 2d,
        (k + 1) K_{k+1}(d) = (m - 2d) K_k(d) - (m - k + 1) K_{k-1}(d),

    in Python ints, so the division is exact and nothing overflows.  Raises
    TooLargeError when a sum of runs^2 entries of one row, which is what
    S_k adds up, could leave the int64 range.
    """
    lin = [m - 2 * d for d in range(m + 1)]
    rows = [[1] * (m + 1), lin]
    for k in range(1, k_max):
        rows.append(
            [(c * a - (m - k + 1) * b) // (k + 1) for c, a, b in zip(lin, rows[k], rows[k - 1])]
        )
    rows = rows[: k_max + 1]
    peak = max(abs(v) for row in rows for v in row)
    if runs * runs * peak >= 2**63:
        raise TooLargeError(
            f"word counts of a {runs}-run design at k <= {k_max} of m = {m}"
            " can exceed the int64 range"
        )
    return np.array(rows, dtype=np.int64)


def run_distances(x: np.ndarray) -> np.ndarray:
    """N x N Hamming distances between the runs (rows) of a +-1 matrix.

    A stack of matrices, shape (..., N, m), gives a stack of distance matrices.
    (m - x x') / 2 is computed in place, so no second N x N array is held.
    """
    d = x @ np.swapaxes(x, -1, -2)
    np.subtract(x.shape[-1], d, out=d)
    d //= 2
    return d


def krawtchouk_sums(x: np.ndarray, kraw: np.ndarray) -> np.ndarray:
    """S[..., k] = sum over runs r, r' of kraw[k, d_rr'], for the (..., N, m) +-1 designs x.

    Design i's distances, offset by i * (m + 1), go into one bincount, every
    design's histogram h over d = 0..m, and S = h kraw' is int64.  Those
    distances are the one array that sizes with N^2; x is left as given.
    """
    lead, m = x.shape[:-2], x.shape[-1]
    n_designs = math.prod(lead)
    dist = run_distances(x)
    dist += (np.arange(n_designs) * (m + 1)).reshape(lead + (1, 1))
    hist = np.bincount(dist.reshape(-1), minlength=n_designs * (m + 1))
    return hist.reshape(lead + (m + 1,)) @ kraw.T


def word_counts(d: Design, k_max: int | None = None) -> WordCounts:
    """S_k and b_k for k = 1..k_max from the run distances (see module docstring).

    k_max defaults to min(4, m): the second-order criterion needs b_1..b_4
    only; higher k is available on request for diagnostics.  This is
    stacked_word_counts of a stack of one.
    """
    (wc,) = stacked_word_counts(d.entries[None], min(4, d.factors) if k_max is None else k_max)
    return wc


def stacked_word_counts(x: np.ndarray, k_max: int) -> list[WordCounts]:
    """The word counts of each design of the (L, N, m) +-1 stack x for k = 1..k_max,
    from one Krawtchouk table and one krawtchouk_sums over the stack."""
    n, m = x.shape[1:]
    if not 1 <= k_max <= m:
        raise BadSubsetError(f"k_max must be in 1..{m}, got {k_max}")
    s_k = krawtchouk_sums(x, krawtchouk_table(m, k_max, n)[1:])
    return [WordCounts(runs=n, s_k=tuple(row)) for row in s_k.tolist()]


def word_counts_from_xtx(
    a: np.ndarray, n_runs: int | Sequence[int], m: int
) -> WordCounts | list[WordCounts | ValueError]:
    """Recover word counts from the X'X of a first- or second-order maximal model.

    Rows and columns are in model_terms order, and the order is read from the
    size.  Terms are products of their factors' columns, and x_j^2 = 1, so
    entry (i, j) is the J-characteristic of the symmetric difference of the
    two terms' factor sets.  Each upper-triangle entry is read that way.
    First order shows every subset of up to 2 factors once, second order
    every subset of up to 4 factors, most of them several times; repeated
    occurrences of the same subset must agree, which doubles as a
    transcription consistency check on tabulated matrices.  As for
    word_counts, no k_max exceeds m: it is the largest subset size shown.

    `a` is one listing (dim, dim) with its run count, or a stack of L
    listings (L, dim, dim) of one size, with one run count each.  One
    listing gives its WordCounts, or raises the ValueError that names its
    first fault.  A stack gives a list with one WordCounts or ValueError
    per listing, so one faulty listing does not stop the others.  The
    subset layout (which upper-triangle entries show which subset, and
    where each subset is first shown) is built once per call, and every
    listing of the stack is read through it in one pass; nothing is kept
    between calls.  A conflict is reported at its first entry in row-major
    upper-triangle order, against the subset's first occurrence.
    """
    a = np.asarray(a)
    asymmetric = "information matrix must be square and symmetric"
    if a.ndim != 3:  # one listing
        if a.ndim != 2:
            raise ValueError(asymmetric)
        (wc,) = word_counts_from_xtx(a[None], [n_runs], m)
        if isinstance(wc, ValueError):
            raise wc
        return wc
    runs = list(n_runs)
    dim = a.shape[2]
    if a.shape[1] != dim:
        return [ValueError(asymmetric) for _ in runs]
    faults = [
        None if sym else asymmetric
        for sym in (a == np.swapaxes(a, 1, 2)).all(axis=(1, 2)).tolist()
    ]
    if dim == m + 1:
        terms = model_terms(m, ModelOrder.FIRST_ORDER)
    elif dim == 1 + m + m * (m - 1) // 2:
        terms = model_terms(m, ModelOrder.SECOND_ORDER)
    else:
        size = f"matrix size {dim} fits neither model order for m={m}"
        return [ValueError(fault or size) for fault in faults]

    # The layout, in row-major upper-triangle order: each entry's subset, as
    # factor bits, its flat index, and the flat index of the first entry that
    # shows the same subset (zipped in reverse, so the first one is kept).
    bits = [sum(1 << f for f in t) for t in terms]  # each term's factor set
    subsets = [b ^ c for i, b in enumerate(bits) for c in bits[i + 1 :]]
    at = np.flatnonzero(np.arange(dim)[:, None] < np.arange(dim))
    first = dict(zip(reversed(subsets), reversed(at.tolist())))
    ref = np.fromiter(map(first.__getitem__, subsets), np.intp, len(subsets))
    sizes = np.array([s.bit_count() for s in first], dtype=np.intp)
    k_max = int(sizes.max(initial=0))

    flat = a.reshape(len(a), -1).astype(np.int64, copy=False)
    v = flat[:, at]  # (L, P) entries
    conflict = v != flat[:, ref]
    j = flat[:, np.fromiter(first.values(), np.intp, len(first))]  # (L, U): each subset's J
    # S_k sums J^2 in int64 while no sum can leave its range, else in Python ints
    peak = max(-int(j.min(initial=0)), int(j.max(initial=0)))
    if peak * peak * len(first) >= 2**63:
        j = j.astype(object)
    s_k = (j * j) @ (sizes[:, None] == np.arange(1, k_max + 1)).astype(j.dtype)
    out: list[WordCounts | ValueError] = []
    for i, (fault, bad, row) in enumerate(zip(faults, conflict.any(axis=1).tolist(), s_k.tolist())):
        if fault is None and bad:
            p = int(conflict[i].argmax())
            named = tuple(f for f in range(m) if subsets[p] >> f & 1)
            fault = f"inconsistent J for subset {named}: {flat[i, ref[p]]} vs {v[i, p]}"
        out.append(WordCounts(runs=runs[i], s_k=tuple(row)) if fault is None else ValueError(fault))
    return out


def subset_diagnostics(d: Design, k: int) -> Iterator[str]:
    """One line per k-subset, lexicographic: "s1,...,sk J=<int> R=<J^2>/<N^2>"."""
    m = d.factors
    n2 = d.runs * d.runs
    for sub in itertools.combinations(range(1, m + 1), k):
        j = j_characteristic(d, sub)
        yield f"{','.join(str(s) for s in sub)} J={j} R={j * j}/{n2}"
