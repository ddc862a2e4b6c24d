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
matmul, with no intermediate that grows with C(m, k).  The optimizer
counts the distances once per block of restarts; from then on it keeps
only S_k and reads the distances of the rows it scores from the designs,
through the same Krawtchouk table.
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

    Raises TooLargeError when a sum of runs^2 entries of one row, which is
    what S_k adds up, could leave the int64 range.
    """
    rows = [
        [
            sum((-1) ** j * math.comb(d, j) * math.comb(m - d, k - j) for j in range(k + 1))
            for d in range(m + 1)
        ]
        for k in range(k_max + 1)
    ]
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
    only; higher k is available on request for diagnostics.
    """
    m = d.factors
    if k_max is None:
        k_max = min(4, m)
    if not 1 <= k_max <= m:
        raise BadSubsetError(f"k_max must be in 1..{m}, got {k_max}")
    s_k = krawtchouk_sums(d.entries, krawtchouk_table(m, k_max, d.runs)[1:])
    return WordCounts(runs=d.runs, s_k=tuple(s_k.tolist()))


def word_counts_from_xtx(a: np.ndarray, n_runs: int, m: int) -> WordCounts:
    """Recover word counts from the X'X of a first- or second-order maximal model.

    Rows and columns are in model_terms order, and the order is read from the
    size.  Terms are products of their factors' columns, and x_j^2 = 1, so
    entry (i, j) is the J-characteristic of the symmetric difference of the
    two terms' factor sets.  Each upper-triangle entry is read that way.
    First order shows every subset of up to 2 factors once, second order
    every subset of up to 4 factors, most of them several times; repeated
    occurrences of the same subset must agree, which doubles as a
    transcription consistency check on tabulated matrices.  As for
    word_counts, no k_max exceeds m.
    """
    a = np.asarray(a)
    dim = a.shape[0]
    if a.shape != (dim, dim) or not np.array_equal(a, a.T):
        raise ValueError("information matrix must be square and symmetric")
    if dim == m + 1:
        terms = model_terms(m, ModelOrder.FIRST_ORDER)
    elif dim == 1 + m + m * (m - 1) // 2:
        terms = model_terms(m, ModelOrder.SECOND_ORDER)
    else:
        raise ValueError(f"matrix size {dim} fits neither model order for m={m}")
    bits = [sum(1 << j for j in t) for t in terms]  # each term's factor set
    rows = a.astype(np.int64, copy=False).tolist()
    j_val: dict[int, int] = {}  # symmetric difference, as bits -> its J
    for i in range(dim):
        for j in range(i + 1, dim):
            subset, value = bits[i] ^ bits[j], rows[i][j]
            if j_val.setdefault(subset, value) != value:
                named = tuple(f for f in range(m) if subset >> f & 1)
                raise ValueError(f"inconsistent J for subset {named}: {j_val[subset]} vs {value}")
    s_k = [0] * max((s.bit_count() for s in j_val), default=0)
    for subset, value in j_val.items():
        s_k[subset.bit_count() - 1] += value * value
    return WordCounts(runs=n_runs, s_k=tuple(s_k))


def subset_diagnostics(d: Design, k: int) -> Iterator[str]:
    """One line per k-subset, lexicographic: "s1,...,sk J=<int> R=<J^2>/<N^2>"."""
    m = d.factors
    n2 = d.runs * d.runs
    for sub in itertools.combinations(range(1, m + 1), k):
        j = j_characteristic(d, sub)
        yield f"{','.join(str(s) for s in sub)} J={j} R={j * j}/{n2}"
