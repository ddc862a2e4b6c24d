"""Closed-form level-balance theory for run sizes N = 2 (mod 4).

For the main-effects maximal model there is a QB-optimal family whose
information matrix X'X follows one block rule.  Block 0 is the intercept
with the non-level-balanced columns (column sums +-2), block 1 the
level-balanced columns; every off-diagonal entry has magnitude 2 inside a
block and is 0 across blocks.  The QB value of such a design depends only
on the number of level-balanced columns n1:

    QB(n1) = [4 pi1 (m - n1) + 4 pi1^2 ((m - n1)^2 + n1^2 - m)] / N^2

and the optimal split changes at the prior thresholds 1/(2m + 2 - 4k),
giving an interval table over pi1.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .criteria import Prior, qb_from_word_counts
from .design import Design, ModelOrder, information_matrix
from .errors import BadCongruenceError
from .wordcounts import WordCounts


@dataclass(frozen=True)
class BalanceIntervals:
    """Interval table over pi1: interval k has k-1 non-level-balanced factors."""

    m: int
    endpoints: tuple[Fraction, ...]  # alpha_0 = 0 < ... < alpha_K = 1

    @property
    def k(self) -> int:
        return len(self.endpoints) - 1

    def intervals(self) -> tuple[tuple[Fraction, Fraction, int, int], ...]:
        """(lo, hi, non_level_balanced, level_balanced) per interval."""
        return tuple(
            (self.endpoints[k - 1], self.endpoints[k], k - 1, self.m - (k - 1))
            for k in range(1, self.k + 1)
        )

    def split_for(self, pi1) -> tuple[int, int]:
        """(non_level_balanced, level_balanced) for a prior value.

        Interior endpoints belong to both adjacent intervals (exact tie);
        the lower interval is reported.  The endpoint compare is exact, so a
        float just above a decimal endpoint (0.1 > 1/10) falls above it.
        """
        if not 0 < pi1 <= 1:
            raise ValueError(f"pi1 must be in (0, 1], got {pi1}")
        nlb = bisect.bisect_left(self.endpoints, pi1) - 1
        return nlb, self.m - nlb


@dataclass(frozen=True)
class PatternReport:
    """Result of checking a design against the block-diagonal optimal form."""

    matches: bool
    n_level_balanced: int
    n_non_level_balanced: int
    violations: tuple[tuple[int, int, int], ...]  # (i, j, a_ij) 0 = intercept, row-major
    block_signs: tuple[str, str]  # observed off-diagonal signs per block


# the set of a block's +-2 entries, by its label
_SIGN_LABELS = {
    frozenset(): "none",
    frozenset({2}): "+2",
    frozenset({-2}): "-2",
    frozenset({-2, 2}): "mixed",
}


def _require_n_mod_4(n_runs: int) -> None:
    if n_runs % 4 != 2:
        raise BadCongruenceError(f"run size {n_runs} != 2 (mod 4)")


def balance_intervals(n_runs: int, m: int) -> BalanceIntervals:
    """The full interval table for m <= N-1 factors in N = 2 (mod 4) runs."""
    _require_n_mod_4(n_runs)
    if not 1 <= m <= n_runs - 1:
        raise ValueError(f"need 1 <= m <= N-1, got m={m}, N={n_runs}")
    k = m // 2 + 1
    endpoints = [Fraction(0)]
    endpoints += [Fraction(1, 2 * m + 2 - 4 * j) for j in range(1, k)]
    endpoints.append(Fraction(1))
    return BalanceIntervals(m=m, endpoints=tuple(endpoints))


def qb_block_value(n_runs: int, m: int, n1: int, pi1):
    """QB of a block-pattern design with n1 level-balanced factors.

    Accepts float or Fraction pi1 and computes in that arithmetic, so exact
    tie checks at interval endpoints are possible.  n1 may range over 0..m
    for argmin sweeps even though the pattern itself is only constructible
    for n1 >= ceil(m/2).

    The pattern has |a| = 2 on the k = m - n1 non-balanced intercept entries
    and on the C(k, 2) + C(n1, 2) same-block pairs, 0 elsewhere, so S_1 = 4k
    and S_2 = 2 (k^2 + n1^2 - m), scored by the package's one QB formula.
    """
    _require_n_mod_4(n_runs)
    if not 0 <= n1 <= m:
        raise ValueError(f"n1 must be in 0..{m}, got {n1}")
    k = m - n1
    w = WordCounts(n_runs, (4 * k, 2 * (k * k + n1 * n1 - m)))
    return qb_from_word_counts(w, Prior(pi1), m)


def verify_block_pattern(d: Design) -> PatternReport:
    """Check a design's first-order X'X against the block rule.

    A column is level-balanced (block 1) when its sum is 0 mod 4; the
    intercept and the other columns form block 0.  Every entry above the
    diagonal must have |a_ij| = 2 inside a block and a_ij = 0 across blocks,
    which also asks column sums of exactly 0 or +-2.  Either consistent sign
    may appear inside a block; the observed signs are reported, and the
    violations are listed in row-major order of X'X.
    """
    _require_n_mod_4(d.runs)
    a = information_matrix(d, ModelOrder.FIRST_ORDER).a
    return _pattern_from_info(a)


def _pattern_from_info(a: np.ndarray) -> PatternReport:
    col_sums = a[0, 1:]
    block = np.concatenate(([0], col_sums % 4 == 0))
    same = block[:, None] == block
    upper = np.triu(np.ones(a.shape, dtype=bool), 1)
    bad = upper & (np.abs(a) != 2 * same)
    held = upper & same & ~bad
    n_lb = int((col_sums == 0).sum())
    return PatternReport(
        matches=not bad.any(),
        n_level_balanced=n_lb,
        n_non_level_balanced=len(col_sums) - n_lb,
        violations=tuple((int(i), int(j), int(a[i, j])) for i, j in zip(*np.nonzero(bad))),
        block_signs=tuple(
            _SIGN_LABELS[frozenset(a[held & (block == b)[:, None]].tolist())] for b in (0, 1)
        ),
    )
