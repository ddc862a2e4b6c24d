"""Closed-form level-balance theory for run sizes N = 2 (mod 4).

For the main-effects maximal model there is a QB-optimal family whose
information matrix is block diagonal: one block for the intercept plus the
non-level-balanced columns (column sums +-2), one for the level-balanced
columns, with every off-diagonal entry of magnitude 2 inside a block and 0
across blocks.  The QB value of such a design depends only on the number of
level-balanced columns n1:

    QB(n1) = [4 pi1 (m - n1) + 4 pi1^2 ((m - n1)^2 + n1^2 - m)] / N^2

and the optimal split changes at the prior thresholds 1/(2m + 2 - 4k),
giving an interval table over pi1.
"""

from __future__ import annotations

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
        the lower interval is reported.
        """
        if not 0 < pi1 <= 1:
            raise ValueError(f"pi1 must be in (0, 1], got {pi1}")
        for lo, hi, nlb, lb in self.intervals():
            if pi1 <= hi:
                return nlb, lb
        raise AssertionError("unreachable")


@dataclass(frozen=True)
class PatternReport:
    """Result of checking a design against the block-diagonal optimal form."""

    matches: bool
    n_level_balanced: int
    n_non_level_balanced: int
    violations: tuple[tuple[int, int, int], ...]  # (i, j, a_ij) 0 = intercept
    block_signs: tuple[str, str]  # observed off-diagonal signs per block


def _require_n_mod_4(n_runs: int) -> None:
    if n_runs % 4 != 2:
        raise BadCongruenceError(f"run size {n_runs} != 2 (mod 4)")


def balance_intervals(n_runs: int, m: int) -> BalanceIntervals:
    """The full interval table for m <= N-1 factors in N = 2 (mod 4) runs."""
    _require_n_mod_4(n_runs)
    if not 1 <= m <= n_runs - 1:
        raise ValueError(f"need 1 <= m <= N-1, got m={m}, N={n_runs}")
    k = (m + 1) // 2 if m % 2 == 1 else m // 2 + 1
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
    """Check a design's first-order X'X against the block-diagonal optimal form.

    Columns are grouped by column sum mod 4 (0: level-balanced group, 2:
    non-level-balanced group).  Requirements: level-balanced columns have
    column sum exactly 0, the others exactly +-2, off-diagonals inside each
    group have magnitude 2, and off-diagonals across groups are 0.  Either
    consistent sign may appear inside a group; observed signs are reported.
    """
    _require_n_mod_4(d.runs)
    a = information_matrix(d, ModelOrder.FIRST_ORDER).a
    return _pattern_from_info(a)


def _pattern_from_info(a: np.ndarray) -> PatternReport:
    m = a.shape[0] - 1
    col_sums = a[0, 1:]
    balanced = [j for j in range(1, m + 1) if col_sums[j - 1] % 4 == 0]
    unbalanced = [j for j in range(1, m + 1) if col_sums[j - 1] % 4 != 0]

    violations: list[tuple[int, int, int]] = []
    for j in balanced:
        if a[0, j] != 0:
            violations.append((0, j, int(a[0, j])))
    for j in unbalanced:
        if abs(a[0, j]) != 2:
            violations.append((0, j, int(a[0, j])))
    group = {j: 0 for j in unbalanced}
    group.update({j: 1 for j in balanced})
    signs: list[set[int]] = [set(), set()]
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            v = int(a[i, j])
            if group[i] == group[j]:
                if abs(v) != 2:
                    violations.append((i, j, v))
                else:
                    signs[group[i]].add(v)
            elif v != 0:
                violations.append((i, j, v))
    # the intercept belongs to the non-level-balanced block
    for j in unbalanced:
        if abs(a[0, j]) == 2:
            signs[0].add(int(a[0, j]))

    def sign_label(s: set[int]) -> str:
        return {frozenset(): "none", frozenset({2}): "+2", frozenset({-2}): "-2"}.get(
            frozenset(s), "mixed"
        )

    n_lb = int((col_sums == 0).sum())
    return PatternReport(
        matches=not violations,
        n_level_balanced=n_lb,
        n_non_level_balanced=m - n_lb,
        violations=tuple(violations),
        block_signs=(sign_label(signs[0]), sign_label(signs[1])),
    )
