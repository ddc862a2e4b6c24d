"""Plain search against certificates at first order: the shapes and priors
where multi_restart with 200 restarts at seed 1 reaches a proven or
closed-form optimum, compared exactly.

Three certificates, none of them a design the search is shown:
- theory: at N = 2 (mod 4) the optimal QB over level-balance splits is
  qb_block_value at split_for of the prior;
- QB = 0: a Hadamard matrix of order N holds m <= N - 1 columns with
  S = (0, 0), the least there is at every prior;
- parity: at odd N every column sum and every inner product of two columns
  is odd, so S_1 >= m and S_2 >= C(m, 2) for every design, and the rows
  1..q of a Paley matrix of order q + 1 meet both.

Only hits are pinned here; the misses of the same map are listed in
ROADMAP item 2.
"""

from fractions import Fraction
from math import comb

import pytest

from qbdesign.criteria import Prior, qb_from_word_counts
from qbdesign.design import Design
from qbdesign.optimizer import OptimizerConfig, multi_restart
from qbdesign.theory import balance_intervals, qb_block_value
from qbdesign.wordcounts import word_counts

from conftest import paley_hadamard


def searched_word_counts(n, m, pi1):
    """S_1, S_2 of the best design of 200 restarts at seed 1, searched at the
    float nearest pi1."""
    cfg = OptimizerConfig(runs=n, factors=m, prior=Prior(float(pi1)), restarts=200, seed=1)
    return multi_restart(cfg).word_counts


# (N, m) -> the intervals, counted from 1, whose midpoints plain search hits
THEORY_HITS = {(10, 9): (2, 3, 4, 5), (18, 10): (2, 3, 4, 5, 6), (14, 12): (3, 5, 6, 7)}


@pytest.mark.parametrize(
    "n, m, k", [(n, m, k) for (n, m), ks in THEORY_HITS.items() for k in ks]
)
def test_theory_certificate_at_interval_midpoints(n, m, k):
    bi = balance_intervals(n, m)
    lo, hi, _, _ = bi.intervals()[k - 1]
    mid = (lo + hi) / 2
    certificate = qb_block_value(n, m, bi.split_for(mid)[1], mid)
    w = searched_word_counts(n, m, mid)
    assert qb_from_word_counts(w, Prior(mid), m) == certificate


@pytest.mark.parametrize("pi1", [Fraction(1, 10), Fraction(1, 2)])
@pytest.mark.parametrize("n", [8, 12, 16])
def test_saturated_hadamard_shapes_reach_qb_zero(n, pi1):
    assert searched_word_counts(n, n - 1, pi1).s_k == (0, 0)


@pytest.mark.parametrize("pi1", ["0.01", "0.1", "0.3", "0.5", "0.9"])
@pytest.mark.parametrize("n, m", [(7, 6), (11, 5), (11, 10)])
def test_odd_runs_reach_the_parity_bound(n, m, pi1):
    assert searched_word_counts(n, m, Fraction(pi1)).s_k == (m, comb(m, 2))


@pytest.mark.parametrize("q", [7, 11, 19, 23])
def test_paley_rows_meet_the_parity_bound(q):
    # row 0 of paley_hadamard(q) is all +1, so without it every column sum
    # and every inner product of two columns is -1
    h = paley_hadamard(q)
    assert (h[0] == 1).all()
    for m in range(2, q + 1):
        assert word_counts(Design(h[1:, 1 : m + 1]), 2).s_k == (m, comb(m, 2))
