from fractions import Fraction

import numpy as np
import pytest

from qbdesign.design import Design
from qbdesign.criteria import Prior, qb_from_word_counts
from qbdesign.errors import BadCongruenceError
from qbdesign.theory import (
    balance_intervals,
    qb_block_value,
    verify_block_pattern,
    verify_block_pattern_xtx,
)
from qbdesign.wordcounts import word_counts


class TestBalanceIntervals:
    def test_n14_m12(self):
        bi = balance_intervals(14, 12)
        assert bi.k == 7
        assert bi.endpoints == (
            Fraction(0),
            Fraction(1, 22),
            Fraction(1, 18),
            Fraction(1, 14),
            Fraction(1, 10),
            Fraction(1, 6),
            Fraction(1, 2),
            Fraction(1),
        )
        assert bi.intervals()[0][2:] == (0, 12)
        assert bi.intervals()[-1][2:] == (6, 6)

    def test_even_m_last_interval_starts_at_half(self):
        for m in (4, 6, 8, 10, 12):
            bi = balance_intervals(14, m)
            assert bi.endpoints[-2] == Fraction(1, 2)
            assert bi.intervals()[-1][2] == m // 2

    def test_odd_m_last_interval_starts_at_quarter(self):
        for m in (5, 7, 9):
            bi = balance_intervals(14, m)
            assert bi.endpoints[-2] == Fraction(1, 4)
            assert bi.intervals()[-1][2:] == ((m - 1) // 2, (m + 1) // 2)

    def test_bad_congruence(self):
        with pytest.raises(BadCongruenceError):
            balance_intervals(12, 5)

    def test_saturated_n10_table(self):
        # frozen interval table for the saturated 10-run, 9-factor case
        bi = balance_intervals(10, 9)
        assert bi.endpoints == (
            Fraction(0),
            Fraction(1, 16),
            Fraction(1, 12),
            Fraction(1, 8),
            Fraction(1, 4),
            Fraction(1),
        )
        assert [lb for _, _, _, lb in bi.intervals()] == [9, 8, 7, 6, 5]

    def test_split_for(self):
        bi = balance_intervals(14, 12)
        assert bi.split_for(0.3) == (5, 7)
        assert bi.split_for(0.05) == (1, 11)
        assert bi.split_for(1) == (6, 6)


class TestQbBlockValue:
    def test_all_balanced_closed_form(self):
        for m, pi1 in ((5, 0.3), (9, 0.05), (12, 0.7)):
            expect = 4 * pi1**2 * (m * m - m) / 196
            assert qb_block_value(14, m, m, pi1) == pytest.approx(expect, abs=1e-15)

    def test_argmin_matches_interval(self):
        vals = [qb_block_value(14, 12, n1, 0.3) for n1 in range(13)]
        assert vals.index(min(vals)) == 7

    def test_bad_congruence(self):
        with pytest.raises(BadCongruenceError):
            qb_block_value(12, 5, 3, 0.2)

    def test_endpoint_ties_exact(self):
        for n_runs, m in ((14, 12), (10, 9), (22, 15)):
            bi = balance_intervals(n_runs, m)
            for k in range(1, bi.k):
                alpha = bi.endpoints[k]
                hi = qb_block_value(n_runs, m, m - k + 1, alpha)
                lo = qb_block_value(n_runs, m, m - k, alpha)
                assert hi == lo  # exact Fraction arithmetic

    def test_matches_first_order_qb_on_pattern_designs(self, fx):
        for k in range(1, 7):
            d = fx(f"supp3.i{k}").design
            rep = verify_block_pattern(d)
            assert rep.matches
            w = word_counts(d, 2)
            for pi1 in (0.05, 0.2, 0.6):
                # one formula over the same integers on both sides
                assert qb_from_word_counts(w, Prior(pi1), d.factors) == qb_block_value(
                    d.runs, d.factors, rep.n_level_balanced, pi1
                )

    def test_feasible_range(self):
        # the block pattern needs at least ceil(m/2) level-balanced factors:
        # the first interval has all m, the last, up to pi1 = 1, ceil(m/2)
        for m, fewest in ((9, 5), (12, 6)):
            intervals = balance_intervals(14, m).intervals()
            assert (intervals[0][3], intervals[-1][3]) == (m, fewest)


class TestVerifyBlockPattern:
    def test_corpus_patterns_match(self, fx):
        for k, nlb in zip(range(1, 7), (0, 1, 2, 3, 4, 5)):
            rep = verify_block_pattern(fx(f"supp3.i{k}").design)
            assert rep.matches
            assert rep.n_non_level_balanced == nlb

    def test_saturated_cases_match(self, fx):
        for k, nlb in zip(range(1, 6), (0, 1, 2, 3, 4)):
            for method in ("conf", "alg"):
                rep = verify_block_pattern(fx(f"supp2.i{k}.{method}").design)
                assert rep.matches
                assert rep.n_non_level_balanced == nlb

    def test_xtx_only_n22(self, fx):
        good = fx("supp3.n22a")
        rep = verify_block_pattern_xtx(good.expected_xtx, good.runs)
        assert rep.matches and rep.n_non_level_balanced == 6

        bad = fx("supp3.n22b")
        rep = verify_block_pattern_xtx(bad.expected_xtx, bad.runs)
        assert not rep.matches
        assert rep.n_non_level_balanced == 0
        assert any(abs(v) == 6 for _, _, v in rep.violations)

    def test_orthogonal_balanced_pair_violates(self):
        # no 6-run design realizes a balanced orthogonal pair (J = 2 mod 4),
        # so present the hypothetical matrix directly: a_12 = 0 must be
        # flagged because within-group entries need magnitude 2
        a = np.diag([6, 6, 6])
        rep = verify_block_pattern_xtx(a, 6)
        assert not rep.matches
        assert (1, 2, 0) in rep.violations

    def test_balanced_pair_pattern_design(self):
        d = Design(
            np.array(
                [
                    [1, 1],
                    [1, 1],
                    [1, -1],
                    [-1, -1],
                    [-1, -1],
                    [-1, 1],
                ]
            )
        )
        assert (d.column_sums() == 0).all()
        assert word_counts(d, 2).s(2) == 4  # |J| = 2, the attainable minimum
        rep = verify_block_pattern(d)
        assert rep.matches and rep.n_level_balanced == 2

    def test_bad_congruence(self):
        d = Design(np.array([[1, 1], [-1, -1], [1, -1], [-1, 1]]))
        with pytest.raises(BadCongruenceError):
            verify_block_pattern(d)
