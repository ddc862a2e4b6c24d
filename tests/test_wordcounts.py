import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qbdesign.design import Design, ModelOrder, information_matrix, random_design
from qbdesign.errors import BadSubsetError, TooLargeError
from qbdesign.wordcounts import (
    j_characteristic,
    krawtchouk_sums,
    krawtchouk_table,
    run_distances,
    subset_diagnostics,
    word_counts,
    word_counts_from_xtx,
)

from conftest import enumerated_word_counts, full_factorial, random_designs


class TestJCharacteristic:
    def test_full_factorial_triple(self):
        assert j_characteristic(full_factorial(3), (1, 2, 3)) == 0

    def test_constant_column(self):
        d = Design(np.column_stack([np.ones(8, dtype=int), full_factorial(3).entries[:, 0]]))
        assert j_characteristic(d, (1,)) == 8

    def test_bad_subsets(self):
        d = full_factorial(3)
        with pytest.raises(BadSubsetError):
            j_characteristic(d, (0,))
        with pytest.raises(BadSubsetError):
            j_characteristic(d, (1, 1))
        with pytest.raises(BadSubsetError):
            j_characteristic(d, (4,))
        with pytest.raises(BadSubsetError):
            j_characteristic(d, ())

    def test_parity_and_range(self):
        for d, rng in random_designs(20, seed=23):
            sub = tuple(
                int(v) + 1
                for v in rng.choice(d.factors, size=min(2, d.factors), replace=False)
            )
            j = j_characteristic(d, sub)
            assert -d.runs <= j <= d.runs
            assert (j - d.runs) % 2 == 0

    def test_triples_sum_matches_b3(self, fx):
        # every |J| over the four triples of the first 12x4 benchmark design
        d = fx("table3.first").design
        total = sum(
            j_characteristic(d, s) ** 2
            for s in [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
        )
        assert Fraction(total, 144) == Fraction(4, 9)


class TestWordCounts:
    def test_corpus_values(self, fx):
        expected = {
            "supp1.d1": (Fraction(0), Fraction(8, 3)),
            "supp1.d2": (Fraction(2, 9), Fraction(19, 9)),
            "supp1.d3": (Fraction(1, 3), Fraction(2)),
        }
        for fid, (b1, b2) in expected.items():
            w = word_counts(fx(fid).design, 2)
            assert (w.b(1), w.b(2)) == (b1, b2)

    def test_hadamard_projection(self, fx):
        w = word_counts(fx("had16.proj1").design, 4)
        assert (w.b(3), w.b(4)) == (Fraction(0), Fraction(3))

    def test_full_factorial_all_zero(self):
        w = word_counts(full_factorial(4), 4)
        assert w.s_k == (0, 0, 0, 0)

    def test_default_k_max(self):
        assert word_counts(full_factorial(3)).k_max == 3
        assert word_counts(full_factorial(5)).k_max == 4

    def test_k_max_bounds(self):
        with pytest.raises(BadSubsetError):
            word_counts(full_factorial(3), 4)

    def test_missing_k_reported_zero(self):
        w = word_counts(full_factorial(3), 2)
        assert w.s(3) == 0 and w.b(4) == 0


class TestKrawtchoukKernel:
    def test_matches_enumeration(self):
        rng = np.random.Generator(np.random.Philox(key=47))
        shapes = [(24, 30, 6), (12, 1, 1), (5, 1, 1), (9, 5, 5), (16, 6, 6)]
        for _ in range(40):
            n = int(rng.integers(2, 25))
            m = int(rng.integers(1, 31))
            shapes.append((n, m, int(rng.integers(1, min(m, 6 if m <= 14 else 4) + 1))))
        for n, m, k_max in shapes:
            x = rng.integers(0, 2, size=(n, m)) * 2 - 1
            assert word_counts(Design(x), k_max).s_k == enumerated_word_counts(x, k_max), (
                n, m, k_max
            )

    def test_value_at_distance_zero(self):
        for m in range(0, 40):
            table = krawtchouk_table(m, m)
            assert table[:, 0].tolist() == [math.comb(m, k) for k in range(m + 1)]

    def test_run_distances(self):
        for d, _ in random_designs(20, seed=53):
            x = d.entries
            expected = (x[:, None, :] != x[None, :, :]).sum(axis=2)
            assert np.array_equal(run_distances(x), expected)

    def test_stacks_match_enumeration(self):
        # one design, a stack and a stack of stacks: each design's sums are its
        # own, equal to the subset enumeration, and the designs are left as given
        rng = np.random.Generator(np.random.Philox(key=59))
        for lead, n, m in [((), 13, 9), ((5,), 13, 9), ((2, 3), 7, 5), ((4,), 2, 1)]:
            x = rng.integers(0, 2, size=lead + (n, m)) * 2 - 1
            given = x.copy()
            k_max = min(4, m)
            s = krawtchouk_sums(x, krawtchouk_table(m, k_max, n)[1:])
            assert np.array_equal(x, given)
            assert s.shape == lead + (k_max,) and s.dtype == np.int64
            for idx in np.ndindex(lead):
                assert tuple(s[idx].tolist()) == enumerated_word_counts(x[idx], k_max), (lead, idx)

    def test_memory_stays_near_the_distances(self):
        # beside the N x N distances the sums hold one histogram, not a
        # second N x N table
        n = 1500
        d = random_design(n, 6, seed=61)
        tracemalloc.start()
        try:
            w = word_counts(d, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * 8 * n * n
        assert w.s(1) == int(d.entries.sum(axis=0) @ d.entries.sum(axis=0))

    def test_int64_bound(self):
        # max |K_32(d; 64)| = C(64, 32) ~ 1.8e18: 2 runs fit in int64, 3 do not
        assert krawtchouk_table(64, 32, runs=2)[32, 0] == math.comb(64, 32)
        with pytest.raises(TooLargeError):
            krawtchouk_table(64, 32, runs=3)
        d = Design(np.ones((3, 64), dtype=np.int64))
        with pytest.raises(TooLargeError):
            word_counts(d, 32)
        assert word_counts(d, 4).s_k == tuple(9 * math.comb(64, k) for k in range(1, 5))


class TestInvariances:
    def test_sign_switch_row_and_column_permutations(self):
        rng = np.random.Generator(np.random.Philox(key=31))
        for d, _ in random_designs(100, seed=31):
            k_max = min(4, d.factors)
            base = word_counts(d, k_max).s_k

            col = int(rng.integers(d.factors))
            flipped = d.entries.copy()
            flipped[:, col] *= -1
            assert word_counts(Design(flipped), k_max).s_k == base

            rp = rng.permutation(d.runs)
            assert word_counts(Design(d.entries[rp]), k_max).s_k == base

            cp = rng.permutation(d.factors)
            assert word_counts(Design(d.entries[:, cp]), k_max).s_k == base

    def test_b2_matches_info_matrix(self):
        for d, _ in random_designs(30, seed=37):
            w = word_counts(d, min(2, d.factors))
            a = information_matrix(d, ModelOrder.FIRST_ORDER).a
            iu = np.triu_indices(d.factors, 1)
            assert w.s(2) == int((a[1:, 1:][iu] ** 2).sum())

    def test_b1_zero_iff_balanced(self):
        for d, _ in random_designs(30, seed=41):
            w = word_counts(d, 1)
            assert (w.s(1) == 0) == (d.column_sums() == 0).all()


class TestXtxExtraction:
    def test_first_order_roundtrip(self, fx):
        f = fx("supp1.d2")
        w = word_counts_from_xtx(f.expected_xtx, f.runs, f.factors)
        assert (w.b(1), w.b(2)) == (Fraction(2, 9), Fraction(19, 9))

    def test_second_order_roundtrip(self):
        for d, _ in random_designs(10, seed=43, m_lo=4, m_hi=6):
            a = information_matrix(d, ModelOrder.SECOND_ORDER).a
            w1 = word_counts_from_xtx(a, d.runs, d.factors)
            w2 = word_counts(d, 4)
            assert w1.s_k == w2.s_k

    def test_inconsistent_matrix_rejected(self, fx):
        a = np.array(fx("case4.d1").expected_xtx)
        a[1, 8] += 2  # breaks a repeated J value
        a[8, 1] += 2
        with pytest.raises(ValueError):
            word_counts_from_xtx(a, 16, 6)


    def test_matches_word_counts_both_orders(self):
        for d, _ in random_designs(200, seed=47, m_lo=1):
            for order, k_max in ((ModelOrder.FIRST_ORDER, 2), (ModelOrder.SECOND_ORDER, 4)):
                a = information_matrix(d, order).a
                w = word_counts_from_xtx(a, d.runs, d.factors)
                assert w == word_counts(d, min(k_max, d.factors))

    def test_single_factor_listing(self):
        # a 2 x 2 listing has one factor: k_max = m = 1, and b_2 is 0
        w = word_counts_from_xtx(np.array([[3, 1], [1, 3]]), 3, 1)
        assert w.s_k == (1,)
        assert (w.k_max, w.b(1), w.b(2)) == (1, Fraction(1, 9), 0)

    @pytest.mark.parametrize("fid", ["case4.d1", "case5.a"])
    def test_every_single_entry_perturbation_rejected(self, fx, fid):
        f = fx(fid)
        base = np.array(f.expected_xtx)
        word_counts_from_xtx(base, f.runs, f.factors)
        for i, j in zip(*np.triu_indices(len(base), 1)):
            for delta in (2, -2):
                a = base.copy()
                a[i, j] += delta
                a[j, i] += delta
                with pytest.raises(ValueError, match=r"inconsistent J for subset \(\d"):
                    word_counts_from_xtx(a, f.runs, f.factors)


class TestDiagnostics:
    def test_format(self):
        lines = list(subset_diagnostics(full_factorial(3), 2))
        assert lines == ["1,2 J=0 R=0/64", "1,3 J=0 R=0/64", "2,3 J=0 R=0/64"]

    def test_lexicographic_order_and_totals(self, fx):
        d = fx("table3.first").design
        lines = list(subset_diagnostics(d, 3))
        assert [ln.split()[0] for ln in lines] == ["1,2,3", "1,2,4", "1,3,4", "2,3,4"]
        total = sum(int(ln.split("J=")[1].split()[0]) ** 2 for ln in lines)
        assert Fraction(total, 144) == Fraction(4, 9)
