import numpy as np
import pytest

from qbdesign.design import (
    Design,
    ModelOrder,
    balance_profile,
    format_design,
    information_matrix,
    model_matrix,
    parse_design,
    random_design,
    term_columns,
)
from qbdesign.errors import (
    EmptyDesignError,
    InvalidDesignError,
    NonBinaryEntryError,
    RaggedRowsError,
)

from conftest import full_factorial, random_designs


class TestParse:
    def test_minimal(self):
        d = parse_design("1 1\n-1 -1")
        assert (d.runs, d.factors) == (2, 2)

    def test_commas_and_whitespace_equivalent(self):
        a = parse_design("1, 1, -1\n-1, 1, 1")
        b = parse_design("1 1 -1\n-1 1 1")
        assert np.array_equal(a.entries, b.entries)

    def test_header_line_skipped(self):
        d = parse_design("A B C\n1 1 -1\n-1 1 1")
        assert (d.runs, d.factors) == (2, 3)

    def test_non_binary_entry_position(self):
        with pytest.raises(NonBinaryEntryError) as err:
            parse_design("1 0\n1 1")
        assert (err.value.row, err.value.col) == (1, 2)

    def test_non_numeric_token(self):
        with pytest.raises(NonBinaryEntryError):
            parse_design("1 1\n1 x")

    def test_ragged(self):
        with pytest.raises(RaggedRowsError):
            parse_design("1 1\n1 1 -1")

    def test_empty(self):
        with pytest.raises(EmptyDesignError):
            parse_design("")

    def test_single_run_rejected(self):
        with pytest.raises(InvalidDesignError):
            parse_design("1 1 1")

    def test_corpus_design_shape(self, fx):
        d = fx("supp1.d1").design
        assert (d.runs, d.factors) == (12, 14)

    def test_roundtrip_idempotent(self):
        for d, _ in random_designs(20, seed=101):
            text = format_design(d)
            again = parse_design(text)
            assert np.array_equal(d.entries, again.entries)
            assert format_design(again) == text


class TestModelMatrix:
    def test_full_factorial_second_order_orthogonal(self):
        d = full_factorial(3)
        mm = model_matrix(d, ModelOrder.SECOND_ORDER)
        assert mm.entries.shape == (8, 7)
        g = mm.entries.T @ mm.entries
        assert np.array_equal(g, 8 * np.eye(7, dtype=np.int64))

    def test_single_factor_first_order(self):
        d = Design(np.array([[1], [-1]]))
        mm = model_matrix(d, ModelOrder.FIRST_ORDER)
        assert mm.entries.shape == (2, 2)
        assert mm.terms == ((), (0,))

    def test_interaction_columns_are_products(self):
        for d, _ in random_designs(10, seed=5):
            mm = model_matrix(d, ModelOrder.SECOND_ORDER)
            for col, term in zip(mm.entries.T, mm.terms):
                if len(term) == 2:
                    i, j = term
                    assert np.array_equal(col, d.entries[:, i] * d.entries[:, j])

    def test_term_columns_stacked(self):
        # a stack of subsets gives each subset's own model matrix
        x = random_design(10, 6, 4).entries
        fs = np.array([[0, 2, 5], [1, 3, 4]])
        pairs = fs[:, [[0, 1], [0, 2], [1, 2]]]
        stacked = term_columns(x, fs, pairs)
        assert stacked.shape == (10, 2, 6) and stacked.dtype == np.int64
        for s, (a, b, c) in enumerate(fs):
            want = np.column_stack([x[:, a], x[:, b], x[:, c], x[:, a] * x[:, b],
                                    x[:, a] * x[:, c], x[:, b] * x[:, c]])
            assert np.array_equal(stacked[:, s], want)
            assert np.array_equal(term_columns(x, fs[s], pairs[s]), want)

    def test_table3_first_xtx(self, fx):
        f = fx("table3.first")
        im = information_matrix(model_matrix(f.design, ModelOrder.SECOND_ORDER))
        assert np.array_equal(im.a, f.expected_xtx)


class TestInformationMatrix:
    def test_intercept_row_is_column_sums(self):
        for d, _ in random_designs(10, seed=7):
            im = information_matrix(model_matrix(d, ModelOrder.FIRST_ORDER))
            assert np.array_equal(im.a[0, 1:], d.column_sums())

    def test_symmetric_diagonal_n(self):
        for d, _ in random_designs(25, seed=11):
            for order in ModelOrder:
                im = information_matrix(model_matrix(d, order))
                assert np.array_equal(im.a, im.a.T)
                assert (np.diag(im.a) == d.runs).all()

    def test_row_permutation_invariant(self):
        rng = np.random.Generator(np.random.Philox(key=13))
        for d, _ in random_designs(10, seed=13):
            perm = rng.permutation(d.runs)
            d2 = Design(d.entries[perm])
            a1 = information_matrix(model_matrix(d, ModelOrder.FIRST_ORDER)).a
            a2 = information_matrix(model_matrix(d2, ModelOrder.FIRST_ORDER)).a
            assert np.array_equal(a1, a2)

    def test_column_permutation_consistent(self):
        rng = np.random.Generator(np.random.Philox(key=17))
        for d, _ in random_designs(10, seed=17):
            perm = rng.permutation(d.factors)
            d2 = Design(d.entries[:, perm])
            a1 = information_matrix(model_matrix(d, ModelOrder.FIRST_ORDER)).a
            a2 = information_matrix(model_matrix(d2, ModelOrder.FIRST_ORDER)).a
            full = np.concatenate(([0], perm + 1))
            assert np.array_equal(a2, a1[np.ix_(full, full)])


class TestRandomDesign:
    def test_deterministic(self):
        a = random_design(12, 14, seed=99)
        b = random_design(12, 14, seed=99)
        assert np.array_equal(a.entries, b.entries)

    def test_shape_and_values(self):
        d = random_design(12, 14, seed=3)
        assert (d.runs, d.factors) == (12, 14)
        assert set(np.unique(d.entries)) <= {-1, 1}

    def test_mean_near_zero(self):
        # >= 1e4 entries; the mean of iid +-1 has sd 1/sqrt(n)
        d = random_design(100, 100, seed=2024)
        n = d.runs * d.factors
        assert abs(d.entries.mean()) < 4 / np.sqrt(n)


class TestBalanceProfile:
    def test_all_plus_one_column(self):
        d = Design(np.column_stack([np.ones(6, dtype=int), [1, -1, 1, -1, 1, -1]]))
        prof = balance_profile(d)
        assert prof.imbalances == (6, 0)
        assert (prof.n_balanced, prof.n_unbalanced) == (1, 1)

    def test_corpus_balance_counts(self, fx):
        assert balance_profile(fx("supp1.d3").design).n_balanced == 11
        assert balance_profile(fx("supp1.d2").design).n_balanced == 6
