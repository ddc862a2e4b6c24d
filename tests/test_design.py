import numpy as np
import pytest

from qbdesign.design import (
    Design,
    ModelOrder,
    balance_profile,
    format_design,
    information_matrix,
    maximal_gram,
    model_gram,
    model_terms,
    parse_design,
    random_design,
)
from qbdesign.errors import (
    EmptyDesignError,
    InvalidDesignError,
    NonBinaryEntryError,
    RaggedRowsError,
)

from conftest import full_factorial, random_designs, token_loop_parse_design


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


# Level spellings of the parser grammar: the three in the spelling table,
# others int() reads as +-1, and faults (a float, 0, 2, a word, a non-ASCII
# digit one that int() reads as 1, and a non-ASCII two)
GOOD = ("1", "+1", "-1")
OTHER = ("01", "-01", "+01", "\u0661", "-\u0661", "1.0", "0", "2", "x", "\u0662")


def grammar_text(rng):
    """A design text: mostly good levels, sometimes other spellings, commas,
    a header line, blank lines and ragged rows."""
    n, m = int(rng.integers(1, 6)), int(rng.integers(0, 5))
    lines = []
    if rng.random() < 0.3:
        lines.append(" ".join(["A", "b", "x1", "y"][: max(m, 1)]))
    for _ in range(n):
        width = m + int(rng.choice([-1, 1])) if rng.random() < 0.1 else m
        toks = [
            str(rng.choice(OTHER)) if rng.random() < 0.05 else str(rng.choice(GOOD))
            for _ in range(max(width, 0))
        ]
        sep = str(rng.choice([" ", "  ", "\t", ",", ", "]))
        lines.append(sep.join(toks))
        if rng.random() < 0.1:
            lines.append(str(rng.choice(["", "  ", "\t"])))
    return "\n".join(lines) + str(rng.choice(["", "\n", "\r\n"]))


def outcome(parse, text):
    try:
        return parse(text).entries.tolist()
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


class TestParseOracle:
    """parse_design reads what the token-by-token int() loop reads, and fails
    where it fails, with the same exception and message."""

    def test_grammar(self):
        rng = np.random.Generator(np.random.Philox(key=107))
        kinds = set()
        for _ in range(4000):
            text = grammar_text(rng)
            got = outcome(parse_design, text)
            assert got == outcome(token_loop_parse_design, text), repr(text)
            kinds.add(got[0] if isinstance(got, tuple) else "design")
        # the grammar reaches every outcome
        assert kinds == {"design", EmptyDesignError, InvalidDesignError, NonBinaryEntryError,
                         RaggedRowsError}

    @pytest.mark.parametrize("text", [
        "01 +01\n-01 1",  # int() spellings of +-1
        "\u0661 -1\n1 1",  # a non-ASCII digit one
        "1 1\n1 1 1\n1 x",  # the ragged row comes first
        "1 1\n1 x\n1 1 1",  # the bad token comes first
        "1 1 1\n1",  # ragged before its tokens are read
        "1,1\n,\n-1,-1",  # a line of commas is a row of no entries
        ",\n,",  # rows of no entries
        "a,b\n1,-1\n-1,1",
        "1 2\n1 1",
        "x y\n",
    ])
    def test_cases(self, text):
        assert outcome(parse_design, text) == outcome(token_loop_parse_design, text)

    def test_design_check_locates_the_first_fault(self):
        # |a| == 1 finds the entry np.isin(a, (-1, 1)) finds, in row-major order
        rng = np.random.Generator(np.random.Philox(key=109))
        for _ in range(200):
            a = rng.choice(np.array([-1, 1]), size=(int(rng.integers(2, 6)), int(rng.integers(1, 6))))
            bad = rng.random(a.shape) < 0.1
            a[bad] = rng.choice(np.array([0, 2, -2, 3, np.iinfo(np.int64).min]), size=bad.sum())
            if not bad.any():
                Design(a)
                continue
            with pytest.raises(NonBinaryEntryError) as err:
                Design(a)
            r, c = np.argwhere(~np.isin(a, (-1, 1)))[0]
            assert (err.value.row, err.value.col) == (r + 1, c + 1)


def products_xtx(x, terms):
    """X'X built from np.prod of each term's columns; the intercept's product is 1."""
    cols = np.column_stack([x[:, list(t)].prod(axis=1) for t in terms])
    return cols.T @ cols


class TestModelMatrix:
    """X'X of the model columns against a Gram of column products built here."""

    def test_full_factorial_second_order_orthogonal(self):
        for m in (1, 2, 3, 4):
            d = full_factorial(m)
            for order in ModelOrder:
                a = information_matrix(d, order).a
                assert np.array_equal(a, d.runs * np.eye(len(a), dtype=np.int64))
        assert information_matrix(full_factorial(3), ModelOrder.SECOND_ORDER).a.shape == (7, 7)

    def test_single_factor_first_order(self):
        d = Design(np.array([[1], [-1], [1]]))
        for order in ModelOrder:
            im = information_matrix(d, order)
            assert im.terms == ((), (0,))
            assert np.array_equal(im.a, [[3, 1], [1, 3]])

    def test_interaction_columns_are_products(self):
        for d, _ in random_designs(40, seed=5, m_lo=1):
            for order in ModelOrder:
                im = information_matrix(d, order)
                assert im.terms == model_terms(d.factors, order)
                assert im.a.dtype == np.int64 and im.runs == d.runs
                assert np.array_equal(im.a, products_xtx(d.entries, im.terms))

    def test_model_gram_stacked(self):
        # a stack of subsets gives each subset's own X'X, in the dtype of x
        x = random_design(10, 6, 4).entries
        fs = np.array([[0, 2, 5], [1, 3, 4]])
        pairs = fs[:, [[0, 1], [0, 2], [1, 2]]]
        stacked = model_gram(x, fs, pairs)
        assert stacked.shape == (2, 7, 7) and stacked.dtype == np.int64
        for s, (a, b, c) in enumerate(fs):
            want = products_xtx(x, [(), (a,), (b,), (c,), (a, b), (a, c), (b, c)])
            assert np.array_equal(stacked[s], want)
            assert np.array_equal(model_gram(x, fs[s], pairs[s]), want)
        as_float = model_gram(x.astype(float), fs, pairs)
        assert as_float.dtype == np.float64 and np.array_equal(as_float, stacked)

    def test_stack_of_designs(self):
        # a leading design axis gives each design's own Gram, before any subset axes
        xs = np.stack([random_design(10, 6, seed).entries for seed in range(3)])
        for order in ModelOrder:
            stacked = maximal_gram(xs, order)
            assert stacked.shape == (3,) + information_matrix(Design(xs[0]), order).a.shape
            for x, got in zip(xs, stacked):
                assert np.array_equal(got, information_matrix(Design(x), order).a)
        fs = np.array([[0, 2, 5], [1, 3, 4]])
        pairs = fs[:, [[0, 1], [0, 2], [1, 2]]]
        both = model_gram(xs, fs, pairs)
        assert both.shape == (3, 2, 7, 7)
        for x, got in zip(xs, both):
            assert np.array_equal(got, model_gram(x, fs, pairs))

    def test_table3_first_xtx(self, fx):
        f = fx("table3.first")
        im = information_matrix(f.design, ModelOrder.SECOND_ORDER)
        assert np.array_equal(im.a, f.expected_xtx)


class TestInformationMatrix:
    def test_intercept_row_is_column_sums(self):
        for d, _ in random_designs(10, seed=7):
            im = information_matrix(d, ModelOrder.FIRST_ORDER)
            assert np.array_equal(im.a[0, 1:], d.column_sums())

    def test_symmetric_diagonal_n(self):
        for d, _ in random_designs(25, seed=11):
            for order in ModelOrder:
                im = information_matrix(d, order)
                assert np.array_equal(im.a, im.a.T)
                assert (np.diag(im.a) == d.runs).all()

    def test_row_permutation_invariant(self):
        rng = np.random.Generator(np.random.Philox(key=13))
        for d, _ in random_designs(10, seed=13):
            perm = rng.permutation(d.runs)
            d2 = Design(d.entries[perm])
            a1 = information_matrix(d, ModelOrder.FIRST_ORDER).a
            a2 = information_matrix(d2, ModelOrder.FIRST_ORDER).a
            assert np.array_equal(a1, a2)

    def test_column_permutation_consistent(self):
        rng = np.random.Generator(np.random.Philox(key=17))
        for d, _ in random_designs(10, seed=17):
            perm = rng.permutation(d.factors)
            d2 = Design(d.entries[:, perm])
            a1 = information_matrix(d, ModelOrder.FIRST_ORDER).a
            a2 = information_matrix(d2, ModelOrder.FIRST_ORDER).a
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
