"""Two-level designs: representation, parsing, and the model Gram X'X.

A design is an N x m matrix with entries in {-1, +1}.  Model columns are an
intercept column of ones, the main-effect columns, and, for the
second-order maximal model, one column per two-factor interaction in
lexicographic order (1,2), (1,3), ..., (m-1,m).  `model_gram` is the one
builder of those columns and their Gram C'C, for one design or a stack of
designs, and for one factor subset or a stack of them; `maximal_gram` is
X'X of the maximal model of one design's entries or a stack of them,
`information_matrix` the same for a Design, and `schur_center` the one
centering formula.  All Gram arithmetic on +-1
columns is exact: 64-bit integers for X'X, and integers well below 2^53 in
floats, which at desk scale (N, m up to a few tens) is nowhere near overflow.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    EmptyDesignError,
    InvalidDesignError,
    NonBinaryEntryError,
    RaggedRowsError,
)

# A model term is a tuple of 0-based factor indices: () is the intercept,
# (i,) a main effect, (i, j) with i < j a two-factor interaction.
Term = tuple[int, ...]


class ModelOrder(enum.Enum):
    """Maximal model: main effects only, or mains plus all two-factor interactions."""

    FIRST_ORDER = 1
    SECOND_ORDER = 2


def model_terms(m: int, order: ModelOrder) -> tuple[Term, ...]:
    """Canonical term list: intercept, mains 0..m-1, then pairs in lexicographic order."""
    terms: list[Term] = [()]
    terms.extend((j,) for j in range(m))
    if order is ModelOrder.SECOND_ORDER:
        terms.extend(itertools.combinations(range(m), 2))
    return tuple(terms)


@dataclass(frozen=True, eq=False)
class Design:
    """An immutable N x m matrix of +-1 run settings."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=np.int64)
        if a.ndim != 2:
            raise InvalidDesignError(f"design must be 2-dimensional, got shape {a.shape}")
        n, m = a.shape
        if n < 2:
            raise InvalidDesignError(f"design needs at least 2 runs, got {n}")
        if m < 1:
            raise InvalidDesignError("design needs at least 1 factor")
        binary = np.abs(a) == 1
        if not binary.all():
            bad = np.argwhere(~binary)[0]
            raise NonBinaryEntryError(int(bad[0]) + 1, int(bad[1]) + 1)
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def runs(self) -> int:
        return self.entries.shape[0]

    @property
    def factors(self) -> int:
        return self.entries.shape[1]

    def column_sums(self) -> np.ndarray:
        return self.entries.sum(axis=0)


@dataclass(frozen=True, eq=False)
class InfoMatrix:
    """Exact integer X'X of a maximal model, (v+1) x (v+1), rows in `terms` order."""

    a: np.ndarray
    runs: int
    terms: tuple[Term, ...]


@dataclass(frozen=True)
class BalanceProfile:
    """Per-column |column sum| plus balanced/unbalanced counts."""

    imbalances: tuple[int, ...]
    n_balanced: int = field(init=False)
    n_unbalanced: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n_balanced", sum(1 for v in self.imbalances if v == 0))
        object.__setattr__(self, "n_unbalanced", sum(1 for v in self.imbalances if v != 0))


# The spellings of a level that parse without int(); any other token is
# read by int() and must give -1 or 1 ("01" and "+01" do).
_LEVELS = {"1": 1, "-1": -1, "+1": 1}


def parse_design(text: str) -> Design:
    """Parse a design from whitespace- or comma-separated +-1 rows.

    A single leading header line of non-numeric factor labels is skipped.
    Raises EmptyDesignError, RaggedRowsError, or NonBinaryEntryError with
    1-based row/column positions, for the first fault in reading order:
    rows top to bottom, a row's length before its entries, entries left
    to right.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines and _is_header(lines[0]):
        lines = lines[1:]
    if not lines:
        raise EmptyDesignError("no design rows found")
    rows = [ln.replace(",", " ").split() for ln in lines]
    width = len(rows[0])
    # entries are read up to the first row of another length, which is the fault
    # if none comes before it
    ragged = next((r for r, toks in enumerate(rows) if len(toks) != width), len(rows))
    tokens = [tok for toks in rows[:ragged] for tok in toks]
    values = list(map(_LEVELS.get, tokens))
    if None in values:
        for i, v in enumerate(values):
            if v is None:
                values[i] = _level(tokens[i], i // width + 1, i % width + 1)
    if ragged < len(rows):
        raise RaggedRowsError(ragged + 1, width, len(rows[ragged]))
    return Design(np.array(values, dtype=np.int64).reshape(len(rows), width))


def _level(tok: str, row: int, col: int) -> int:
    """A token the spelling table misses: int(tok), which must be -1 or 1."""
    try:
        v = int(tok)
    except ValueError:
        raise NonBinaryEntryError(row, col, tok) from None
    if v not in (-1, 1):
        raise NonBinaryEntryError(row, col, tok)
    return v


def _is_header(line: str) -> bool:
    toks = line.replace(",", " ").split()
    for tok in toks:
        try:
            int(tok)
            return False
        except ValueError:
            continue
    return bool(toks)


def format_design(d: Design) -> str:
    """One run per line, entries space-separated as "1"/"-1"."""
    return "\n".join(" ".join(map(str, row)) for row in d.entries.tolist()) + "\n"


def load_design(path: str | Path) -> Design:
    return parse_design(Path(path).read_text())


def save_design(d: Design, path: str | Path) -> None:
    Path(path).write_text(format_design(d))


def model_gram(x: np.ndarray, mains: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Gram C'C of the model columns: intercept, x[:, j] per main, x[:, a] * x[:, b] per pair.

    x is one design (N, m) or a stack of designs (..., N, m).  `mains` holds
    factor indices, shape (..., a), and `pairs` factor-index pairs, shape
    (..., b, 2), with the same leading shape.  The result has shape
    x.shape[:-2] + mains.shape[:-1] + (1 + a + b, 1 + a + b) and the dtype
    of x, rows and columns in the order intercept, mains, pairs: one design
    and plain indices give one Gram, a stack of S factor subsets an
    (S, 1 + a + b, 1 + a + b) stack, and a stack of G designs with plain
    indices a (G, 1 + a + b, 1 + a + b) stack.
    """
    rows = np.swapaxes(x, -1, -2)  # C' is built row by row: one row of N entries per term
    ones = np.ones(x.shape[:-2] + mains.shape[:-1] + (1, x.shape[-2]), dtype=x.dtype)
    c = np.concatenate(
        [ones, rows[..., mains, :], rows[..., pairs[..., 0], :] * rows[..., pairs[..., 1], :]],
        axis=-2,
    )
    return c @ np.swapaxes(c, -1, -2)


def schur_center(g: np.ndarray, runs: int) -> np.ndarray:
    """Centered Gram D'Q0 D from a Gram whose first row and column are the intercept's.

    It is the Schur complement of g[0, 0] = N: the product of two column
    sums, divided by N, comes off each entry.  Works on a stack (..., q, q).
    """
    return g[..., 1:, 1:] - g[..., 1:, :1] * g[..., :1, 1:] / runs


def maximal_gram(x: np.ndarray, order: ModelOrder) -> np.ndarray:
    """Exact X'X of the maximal model, in model_terms order, for the +-1 entries
    x of one design (N, m) or of a stack of designs (..., N, m)."""
    m = x.shape[-1]
    pairs = np.array(model_terms(m, order)[1 + m :], dtype=np.intp).reshape(-1, 2)
    return model_gram(x, np.arange(m), pairs)


def information_matrix(d: Design, order: ModelOrder) -> InfoMatrix:
    """X'X of the design's maximal model in exact integer arithmetic, in model_terms order."""
    return InfoMatrix(
        a=maximal_gram(d.entries, order), runs=d.runs, terms=model_terms(d.factors, order)
    )


def random_design(n_runs: int, n_factors: int, seed: int) -> Design:
    """Uniform random +-1 design from a counter-based generator (Philox).

    The same seed always yields the same design, independent of platform.
    """
    if n_runs < 2 or n_factors < 1:
        raise InvalidDesignError(f"invalid size ({n_runs}, {n_factors})")
    rng = np.random.Generator(np.random.Philox(key=seed))
    return Design(rng.integers(0, 2, size=(n_runs, n_factors)) * 2 - 1)


def balance_profile(d: Design) -> BalanceProfile:
    """|column sum| per factor; a factor is level-balanced iff its value is 0."""
    return BalanceProfile(tuple(int(abs(v)) for v in d.column_sums()))
