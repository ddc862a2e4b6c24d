"""Two-level designs: representation, parsing, and model-matrix expansion.

A design is an N x m matrix with entries in {-1, +1}.  Model matrices add an
intercept column and, for the second-order maximal model, one column per
two-factor interaction in lexicographic order (1,2), (1,3), ..., (m-1,m).
All Gram-matrix arithmetic is exact (64-bit integers), which at desk scale
(N, m up to a few tens) is nowhere near overflow.
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
        if not np.isin(a, (-1, 1)).all():
            bad = np.argwhere(~np.isin(a, (-1, 1)))[0]
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
class ModelMatrix:
    """Expanded N x (v+1) model matrix with its ordered term list."""

    terms: tuple[Term, ...]
    entries: np.ndarray
    order: ModelOrder


@dataclass(frozen=True, eq=False)
class InfoMatrix:
    """Exact integer X'X for a model matrix, (v+1) x (v+1)."""

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


def parse_design(text: str) -> Design:
    """Parse a design from whitespace- or comma-separated +-1 rows.

    A single leading header line of non-numeric factor labels is skipped.
    Raises EmptyDesignError, RaggedRowsError, or NonBinaryEntryError with
    1-based row/column positions.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines and _is_header(lines[0]):
        lines = lines[1:]
    if not lines:
        raise EmptyDesignError("no design rows found")
    rows: list[list[int]] = []
    width = None
    for r, ln in enumerate(lines, start=1):
        toks = ln.replace(",", " ").split()
        if width is None:
            width = len(toks)
        elif len(toks) != width:
            raise RaggedRowsError(r, width, len(toks))
        row = []
        for c, tok in enumerate(toks, start=1):
            try:
                v = int(tok)
            except ValueError:
                raise NonBinaryEntryError(r, c, tok) from None
            if v not in (-1, 1):
                raise NonBinaryEntryError(r, c, tok)
            row.append(v)
        rows.append(row)
    return Design(np.array(rows, dtype=np.int64))


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
    return "\n".join(" ".join(str(int(v)) for v in row) for row in d.entries) + "\n"


def load_design(path: str | Path) -> Design:
    return parse_design(Path(path).read_text())


def save_design(d: Design, path: str | Path) -> None:
    Path(path).write_text(format_design(d))


def term_columns(x: np.ndarray, mains: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Main-effect columns x[:, j] followed by pair products x[:, a] * x[:, b].

    `mains` holds factor indices, shape (..., a), and `pairs` factor-index
    pairs, shape (..., b, 2), with the same leading shape.  The result has
    shape (N, ..., a + b): plain indices give an N x (a + b) model matrix, and
    a stack of S factor subsets gives an (N, S, a + b) stack of them.
    """
    return np.concatenate([x[:, mains], x[:, pairs[..., 0]] * x[:, pairs[..., 1]]], axis=-1)


def model_matrix(d: Design, order: ModelOrder) -> ModelMatrix:
    """Expand a design to its model matrix for the chosen maximal model."""
    terms = model_terms(d.factors, order)
    pairs = np.array([t for t in terms if len(t) == 2], dtype=np.intp).reshape(-1, 2)
    cols = term_columns(d.entries, np.arange(d.factors), pairs)
    ones = np.ones((d.runs, 1), dtype=np.int64)
    return ModelMatrix(terms=terms, entries=np.hstack([ones, cols]), order=order)


def information_matrix(mm: ModelMatrix) -> InfoMatrix:
    """X'X in exact integer arithmetic."""
    x = mm.entries
    return InfoMatrix(a=x.T @ x, runs=x.shape[0], terms=mm.terms)


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
