"""Optimality criteria: QB in all its forms, E(s2), UE(s2), and As efficiency.

The QB criterion is the prior-weighted sum of squared, scaled aliasing terms
a_ij^2/N^2 of the information matrix.  Under exchangeable factor priors it
collapses to a linear function of the generalized word counts:

    first order:   QB = pi1*b1 + 2*pi1^2*b2
    second order:  QB = {pi1 + 2(m-1)pi1^2 pi2} b1
                      + {2 pi1^2 + pi1^2 pi2 + 2(m-2) pi1^3 pi2^2} b2
                      + 6 pi1^3 pi2 b3 + 6 pi1^4 pi2^2 b4

Every weight above is a sum of the six closed-form prior products xi10..xi42
(`xi_weights`).  The general form, `qb_general` over the closed-form prior
sums of `prior_sums`, takes the same products entry by entry; the tests
validate them against an enumeration of every marginality-respecting
submodel.

pi1 and pi2 may be numbers or numpy arrays that broadcast against each
other: a Prior of a (P1, 1) pi1 column and a (1, P2) pi2 row is the whole
pi1 x pi2 grid, and its weights and QB come out as (P1, P2) arrays.  The
powers pi1^2..pi1^4 and pi2^2 are taken with Python's `**` on one value at a
time, for an array as for a number: numpy's `power` rounds some of them
differently (about 5% of values at exponents 3 and 4), and products such as
p*p*p round differently again, so a grid must give what a Prior at each of
its points gives.  Everything after the powers is `*` and `+` by ints and
floats in one fixed order, so `qb_coefficients` and `qb_from_word_counts`
are bit for bit the same on a grid as on each of its points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .design import Design, InfoMatrix, ModelOrder, Term, model_gram, model_terms, schur_center
from .errors import DimensionMismatchError
from .wordcounts import WordCounts, word_counts

# Reciprocal-condition threshold below which a centered information matrix is
# declared singular.  Rank deficiency is exact in theory for +-1 designs; the
# threshold only guards floating-point fuzz.
RCOND_SINGULAR = 1e-10


@dataclass(frozen=True)
class Prior:
    """Factor/interaction activity probabilities and the maximal-model order.

    pi1: prior probability that a main effect is in the best model.
    pi2: conditional probability that an interaction is in the best model
         given both parent main effects are (ignored for first order).

    Each of pi1 and pi2 is a number (a Fraction is kept exact) or a numpy
    array; arrays broadcast against each other, and every weight and QB
    taken from the prior has their broadcast shape.
    """

    pi1: float | np.ndarray
    pi2: float | np.ndarray = 0.0
    order: ModelOrder = ModelOrder.FIRST_ORDER

    def __post_init__(self):
        for name in ("pi1", "pi2"):
            value = np.asarray(getattr(self, name))
            bad = ~((0 <= value) & (value <= 1))
            if bad.any():
                raise ValueError(f"{name} must be in [0, 1], got {value[bad][0]}")

    @cached_property
    def _xi(self) -> XiWeights:
        """The six products of xi_weights, the one place prior weights are
        written; taken once per prior, so a grid pays for its powers once."""
        p1, p1_2, p1_3, p1_4 = _powers(self.pi1, 4)
        p2, p2_2 = _powers(self.pi2, 2)
        return XiWeights(p1, p1_2, p1_2 * p2, p1_3 * p2, p1_3 * p2_2, p1_4 * p2_2)


class XiWeights(NamedTuple):
    """Closed-form prior sums for the six aliasing classes of the second-order model."""

    xi10: float
    xi20: float
    xi21: float
    xi31: float
    xi32: float
    xi42: float


@dataclass(frozen=True)
class PriorSums:
    """Cumulative prior sums p_i0 and p_ij over the non-intercept term list."""

    terms: tuple[Term, ...]
    p0: np.ndarray
    pij: np.ndarray


def _powers(x, top: int) -> list:
    """x, x**2, ..., x**top by Python's ** on each value of x: Python numbers
    for a number (a Fraction stays exact), arrays of its shape for an array."""
    a = np.asarray(x)
    values = a.reshape(-1).tolist()
    pw = [[v**e for v in values] for e in range(1, top + 1)]
    return [p[0] if a.ndim == 0 else np.reshape(p, a.shape) for p in pw]


def xi_weights(prior: Prior) -> XiWeights:
    """The six closed-form products xi10..xi42 of pi1 and pi2.

    For an array prior each product is an array of the broadcast shape.
    """
    return prior._xi


def prior_sums(prior: Prior, m: int) -> PriorSums:
    """Prior sums p_i0 and p_ij of the m-factor maximal model, in closed form.

    pi1 and pi2 must be numbers here, not arrays.

    p_i0 is xi10 for a main effect and xi21 for an interaction.  p_ij is xi20
    for two mains, xi21 or xi31 for a main and an interaction that share or
    do not share a factor, and xi32 or xi42 for two interactions that share
    or do not share one.
    """
    terms = model_terms(m, prior.order)[1:]
    xi10, xi20, xi21, xi31, xi32, xi42 = xi_weights(prior)
    member = np.zeros((len(terms), m), dtype=np.int64)
    for i, t in enumerate(terms):
        member[i, list(t)] = 1
    size = member.sum(axis=1)
    shared = (member @ member.T > 0).astype(np.intp)
    # rows: combined size of the two terms (2, 3, 4); columns: shared factor (no, yes)
    table = np.array([[xi20, xi20], [xi31, xi21], [xi42, xi32]])
    pij = table[size[:, None] + size[None, :] - 2, shared]
    np.fill_diagonal(pij, 0.0)
    p0 = np.where(size == 1, xi10, xi21)
    return PriorSums(terms=terms, p0=p0, pij=pij)


def qb_coefficients(prior: Prior, m: int | np.ndarray) -> tuple[float | np.ndarray, ...]:
    """Word-count weights (w_1, ..., w_kmax) such that QB = sum_k w_k b_k.

    One weight per word count the maximal model uses: b_1, b_2 for first
    order and b_1..b_4 for second order, never more than m (no k-subsets
    exist beyond k = m).  Its length is the package's one k_max rule.  For
    an array prior each weight is an array.  m may be an array of factor
    counts that broadcasts against the prior: every weight is then taken at
    each m, and there are weights up to the largest m.
    """
    xi10, xi20, xi21, xi31, xi32, xi42 = xi_weights(prior)
    if prior.order is ModelOrder.FIRST_ORDER:
        coeff = (xi10, 2 * xi20)
    else:
        coeff = (
            xi10 + 2 * (m - 1) * xi21,
            2 * xi20 + xi21 + 2 * (m - 2) * xi32,
            6 * xi31,
            6 * xi42,
        )
    return coeff[: np.max(m)]


def qb_from_word_counts(
    w: WordCounts | Sequence[WordCounts], prior: Prior, m: int | Sequence[int]
) -> float | np.ndarray:
    """QB = sum_k w_k b_k over the weights of qb_coefficients(prior, m).

    The package's one QB evaluator: the optimizer, evaluate and sweep all
    report through it.  An array prior gives an array of QB, and one word
    counts with Fraction weights (a prior of Fractions) the exact rational
    sum_k w_k S_k / N^2.

    A sequence of D word counts, with the sequence of their designs' factor
    counts as m, gives every design's QB in one pass, on a trailing axis of
    length D that the prior's arrays broadcast against.  Each value has the
    bits of its design's QB taken alone: b_k = S_k / N^2 is the same Python
    int division, each weight the same float, and a design with fewer than
    k_max factors adds c * 0.0 for its missing b_k, which leaves its
    non-negative sum as it was.
    """
    if isinstance(w, WordCounts):
        coeff = qb_coefficients(prior, m)
        exact = all(isinstance(c, Fraction) for c in coeff)
        b = [w.b(k) if exact else w.b_float(k) for k in range(1, len(coeff) + 1)]
    else:
        coeff = qb_coefficients(prior, np.asarray(m))
        b = [np.array([x.s(k) / (x.runs * x.runs) for x in w]) for k in range(1, len(coeff) + 1)]
    return sum(c * bk for c, bk in zip(coeff, b))


def qb_general(im: InfoMatrix, ps: PriorSums) -> float:
    """QB from an information matrix and arbitrary prior sums.

    sum_i p_i0 a_i0^2/N^2 + sum_{i != j} p_ij a_ij^2/N^2, intercept excluded
    from i but included as j = 0.
    """
    if im.terms[1:] != ps.terms:
        raise DimensionMismatchError("information matrix and prior sums index different terms")
    n2 = im.runs * im.runs
    a = im.a.astype(float)
    col0 = a[1:, 0]
    inner = a[1:, 1:]
    q = float(ps.p0 @ (col0 * col0) / n2)
    q += float((ps.pij * inner * inner).sum() / n2)
    return q


@dataclass(frozen=True)
class Es2Result:
    """Level-balance flag and the conventionally scaled E(s2) value."""

    b1_zero: bool
    value: float


def _low_word_counts(d: Design, w: WordCounts | None) -> WordCounts:
    """d's word counts up to k = 2 (fewer with fewer factors): w if it holds them."""
    k_max = min(2, d.factors)
    if w is None:
        return word_counts(d, k_max=k_max)
    if w.runs != d.runs or w.k_max < k_max:
        raise ValueError(f"word counts up to k = {k_max} of an N = {d.runs} design needed")
    return w


def es2(d: Design, w: WordCounts | None = None) -> Es2Result:
    """E(s2) = S2 / C(m,2); meaningful as a criterion only when b1 = 0.

    w, d's word counts up to k >= 2, saves counting them again.
    """
    if d.factors < 2:
        raise ValueError("E(s2) needs at least 2 factors")
    w = _low_word_counts(d, w)
    n_pairs = d.factors * (d.factors - 1) // 2
    return Es2Result(b1_zero=w.s(1) == 0, value=w.s(2) / n_pairs)


def ue_s2(d: Design, w: WordCounts | None = None) -> Fraction:
    """b1 + b2 as an exact rational (the unbalanced E(s2) objective).

    w, d's word counts up to k = min(2, m) or beyond, saves counting them again.
    """
    w = _low_word_counts(d, w)
    return w.b(1) + w.b(2)


def as_efficiency(d: Design | Sequence[Design]) -> float | None | list[float | None]:
    """As efficiency p / (N * trace((D'Q0 D)^-1)) of the full main-effects model.

    D'Q0 D is the Schur complement of N in the Gram of the intercept and the
    main-effect columns, by the model_gram and schur_center that projection
    uses.  Returns None when it is singular (the model is not estimable).

    A sequence of designs of one shape gives the list of their As from one
    stacked pass: the Gram entries are exact integers and eigvalsh works
    matrix by matrix, so each value has the bits of its design's As taken
    alone.  With m >= N factors the m x m D'Q0 D has rank at most N - 1, so
    no fit is estimable and nothing is computed.
    """
    one = isinstance(d, Design)
    x = np.array(d.entries if one else [e.entries for e in d], dtype=float)
    runs, m = x.shape[-2:]
    if m >= runs:
        effs = [None] * (1 if one else len(x))
    else:
        g = model_gram(x, np.arange(m), np.empty((0, 2), dtype=np.intp))
        a = as_from_eigenvalues(np.linalg.eigvalsh(schur_center(g, runs)), runs)
        effs = [None if math.isnan(v) else v for v in np.atleast_1d(a).tolist()]
    return effs[0] if one else effs


def as_from_eigenvalues(eig: np.ndarray, n_runs: int) -> np.ndarray:
    """As efficiency p / (N * sum(1/eig)) per row of ascending eigenvalues.

    `eig` has shape (..., p), as np.linalg.eigvalsh returns it for a stack of
    centered Grams.  A row whose reciprocal condition is below RCOND_SINGULAR
    (the model is not estimable) gives NaN.
    """
    lo, hi = eig[..., 0], eig[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        singular = (hi <= 0) | (lo / hi < RCOND_SINGULAR)
        inv_trace = (1.0 / eig).sum(axis=-1)
    return np.where(singular, np.nan, eig.shape[-1] / (n_runs * inv_trace))
