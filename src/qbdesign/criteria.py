"""Optimality criteria: QB in all its forms, E(s2), UE(s2), and As efficiency.

The QB criterion is the prior-weighted sum of squared, scaled aliasing terms
a_ij^2/N^2 of the information matrix.  Under exchangeable factor priors it
collapses to a linear function of the generalized word counts:

    first order:   QB = pi1*b1 + 2*pi1^2*b2
    second order:  QB = {pi1 + 2(m-1)pi1^2 pi2} b1
                      + {2 pi1^2 + pi1^2 pi2 + 2(m-2) pi1^3 pi2^2} b2
                      + 6 pi1^3 pi2 b3 + 6 pi1^4 pi2^2 b4

The general form is kept alongside a brute-force prior-sum oracle that
enumerates every marginality-respecting submodel, so the closed forms can be
validated by exhaustive enumeration.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .design import Design, InfoMatrix, ModelOrder, Term, model_terms, term_columns
from .errors import DimensionMismatchError, TooLargeError
from .wordcounts import WordCounts, word_counts

# Reciprocal-condition threshold below which a centered information matrix is
# declared singular.  Rank deficiency is exact in theory for +-1 designs; the
# threshold only guards floating-point fuzz.
RCOND_SINGULAR = 1e-10

# Exhaustive enumeration bounds for the prior-sum oracle.
ORACLE_MAX_M_FIRST = 12
ORACLE_MAX_M_SECOND = 6


@dataclass(frozen=True)
class Prior:
    """Factor/interaction activity probabilities and the maximal-model order.

    pi1: prior probability that a main effect is in the best model.
    pi2: conditional probability that an interaction is in the best model
         given both parent main effects are (ignored for first order).
    """

    pi1: float
    pi2: float = 0.0
    order: ModelOrder = ModelOrder.FIRST_ORDER

    def __post_init__(self):
        if not 0.0 <= self.pi1 <= 1.0:
            raise ValueError(f"pi1 must be in [0, 1], got {self.pi1}")
        if not 0.0 <= self.pi2 <= 1.0:
            raise ValueError(f"pi2 must be in [0, 1], got {self.pi2}")


@dataclass(frozen=True)
class XiWeights:
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
    total: float  # total model-space probability; must be 1 up to rounding


def xi_weights(prior: Prior, m: int) -> XiWeights:
    """The six closed-form products; independent of m once m >= 2."""
    if m < 2:
        raise ValueError("xi weights need at least 2 factors")
    p1, p2 = prior.pi1, prior.pi2
    return XiWeights(
        xi10=p1,
        xi20=p1**2,
        xi21=p1**2 * p2,
        xi31=p1**3 * p2,
        xi32=p1**3 * p2**2,
        xi42=p1**4 * p2**2,
    )


@functools.lru_cache(maxsize=8)
def _model_space(m: int, order: ModelOrder):
    """Membership matrix and size statistics of every marginality-respecting submodel."""
    terms = model_terms(m, order)[1:]
    t_index = {t: i for i, t in enumerate(terms)}
    member_rows = []
    n_mains = []
    n_inter = []
    n_pairs = []
    for a in range(m + 1):
        for mains in itertools.combinations(range(m), a):
            pairs = list(itertools.combinations(mains, 2))
            base_row = np.zeros(len(terms), dtype=bool)
            base_row[[t_index[(j,)] for j in mains]] = True
            if order is ModelOrder.FIRST_ORDER:
                member_rows.append(base_row)
                n_mains.append(a)
                n_inter.append(0)
                n_pairs.append(0)
                continue
            for a2 in range(len(pairs) + 1):
                for inter in itertools.combinations(pairs, a2):
                    row = base_row.copy()
                    row[[t_index[t] for t in inter]] = True
                    member_rows.append(row)
                    n_mains.append(a)
                    n_inter.append(a2)
                    n_pairs.append(len(pairs))
    member = np.array(member_rows)
    return terms, member, np.array(n_mains), np.array(n_inter), np.array(n_pairs)


def prior_sums_oracle(m: int, prior: Prior) -> PriorSums:
    """Brute-force prior sums by enumerating every marginality-respecting submodel.

    A submodel takes any subset of the m main effects plus any subset of the
    interactions among the chosen factors; its prior probability is
    pi1^a (1-pi1)^(m-a) pi2^a2 (1-pi2)^(C(a,2)-a2).  Feasible for m <= 12
    (first order) and m <= 6 (second order).
    """
    if prior.order is ModelOrder.FIRST_ORDER:
        if m > ORACLE_MAX_M_FIRST:
            raise TooLargeError(f"first-order oracle limited to m <= {ORACLE_MAX_M_FIRST}")
    elif m > ORACLE_MAX_M_SECOND:
        raise TooLargeError(f"second-order oracle limited to m <= {ORACLE_MAX_M_SECOND}")

    terms, member, n_mains, n_inter, n_pairs = _model_space(m, prior.order)
    p1, p2 = prior.pi1, prior.pi2
    prob = p1**n_mains * (1 - p1) ** (m - n_mains)
    if prior.order is ModelOrder.SECOND_ORDER:
        prob = prob * p2**n_inter * (1 - p2) ** (n_pairs - n_inter)
    weighted = member * prob[:, None]
    p0 = weighted.sum(axis=0)
    pij = weighted.T @ member
    np.fill_diagonal(pij, 0.0)
    return PriorSums(terms=terms, p0=p0, pij=pij, total=float(prob.sum()))


def qb_coefficients(prior: Prior, m: int) -> tuple[float, ...]:
    """Word-count weights (w_1, ..., w_kmax) such that QB = sum_k w_k b_k.

    One weight per word count the maximal model uses: b_1, b_2 for first
    order and b_1..b_4 for second order, never more than m (no k-subsets
    exist beyond k = m).  Its length is the package's one k_max rule.
    """
    p1, p2 = prior.pi1, prior.pi2
    if prior.order is ModelOrder.FIRST_ORDER:
        coeff = (p1, 2 * p1**2)
    else:
        coeff = (
            p1 + 2 * (m - 1) * p1**2 * p2,
            2 * p1**2 + p1**2 * p2 + 2 * (m - 2) * p1**3 * p2**2,
            6 * p1**3 * p2,
            6 * p1**4 * p2**2,
        )
    return coeff[:m]


def qb_from_word_counts(w: WordCounts, prior: Prior, m: int) -> float:
    """QB = sum_k w_k b_k over the weights of qb_coefficients(prior, m).

    The package's one QB evaluator: the optimizer, evaluate and sweep all
    report through it.
    """
    return sum(c * w.b_float(k) for k, c in enumerate(qb_coefficients(prior, m), start=1))


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


def es2(d: Design) -> Es2Result:
    """E(s2) = S2 / C(m,2); meaningful as a criterion only when b1 = 0."""
    if d.factors < 2:
        raise ValueError("E(s2) needs at least 2 factors")
    w = word_counts(d, k_max=2)
    n_pairs = d.factors * (d.factors - 1) // 2
    return Es2Result(b1_zero=w.s(1) == 0, value=w.s(2) / n_pairs)


def ue_s2(d: Design) -> Fraction:
    """b1 + b2 as an exact rational (the unbalanced E(s2) objective)."""
    w = word_counts(d, k_max=min(2, d.factors))
    return w.b(1) + w.b(2)


def centered_gram(d: Design, terms: tuple[Term, ...] | list[Term]) -> np.ndarray:
    """D'Q0 D for the model columns given by `terms` (0-based factor tuples).

    Terms are main effects (j,) and two-factor interactions (a, b), in any order.
    """
    if any(len(t) not in (1, 2) for t in terms):
        raise ValueError("terms must be main effects or two-factor interactions")
    mains = [t for t in terms if len(t) == 1]
    pairs = [t for t in terms if len(t) == 2]
    cols = term_columns(
        d.entries,
        np.array(mains, dtype=np.intp).reshape(-1),
        np.array(pairs, dtype=np.intp).reshape(-1, 2),
    )
    # term_columns puts mains first; put the columns back in the order of `terms`
    position = {t: i for i, t in enumerate(mains + pairs)}
    dm = cols[:, [position[t] for t in terms]].astype(float)
    csum = dm.sum(axis=0)
    return dm.T @ dm - np.outer(csum, csum) / d.runs


def as_efficiency(d: Design, terms: tuple[Term, ...] | list[Term] | None = None) -> float | None:
    """As efficiency p / (N * trace((D'Q0 D)^-1)) for the given non-intercept terms.

    Defaults to the full main-effects model.  Returns None when the centered
    information matrix is singular (the model is not estimable).
    """
    if terms is None:
        terms = [(j,) for j in range(d.factors)]
    a = as_from_eigenvalues(np.linalg.eigvalsh(centered_gram(d, terms)), d.runs)
    return None if np.isnan(a) else float(a)


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
