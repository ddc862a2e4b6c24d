"""Projection analysis: estimability and mean As efficiency over submodels.

For every f-subset of factors and every choice of t of its C(f,2) two-factor
interactions, the model (intercept + f mains + the t interactions) is scored
by As efficiency; singular models count as efficiency 0 and are tallied as
non-estimable.  Under effect marginality these models are exactly the
f-factor projections of the second-order model space.

Scoring is batched.  The centered Grams of a stack of f-subsets are built at
once, an (S, q, q) array with q = f + C(f,2), from the full mains-plus-pairs
columns of each subset.  Each model's Gram is the p x p block (p = f + t) of
its subset's Gram on the f mains and its t pairs; the blocks are gathered
into (count, p, p) chunks of at most BLOCKS_PER_CALL, and each chunk takes
one batched eigvalsh call.  The stack and the chunks are bounded, so memory
does not grow with the number of models.  Each model's eigenvalues and
efficiency are computed exactly as a one-model-at-a-time loop computes them,
and the mean is math.fsum over the estimable values, correctly rounded in any
order, so the report does not depend on how models are grouped into chunks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .criteria import as_from_eigenvalues
from .design import Design, term_columns

# Models per batched eigvalsh call, and f-subsets per stack of centered Grams.
# Both only bound memory: a chunk of 256 blocks of 16 x 16 takes 0.5 MB.
BLOCKS_PER_CALL = 256
SUBSETS_PER_STACK = 1024


@dataclass(frozen=True)
class ProjectionRow:
    f: int
    t: int
    n_models: int
    no_est: int
    mean_as: float


@dataclass(frozen=True)
class ProjectionReport:
    rows: tuple[ProjectionRow, ...]

    def cell(self, f: int, t: int) -> ProjectionRow:
        for row in self.rows:
            if row.f == f and row.t == t:
                return row
        raise KeyError(f"no projection cell (f={f}, t={t})")

    def to_csv(self) -> str:
        lines = ["f,t,n_models,no_est,mean_as"]
        lines += [
            f"{r.f},{r.t},{r.n_models},{r.no_est},{r.mean_as:.3f}" for r in self.rows
        ]
        return "\n".join(lines) + "\n"


def _block_offsets(f: int, q: int, t: int):
    """Where each model's Gram lies in its subset's flattened q x q Gram, in chunks.

    A model is the f mains plus one choice of t of the pairs f..q-1, taken in
    lexicographic order; its p x p block (p = f + t) is read from the flat
    positions row * q + col.  A chunk has at most BLOCKS_PER_CALL models.
    """
    n_choices = math.comb(q - f, t)
    combos = itertools.chain.from_iterable(itertools.combinations(range(f, q), t))
    for start in range(0, n_choices, BLOCKS_PER_CALL):
        k = min(BLOCKS_PER_CALL, n_choices - start)
        idx = np.empty((k, f + t), dtype=np.intp)
        idx[:, :f] = np.arange(f)
        idx[:, f:] = np.fromiter(combos, np.intp, k * t).reshape(k, t)
        yield idx[:, :, None] * q + idx[:, None, :]


def _score_subsets(
    x: np.ndarray, f: int, wanted: tuple[int, ...]
) -> dict[int, tuple[np.ndarray, int]]:
    """Per t: (efficiencies of the estimable models, no_est).

    Models are taken f-subset by f-subset in lexicographic order, and within
    a subset by choice of pairs in lexicographic order.
    """
    n, m = x.shape
    pair_pos = np.array(list(itertools.combinations(range(f), 2)), dtype=np.intp).reshape(-1, 2)
    q = f + len(pair_pos)
    vals: dict[int, list[np.ndarray]] = {t: [] for t in wanted}
    no_est = dict.fromkeys(wanted, 0)
    subsets = itertools.combinations(range(m), f)
    while stack := list(itertools.islice(subsets, SUBSETS_PER_STACK)):
        fs = np.array(stack, dtype=np.intp)
        cols = term_columns(x, fs, fs[:, pair_pos]).transpose(1, 0, 2)
        cols = cols.astype(float)  # (S, N, q); every +-1 product and sum is exact
        csum = cols.sum(axis=1)
        gram = cols.transpose(0, 2, 1) @ cols - csum[:, :, None] * csum[:, None, :] / n
        gram = gram.reshape(len(stack), q * q)
        for t in wanted:
            # as many whole subsets per call as fit, else one subset per call
            group = max(1, BLOCKS_PER_CALL // math.comb(q - f, t))
            for s0 in range(0, len(stack), group):
                for offsets in _block_offsets(f, q, t):
                    blocks = gram[s0 : s0 + group].take(offsets, axis=1)
                    eig = np.linalg.eigvalsh(blocks.reshape(-1, f + t, f + t))
                    eff = as_from_eigenvalues(eig, n)
                    estimable = ~np.isnan(eff)
                    vals[t].append(eff[estimable])
                    no_est[t] += len(eff) - int(estimable.sum())
    return {t: (np.concatenate(vals[t]), no_est[t]) for t in wanted}


def projection_report(
    d: Design,
    f_values: Iterable[int],
    t_values: Mapping[int, Sequence[int]] | None = None,
) -> ProjectionReport:
    """Mean As and non-estimable counts per (f, t) cell.

    t_values optionally restricts the interaction counts per f; the default
    is t = 1..C(f,2).
    """
    m = d.factors
    f_sorted = sorted(set(f_values))
    for f in f_sorted:
        if f < 1:
            raise ValueError(f"projection size must be >= 1, got {f}")
        if f > m:
            raise ValueError(f"projection size {f} exceeds {m} factors")
    rows = []
    for f in f_sorted:
        max_t = f * (f - 1) // 2
        wanted = tuple(t_values[f]) if t_values and f in t_values else tuple(
            range(1, max_t + 1)
        )
        wanted = tuple(t for t in wanted if 0 <= t <= max_t)
        scores = _score_subsets(d.entries, f, wanted)
        for t in wanted:
            vals, no_est = scores[t]
            n_models = math.comb(m, f) * math.comb(max_t, t)
            assert len(vals) + no_est == n_models
            rows.append(
                ProjectionRow(
                    f=f,
                    t=t,
                    n_models=n_models,
                    no_est=no_est,
                    mean_as=math.fsum(vals) / n_models,
                )
            )
    return ProjectionReport(rows=tuple(rows))
