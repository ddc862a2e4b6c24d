"""Projection analysis: estimability and mean As efficiency over submodels.

For every f-subset of factors and every choice of t of its C(f,2) two-factor
interactions, the model (intercept + f mains + the t interactions) is scored
by As efficiency; singular models count as efficiency 0 and are tallied as
non-estimable.  Under effect marginality these models are exactly the
f-factor projections of the second-order model space.

Work is embarrassingly parallel over f-subsets.  Per-model values are
reduced in a fixed enumeration order with exact summation, so the report is
bit-identical for any worker count.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .criteria import RCOND_SINGULAR
from .design import Design


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


def _score_subsets(
    entries: np.ndarray,
    f: int,
    subsets: Sequence[tuple[int, ...]],
    wanted: tuple[int, ...],
) -> dict[int, tuple[list[float], int, int]]:
    """Per t: (estimable efficiencies in enumeration order, no_est, n_models)."""
    n = entries.shape[0]
    out: dict[int, tuple[list[float], int, int]] = {t: ([], 0, 0) for t in wanted}
    for fs in subsets:
        pairs = list(itertools.combinations(fs, 2))
        cols = [entries[:, j] for j in fs]
        cols += [entries[:, a] * entries[:, b] for a, b in pairs]
        dm = np.column_stack(cols).astype(float)
        csum = dm.sum(axis=0)
        gram = dm.T @ dm - np.outer(csum, csum) / n
        for t in wanted:
            vals, no_est, count = out[t]
            for choice in itertools.combinations(range(len(pairs)), t):
                idx = list(range(f)) + [f + c for c in choice]
                eig = np.linalg.eigvalsh(gram[np.ix_(idx, idx)])
                count += 1
                if eig[-1] <= 0 or eig[0] / eig[-1] < RCOND_SINGULAR:
                    no_est += 1
                else:
                    vals.append(len(idx) / (n * float((1.0 / eig).sum())))
            out[t] = (vals, no_est, count)
    return out


def projection_report(
    d: Design,
    f_values: Iterable[int],
    t_values: Mapping[int, Sequence[int]] | None = None,
    threads: int = 1,
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
        subsets = list(itertools.combinations(range(m), f))
        if threads > 1 and len(subsets) > 1:
            size = math.ceil(len(subsets) / threads)
            chunks = [subsets[i : i + size] for i in range(0, len(subsets), size)]
            with ProcessPoolExecutor(max_workers=threads) as pool:
                parts = list(
                    pool.map(
                        _score_subsets,
                        itertools.repeat(d.entries),
                        itertools.repeat(f),
                        chunks,
                        itertools.repeat(wanted),
                    )
                )
        else:
            parts = [_score_subsets(d.entries, f, subsets, wanted)]
        for t in wanted:
            vals: list[float] = []
            no_est = 0
            count = 0
            for part in parts:
                pv, pn, pc = part[t]
                vals.extend(pv)
                no_est += pn
                count += pc
            n_models = math.comb(m, f) * math.comb(max_t, t)
            assert count == n_models
            rows.append(
                ProjectionRow(
                    f=f,
                    t=t,
                    n_models=n_models,
                    no_est=no_est,
                    mean_as=math.fsum(vals) / n_models if n_models else 0.0,
                )
            )
    return ProjectionReport(rows=tuple(rows))
