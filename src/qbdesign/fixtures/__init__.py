"""Benchmark design corpus: published designs with frozen expectations.

Each fixture pairs a design file (and/or an expected X'X listing) with the
exact word counts it is known to have.  The manifest is line oriented:

    id path [n=N] [m=M] [order=1|2] [cols=c1,c2,...] [bK=p/q ...] [xtx=path]

`path` is "-" for matrix-only fixtures; `cols` derives the design from the
1-based columns of another fixture's design file (used for the Hadamard
projections).  check_fixture verifies every stated expectation exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np

from ..design import Design, ModelOrder, information_matrix, parse_design
from ..errors import UnknownFixtureError
from ..wordcounts import word_counts, word_counts_from_xtx

_SOURCES = {
    "supp1.d1": "E(s2)-optimal supersaturated design, N=12, m=14",
    "supp1.d2": "UE(s2)-optimal supersaturated design, N=12, m=14",
    "supp1.d3": "UE(s2)-optimal supersaturated design, N=12, m=14",
    "supp1.d4": "coordinate-exchange supersaturated design, N=12, m=14",
    "supp1.d5": "coordinate-exchange supersaturated design, N=12, m=14",
    "table3.first": "12-run four-factor Hadamard submatrix",
    "table3.second": "coordinate-exchange 12-run four-factor design",
    "had16": "Hadamard matrix of order 16, normalized column removed",
    "case4.d6": "coordinate-exchange second-order design, N=16, m=6",
    "case5.a": "X'X of a coordinate-exchange second-order design, N=24, m=7",
    "case5.b": "X'X of a coordinate-exchange second-order design, N=24, m=7",
    "supp3.n22a": "X'X of a coordinate-exchange design, N=22, m=15",
    "supp3.n22b": "X'X of a coordinate-exchange design, N=22, m=15",
}
for _k in range(1, 6):
    _SOURCES[f"supp2.i{_k}.conf"] = (
        f"conference-matrix-derived saturated design, N=10, m=9, prior interval {_k}"
    )
    _SOURCES[f"supp2.i{_k}.alg"] = (
        f"coordinate-exchange saturated design, N=10, m=9, prior interval {_k}"
    )
for _k in range(1, 7):
    _SOURCES[f"supp3.i{_k}"] = f"coordinate-exchange design, N=14, prior interval {_k}"
for _k in range(1, 6):
    _SOURCES[f"had16.proj{_k}"] = (
        f"six-column projection class {_k} of the order-16 Hadamard matrix"
    )


@dataclass(frozen=True)
class Fixture:
    id: str
    design: Design | None
    order: ModelOrder
    expected_xtx: np.ndarray | None
    expected_b: dict[int, Fraction]
    runs: int
    factors: int
    source: str
    cols: tuple[int, ...] | None = None


def read_manifest() -> dict[str, dict]:
    """The corpus manifest, id -> entry, with every file named as a full path.

    Commands that load many fixtures read it once and pass it to
    list_fixtures and load_fixture.
    """
    data = Path(str(resources.files(__package__))) / "data"
    entries: dict[str, dict] = {}
    for line in (data / "manifest.txt").read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        entry: dict = {"path": None if toks[1] == "-" else data / toks[1]}
        for tok in toks[2:]:
            key, _, val = tok.partition("=")
            entry[key] = data / val if key == "xtx" else val
        entries[toks[0]] = entry
    return entries


def list_fixtures(manifest: dict[str, dict] | None = None) -> tuple[str, ...]:
    return tuple(sorted(read_manifest() if manifest is None else manifest))


def load_fixture(fixture_id: str, manifest: dict[str, dict] | None = None) -> Fixture:
    entry = (read_manifest() if manifest is None else manifest).get(fixture_id)
    if entry is None:
        raise UnknownFixtureError(f"unknown fixture id {fixture_id!r}")
    order = ModelOrder(int(entry.get("order", 1)))
    cols = None
    design = None
    if entry["path"] is not None:
        design = parse_design(entry["path"].read_text())
        if "cols" in entry:
            cols = tuple(int(c) for c in entry["cols"].split(","))
            design = Design(design.entries[:, [c - 1 for c in cols]])
    xtx = _read_xtx(entry["xtx"]) if "xtx" in entry else None
    expected_b = {
        k: Fraction(entry[f"b{k}"]) for k in range(1, 5) if f"b{k}" in entry
    }
    if design is not None:
        runs, factors = design.runs, design.factors
    else:
        runs, factors = int(entry["n"]), int(entry["m"])
    return Fixture(
        id=fixture_id,
        design=design,
        order=order,
        expected_xtx=xtx,
        expected_b=expected_b,
        runs=runs,
        factors=factors,
        source=_SOURCES.get(fixture_id, ""),
        cols=cols,
    )


def _read_xtx(path: Path) -> np.ndarray:
    """An X'X listing: the integers of a square matrix, row by row, separated by
    whitespace (one matrix row per line in the corpus files)."""
    a = np.fromstring(path.read_text(), dtype=np.int64, sep=" ")
    n = math.isqrt(a.size)
    if n * n != a.size:
        raise ValueError(f"X'X listing {path.name} has {a.size} entries, not a square matrix")
    return a.reshape(n, n)


def check_fixture(f: Fixture) -> list[tuple[str, bool, str]]:
    """Verify every expectation of a fixture; returns (check, ok, detail) rows."""
    results: list[tuple[str, bool, str]] = []
    if f.design is not None and f.expected_xtx is not None:
        got = information_matrix(f.design, f.order).a
        ok = got.shape == f.expected_xtx.shape and np.array_equal(got, f.expected_xtx)
        results.append(("xtx-reproduction", ok, f"{got.shape[0]}x{got.shape[1]}"))
    if f.expected_xtx is not None:
        a = f.expected_xtx
        ok = (
            np.array_equal(a, a.T)
            and (np.diag(a) == f.runs).all()
            and (a % 2 == f.runs % 2).all()
            and (np.abs(a) <= f.runs).all()
        )
        results.append(
            ("xtx-structure", bool(ok), "symmetric, diagonal N, parity, |a| <= N")
        )
        try:
            wc = word_counts_from_xtx(a, f.runs, f.factors)
            results.append(("xtx-consistency", True, "J values consistent"))
        except ValueError as exc:
            wc = None
            results.append(("xtx-consistency", False, str(exc)))
        if wc is not None and f.expected_b:
            for k, frac in sorted(f.expected_b.items()):
                if k <= wc.k_max:
                    ok = wc.b(k) == frac
                    results.append((f"b{k}-from-xtx", ok, f"{wc.b(k)} vs {frac}"))
    if f.design is not None and f.expected_b:
        wc = word_counts(f.design, max(f.expected_b))
        for k, frac in sorted(f.expected_b.items()):
            ok = wc.b(k) == frac
            results.append((f"b{k}", ok, f"{wc.b(k)} vs {frac}"))
    return results
