"""Benchmark design corpus: published designs with frozen expectations.

Each fixture pairs a design file (and/or an expected X'X listing) with the
exact word counts it is known to have.  The manifest, data/manifest.txt, is
the one place that defines a fixture, one per line:

    id path [n=N] [m=M] [order=1|2] [cols=c1,c2,...] [bK=p/q ...] [xtx=path] -- source

`path` is "-" for matrix-only fixtures, which give n and m; `cols` derives
the design from distinct 1-based columns of another fixture's design file
(used for the Hadamard projections); the source after " -- " is what
`fixtures list` prints.  load_fixtures loads a whole selection first,
reading and parsing each design file once, so a bad file or a bad manifest
entry stops a command before it prints anything, with an error that names
the file or the entry.  check_fixtures then verifies every stated
expectation exactly, by shape rather than fixture by fixture: one stacked
X'X reproduction per (N, m, order), one structure check and one
word_counts_from_xtx per listing size and m, and one stacked_word_counts
per (N, m, k_max) for the designs' word counts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Callable, Hashable, Sequence

import numpy as np

from ..design import Design, ModelOrder, maximal_gram, parse_design
from ..errors import QbDesignError, UnknownFixtureError
from ..wordcounts import WordCounts, stacked_word_counts, word_counts_from_xtx

Row = tuple[str, bool, str]  # (check, ok, detail)

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


def read_manifest() -> dict[str, dict]:
    """The corpus manifest, id -> entry, with every file named as a full path
    and the fixture's source under "source".

    Commands that load many fixtures read it once and pass it to
    list_fixtures and load_fixture.
    """
    data = Path(str(resources.files(__package__))) / "data"
    entries: dict[str, dict] = {}
    for line in (data / "manifest.txt").read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields, _, source = line.partition(" -- ")
        fid, *toks = fields.split()
        if not toks:
            raise QbDesignError(f"manifest.txt entry {fid}: has no path")
        if fid in entries:
            raise QbDesignError(f"manifest.txt entry {fid}: is defined twice")
        entry: dict = {"path": None if toks[0] == "-" else data / toks[0]}
        entry["source"] = source.strip()
        for tok in toks[1:]:
            key, _, val = tok.partition("=")
            if key in entry:
                raise QbDesignError(f"manifest.txt entry {fid}: {key} is given twice")
            entry[key] = data / val if key == "xtx" else val
        entries[fid] = entry
    return entries


def list_fixtures(manifest: dict[str, dict] | None = None) -> tuple[str, ...]:
    return tuple(sorted(read_manifest() if manifest is None else manifest))


def load_fixtures(ids: Sequence[str], manifest: dict[str, dict] | None = None) -> list[Fixture]:
    """The fixtures `ids`, in order.  Each design file is read and parsed once,
    however many fixtures take their columns from it (the Hadamard projections)."""
    manifest = read_manifest() if manifest is None else manifest
    designs: dict[Path, Design] = {}
    return [_load(fid, manifest, designs) for fid in ids]


def load_fixture(fixture_id: str, manifest: dict[str, dict] | None = None) -> Fixture:
    return load_fixtures([fixture_id], manifest)[0]


def _load(fixture_id: str, manifest: dict[str, dict], designs: dict[Path, Design]) -> Fixture:
    entry = manifest.get(fixture_id)
    if entry is None:
        raise UnknownFixtureError(f"unknown fixture id {fixture_id!r}")

    def bad(key: str, what: str) -> QbDesignError:
        return QbDesignError(f"manifest.txt entry {fixture_id}: {key}={entry.get(key, '')} {what}")

    def count(key: str) -> int:
        val = entry.get(key, "")
        if not (val.isdecimal() and int(val) > 0):
            raise bad(key, "is not a positive integer")
        return int(val)

    known = {"path", "source", "n", "m", "order", "cols", "xtx", "b1", "b2", "b3", "b4"}
    unknown = [key for key in entry if key not in known]
    if unknown:
        raise bad(unknown[0], "is not a manifest key")
    order = entry.get("order", "1")
    if order not in ("1", "2"):
        raise bad("order", "is not 1 or 2")
    design = None
    path = entry["path"]
    if path is not None:
        if path not in designs:
            designs[path] = _read_design(path)
        design = designs[path]
        if "cols" in entry:
            cols = entry["cols"].split(",")
            idx = [int(c) - 1 for c in cols if c.isdecimal()]
            if len(set(idx)) != len(cols) or not all(0 <= i < design.factors for i in idx):
                raise bad("cols", f"does not name distinct columns in 1..{design.factors}")
            design = Design(design.entries[:, idx])
        runs, factors = design.runs, design.factors
    elif "cols" in entry:
        raise bad("cols", "takes columns of a design file, and there is none")
    else:
        runs, factors = count("n"), count("m")
    xtx = _read_xtx(entry["xtx"]) if "xtx" in entry else None
    expected_b = {}
    for k in range(1, 5):
        if f"b{k}" in entry:
            try:
                expected_b[k] = Fraction(entry[f"b{k}"])
            except (ValueError, ZeroDivisionError):
                raise bad(f"b{k}", "is not a rational number") from None
    return Fixture(
        id=fixture_id,
        design=design,
        order=ModelOrder(int(order)),
        expected_xtx=xtx,
        expected_b=expected_b,
        runs=runs,
        factors=factors,
        source=entry["source"],
    )


def _read_design(path: Path) -> Design:
    try:
        return parse_design(path.read_text())
    except QbDesignError as exc:
        raise QbDesignError(f"design file {path.name}: {exc}") from exc


def _read_xtx(path: Path) -> np.ndarray:
    """An X'X listing: the integers of a square matrix, row by row, separated by
    whitespace (one matrix row per line in the corpus files)."""
    text = path.read_text()
    try:
        with warnings.catch_warnings():
            # numpy < 2 warns at a token that is not an integer, where numpy 2 raises
            warnings.simplefilter("error", DeprecationWarning)
            a = np.fromstring(text, dtype=np.int64, sep=" ")
    except (ValueError, DeprecationWarning):
        raise ValueError(f"X'X listing {path.name} holds a token that is not an integer") from None
    n = math.isqrt(a.size)
    if n * n != a.size:
        raise ValueError(f"X'X listing {path.name} has {a.size} entries, not a square matrix")
    return a.reshape(n, n)


def check_fixtures(fixtures: Sequence[Fixture]) -> list[list[Row]]:
    """Verify every expectation of each fixture, by shape; one list of rows per fixture.

    A fixture's rows, in this order: xtx-reproduction (with a design and a
    listing); xtx-structure, xtx-consistency and b<k>-from-xtx for each
    expected b_k with k up to the listing's largest subset size (with a
    listing); b<k> for each expected b_k (with a design).  Each kind of
    check runs once per shape, over the stack of fixtures that have it.
    """
    reproduced: dict[int, tuple[bool, str]] = {}
    for (_, _, order, shape), idx in _groups(fixtures, _reproduction_shape).items():
        got = maximal_gram(np.stack([fixtures[i].design.entries for i in idx]), order)
        if got.shape[1:] == shape:
            want = np.stack([fixtures[i].expected_xtx for i in idx])
            ok = (got == want).all(axis=(1, 2)).tolist()
        else:
            ok = [False] * len(idx)
        detail = f"{got.shape[1]}x{got.shape[2]}"
        reproduced.update((i, (o, detail)) for i, o in zip(idx, ok))

    structure: dict[int, bool] = {}
    from_xtx: dict[int, WordCounts | ValueError] = {}
    for (shape, m), idx in _groups(fixtures, _listing_shape).items():
        a = np.stack([fixtures[i].expected_xtx for i in idx])
        runs = [fixtures[i].runs for i in idx]
        structure.update(zip(idx, _structure_ok(a, runs)))
        from_xtx.update(zip(idx, word_counts_from_xtx(a, runs, m)))

    designed: dict[int, WordCounts] = {}
    for (_, _, k_max), idx in _groups(fixtures, _word_count_shape).items():
        x = np.stack([fixtures[i].design.entries for i in idx])
        designed.update(zip(idx, stacked_word_counts(x, k_max)))

    results = []
    for i, f in enumerate(fixtures):
        rows: list[Row] = []
        if i in reproduced:
            rows.append(("xtx-reproduction", *reproduced[i]))
        if i in structure:
            rows.append(("xtx-structure", structure[i], "symmetric, diagonal N, parity, |a| <= N"))
            wc = from_xtx[i]
            if isinstance(wc, ValueError):
                rows.append(("xtx-consistency", False, str(wc)))
            else:
                rows.append(("xtx-consistency", True, "J values consistent"))
                rows.extend(_b_rows(wc, f.expected_b, "-from-xtx"))
        if i in designed:
            rows.extend(_b_rows(designed[i], f.expected_b, ""))
        results.append(rows)
    return results


def _groups(fixtures: Sequence[Fixture], key: Callable[[Fixture], Hashable]) -> dict:
    """Indices of the fixtures by key, in first-seen order; a key of None leaves one out."""
    groups: dict = {}
    for i, f in enumerate(fixtures):
        k = key(f)
        if k is not None:
            groups.setdefault(k, []).append(i)
    return groups


def _reproduction_shape(f: Fixture):
    if f.design is not None and f.expected_xtx is not None:
        return f.runs, f.factors, f.order, f.expected_xtx.shape
    return None


def _listing_shape(f: Fixture):
    return None if f.expected_xtx is None else (f.expected_xtx.shape, f.factors)


def _word_count_shape(f: Fixture):
    if f.design is not None and f.expected_b:
        return f.runs, f.factors, max(f.expected_b)
    return None


def _structure_ok(a: np.ndarray, runs: list[int]) -> list[bool]:
    """Per listing of the (L, d, d) stack: symmetric, diagonal N, every entry of
    N's parity and at most N in absolute value."""
    if a.shape[1] != a.shape[2]:
        return [False] * len(a)
    n = np.array(runs).reshape(-1, 1, 1)
    ok = (
        (a == np.swapaxes(a, 1, 2)).all(axis=(1, 2))
        & (np.diagonal(a, axis1=1, axis2=2) == n[:, 0]).all(axis=1)
        & (a % 2 == n % 2).all(axis=(1, 2))
        & (np.abs(a) <= n).all(axis=(1, 2))
    )
    return ok.tolist()


def _b_rows(wc: WordCounts, expected_b: dict[int, Fraction], suffix: str) -> list[Row]:
    rows = []
    for k, frac in sorted(expected_b.items()):
        if k <= wc.k_max:
            b = wc.b(k)
            rows.append((f"b{k}{suffix}", b == frac, f"{b} vs {frac}"))
    return rows
