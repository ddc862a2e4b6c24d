import functools
import io
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qbdesign import cli, csvcells, theory
from qbdesign.criteria import (
    RCOND_SINGULAR,
    Prior,
    PriorSums,
    qb_coefficients,
    qb_from_word_counts,
)
from qbdesign.design import Design, ModelOrder, information_matrix, model_terms
from qbdesign.errors import EmptyDesignError, NonBinaryEntryError, RaggedRowsError
from qbdesign.fixtures import load_fixture
from qbdesign.optimizer import _Block
from qbdesign.wordcounts import WordCounts, krawtchouk_sums, krawtchouk_table, word_counts


@pytest.fixture(scope="session")
def fx():
    cache = {}

    def get(fixture_id):
        if fixture_id not in cache:
            cache[fixture_id] = load_fixture(fixture_id)
        return cache[fixture_id]

    return get


@pytest.fixture
def fallbacks(monkeypatch):
    """The cell values `csvcells` sends to its "%.6g" fallback, in order."""
    seen = []
    fallback = csvcells.fallback

    def counted(values):
        seen.extend(values)
        return fallback(values)

    monkeypatch.setattr(csvcells, "fallback", counted)
    return seen


def watch_exact_state(monkeypatch):
    """Install the oracle of the optimizer's row deltas over whatever
    _Block.row_deltas and _Block.flip are now: at every accepted flip, 4 x
    the t that the last row_deltas gave that coordinate must equal
    krawtchouk_sums after the flip minus krawtchouk_sums before it, both
    counted from scratch, and its sum must have passed the threshold.  The
    list it returns grows by the restarts each flip flipped."""
    checked = []
    row_deltas, flip = _Block.row_deltas, _Block.flip

    def scored(block, rows):
        delta, t = row_deltas(block, rows)
        block.scored = rows, delta, t
        return delta, t

    def checked_flip(block, flat):
        # each flat index of xo, decoded to (restart, row, column), is inside
        # a real run and never in the ones column, one per flipped restart
        at, rest = np.divmod(np.asarray(flat), block.n * (block.m + 1))
        rows, cols = np.divmod(rest, block.m + 1)
        assert at.ndim == 1 and at.size and (at >= 0).all() and (at < len(block.xo)).all()
        assert (cols < block.m).all() and len(set(at.tolist())) == len(at)
        kraw = krawtchouk_table(block.m, block.k_max, block.n)[1:]
        before = krawtchouk_sums(block.x[at].astype(np.int64), kraw)
        flip(block, flat)
        after = krawtchouk_sums(block.x[at].astype(np.int64), kraw)
        # each flip's row is in its restart's window once: the window's rows
        # differ; the flip was scored as an improving lane
        window, delta, t = block.scored
        l = (window[at] == rows[:, None]).argmax(axis=1)
        assert (delta[at, l, cols] <= block.thr).all()
        assert np.array_equal(4 * t[:, at, l, cols].T, after - before)
        checked.extend(at.tolist())

    monkeypatch.setattr(_Block, "row_deltas", scored)
    monkeypatch.setattr(_Block, "flip", checked_flip)
    return checked


@pytest.fixture
def exact_state(monkeypatch):
    """The oracle of the optimizer's row deltas, watch_exact_state over the
    package's own _Block."""
    return watch_exact_state(monkeypatch)


def full_factorial(m):
    return Design(np.array(list(itertools.product((-1, 1), repeat=m))))


def paley_hadamard(q):
    """The Paley Hadamard matrix of order q + 1, for a prime q = 3 (mod 4),
    with every row signed so that its first column is all +1.

    It is I + S for the skew matrix S whose first row is (0, 1, ..., 1),
    first column (0, -1, ..., -1), and whose entry (i, j) below them is the
    quadratic character of j - i mod q (Paley, J. Math. Phys. 12 (1933)).
    """
    chi = [0] + [1 if pow(a, (q - 1) // 2, q) == 1 else -1 for a in range(1, q)]
    s = np.zeros((q + 1, q + 1), dtype=np.int64)
    s[0, 1:] = 1
    s[1:, 0] = -1
    s[1:, 1:] = [[chi[(j - i) % q] for j in range(q)] for i in range(q)]
    h = s + np.eye(q + 1, dtype=np.int64)
    return h * h[:, :1]


def lin_supersaturated(q):
    """Lin's supersaturated design (Technometrics 35 (1993)): the rows of
    paley_hadamard(q) whose column 1 is +1, without columns 0 and 1, so
    (q + 1) / 2 runs and q - 1 factors."""
    h = paley_hadamard(q)
    return Design(h[h[:, 1] == 1][:, 2:])


def es2_bound(n, m):
    """The least S_2, the sum of s_ij^2 over column pairs, of a level-balanced
    n x m design: N^2 m (m - N + 1) / (2 (N - 1)), from the E(s^2) bound of
    Nguyen (Technometrics 38 (1996)) and Tang & Wu (Canad. J. Statist. 25
    (1997)).  It binds only among level-balanced designs."""
    return Fraction(n * n * m * (m - n + 1), 2 * (n - 1))


def random_designs(count, seed, n_lo=4, n_hi=12, m_lo=2, m_hi=7):
    """Deterministic stream of (design, rng) pairs for property tests."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    for _ in range(count):
        n = int(rng.integers(n_lo, n_hi + 1))
        m = int(rng.integers(m_lo, m_hi + 1))
        yield Design(rng.integers(0, 2, size=(n, m)) * 2 - 1), rng


def enumerated_word_counts(x, k_max):
    """S_1..S_k_max by summing J_s^2 over every k-subset of columns.

    The reference for the distance/Krawtchouk kernel: it shares no code with
    the package.  Subsets are taken in chunks so memory stays bounded.
    """
    x = np.asarray(x, dtype=np.int64)
    s_k = []
    for k in range(1, k_max + 1):
        combos = itertools.combinations(range(x.shape[1]), k)
        total = 0
        while chunk := list(itertools.islice(combos, 20_000)):
            j_vals = x[:, np.array(chunk)].prod(axis=2).sum(axis=0)
            total += int((j_vals * j_vals).sum())
        s_k.append(total)
    return tuple(s_k)


def block_of_one(d, prior):
    """The optimizer's search state for the single design d."""
    return _Block(d.entries[None].copy(), prior)


def row_of_one(block, i):
    """(delta, t) of row i of a block of one: delta[j] is the QB change of
    flipping (i, j), the row deltas' sum divided by N^2, and t[k - 1, j]
    the exact term (S_k' - S_k) / 4."""
    s, t = block.row_deltas(np.array([[i]]))
    return s[0, 0] / (block.n * block.n), t[:, 0, 0, :-1]


def flip_one(block, i, j):
    """Sign-switch entry (i, j) of a block of one, at its flat index in xo."""
    block.flip(np.array([i * (block.m + 1) + j]))


def qb_of_one(block, prior):
    """QB of a block of one's design, from its word counts counted from scratch."""
    wc = word_counts(Design(block.x[0].astype(np.int64)), block.k_max)
    return qb_from_word_counts(wc, prior, block.m)


def serial_coordinate_exchange(start, prior):
    """One restart of first-improvement coordinate exchange, row by row.

    The reference for the lockstep kernel: it scans rows in order, flips the
    first improving entry at or after the cursor and re-scores the rest of
    the row, until a sweep accepts nothing.  Returns (entries, qb, sweeps),
    sweeps counting that last sweep.
    """
    block = block_of_one(start, prior)
    sweeps = 0
    while True:
        sweeps += 1
        accepted = 0
        for i in range(block.n):
            j = 0
            while j < block.m:
                delta = row_of_one(block, i)[0]
                hits = np.flatnonzero(delta[j:] < -1e-9)
                if not hits.size:
                    break
                j += int(hits[0])
                flip_one(block, i, j)
                accepted += 1
                j += 1
        if not accepted:
            return block.x[0].astype(np.int64), qb_of_one(block, prior), sweeps


def restart_starts(cfg, restarts=None):
    """The random starts of the given restarts (default: every restart) of an
    OptimizerConfig, drawn as multi_restart documents: restart r from the
    Philox stream of cfg.seed jumped r times."""
    return [
        np.random.Generator(np.random.Philox(key=cfg.seed).jumped(r)).integers(
            0, 2, size=(cfg.runs, cfg.factors)
        ) * 2 - 1
        for r in (range(cfg.restarts) if restarts is None else restarts)
    ]


def krawtchouk(k, d, m):
    """K_k(d; m) = sum_j (-1)^j C(d, j) C(m - d, k - j), as a Python int."""
    return sum((-1) ** j * math.comb(d, j) * math.comb(m - d, k - j) for j in range(k + 1))


def token_loop_parse_design(text):
    """The reference for design.parse_design: int() on every token, row by row."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].replace(",", " ").split() if lines else []
    if header and all(_not_int(tok) for tok in header):
        lines = lines[1:]
    if not lines:
        raise EmptyDesignError("no design rows found")
    rows, width = [], None
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


def _not_int(tok):
    try:
        int(tok)
    except ValueError:
        return True
    return False


def reference_row_deltas(x, rows, prior, scale=1):
    """(s, t) of _Block.row_deltas for the (R, N, m) stack x and the (R, L)
    rows, in int64 from the optimizer's module docstring; t is (k, R, L, m),
    the kernel's layout without its ones column.

    The reference for the float64 row-delta kernel: flipping (i, j) moves
    each distance d_ir to d_ir + sg_r, sg_r = x_ij x_rj (0 for r = i), so
    S_k' - S_k = 2 sum_r [K_k(d_ir + sg_r) - K_k(d_ir)] = 4 t_k, and s is
    4 (w_1 t_1 + w_2 t_2 + ...), summed left to right: N^2 times the QB
    change, undivided.  K is taken times scale, as a test may scale the
    optimizer's table; only the values the distances reach are computed,
    so a long design costs little.
    """
    x = np.asarray(x, dtype=np.int64)
    r_, n, m = x.shape
    weights = qb_coefficients(prior, m)
    xi = x[np.arange(r_)[:, None], rows]  # (R, L, m)
    d = (m - (xi[:, :, None, :] * x[:, None]).sum(axis=-1)) // 2  # (R, L, N)
    sg = xi[:, :, None, :] * x[:, None]  # (R, L, N, m)
    sg[rows[:, :, None] == np.arange(n)] = 0  # the run itself does not move
    moved = d[..., None] + sg
    table = np.zeros((len(weights), m + 1), dtype=np.int64)
    for v in np.union1d(moved, d).tolist():
        table[:, v] = [scale * krawtchouk(k, v, m) for k in range(1, len(weights) + 1)]
    change = 2 * (table[:, moved] - table[:, d][..., None]).sum(axis=-2)  # (k, R, L, m)
    assert not (change % 4).any()
    t = change // 4
    acc = weights[0] * t[0]
    for k in range(1, len(weights)):
        acc = acc + weights[k] * t[k]
    return 4.0 * acc, t


def verify_block_pattern_xtx(a, n_runs):
    """theory.verify_block_pattern's check applied directly to a first-order
    X'X matrix, such as a corpus listing or one no design realizes."""
    theory._require_n_mod_4(n_runs)
    return theory._pattern_from_info(np.asarray(a))


def loop_pattern_from_info(a):
    """theory._pattern_from_info entry by entry: column j (0 = intercept) is
    in block 1 when j >= 1 and its sum is 0 mod 4, else in block 0; an entry
    above the diagonal needs |a_ij| = 2 inside a block and 0 across blocks."""
    m = len(a) - 1
    block = [0] + [1 if a[0][j] % 4 == 0 else 0 for j in range(1, m + 1)]
    violations = []
    signs = [set(), set()]
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            v = int(a[i][j])
            if block[i] != block[j]:
                if v != 0:
                    violations.append((i, j, v))
            elif abs(v) != 2:
                violations.append((i, j, v))
            else:
                signs[block[i]].add(v)
    labels = {(): "none", (2,): "+2", (-2,): "-2", (-2, 2): "mixed"}
    n_lb = sum(a[0][j] == 0 for j in range(1, m + 1))
    return theory.PatternReport(
        matches=not violations,
        n_level_balanced=n_lb,
        n_non_level_balanced=m - n_lb,
        violations=tuple(violations),
        block_signs=tuple(labels[tuple(sorted(s))] for s in signs),
    )


def oracle_restarts(cfg):
    """(entries, qb, sweeps) of every restart of cfg, by the serial oracle."""
    return [serial_coordinate_exchange(Design(x), cfg.prior) for x in restart_starts(cfg)]


def enumerated_projection_models(x, f, t):
    """Every (f, t) projection model with its eigenvalues, one eigvalsh each.

    The reference for the batched projection scorer: yields (the f-subset,
    the positions of the chosen pairs among its C(f,2) pairs, the ascending
    eigenvalues of the model's centered Gram), subset by subset and choice
    by choice in lexicographic order.
    """
    x = np.asarray(x)
    n = x.shape[0]
    for fs in itertools.combinations(range(x.shape[1]), f):
        pairs = list(itertools.combinations(fs, 2))
        cols = [x[:, j] for j in fs] + [x[:, a] * x[:, b] for a, b in pairs]
        dm = np.column_stack(cols).astype(float)
        csum = dm.sum(axis=0)
        gram = dm.T @ dm - np.outer(csum, csum) / n
        for choice in itertools.combinations(range(len(pairs)), t):
            idx = list(range(f)) + [f + c for c in choice]
            yield fs, choice, np.linalg.eigvalsh(gram[np.ix_(idx, idx)])


def singular_eigenvalues(eig):
    """Whether a model with these ascending eigenvalues is not estimable."""
    return eig[-1] <= 0 or eig[0] / eig[-1] < RCOND_SINGULAR


def enumerated_projection_values(x, f, t):
    """Per-model As efficiencies of the (f, t) projection models, one eigvalsh each.

    Returns (the efficiencies of the estimable models in the order of
    `enumerated_projection_models`, the number of non-estimable models).
    """
    n = np.asarray(x).shape[0]
    vals = []
    no_est = 0
    for _, _, eig in enumerated_projection_models(x, f, t):
        if singular_eigenvalues(eig):
            no_est += 1
        else:
            vals.append(len(eig) / (n * float((1.0 / eig).sum())))
    return vals, no_est


@functools.lru_cache(maxsize=8)
def _model_space(m, order):
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


def prior_sums_oracle(m, prior):
    """Brute-force prior sums by enumerating every marginality-respecting submodel.

    The reference for the closed-form `prior_sums`.  A submodel takes any
    subset of the m main effects plus any subset of the interactions among
    the chosen factors; its prior probability is
    pi1^a (1-pi1)^(m-a) pi2^a2 (1-pi2)^(C(a,2)-a2).  Returns (the prior
    sums, the total probability of the model space, which must be 1 up to
    rounding).  The model space has 2^m members for first order and far
    more for second order, so keep m <= 12 and m <= 6 respectively.
    """
    terms, member, n_mains, n_inter, n_pairs = _model_space(m, prior.order)
    p1, p2 = prior.pi1, prior.pi2
    prob = p1**n_mains * (1 - p1) ** (m - n_mains)
    if prior.order is ModelOrder.SECOND_ORDER:
        prob = prob * p2**n_inter * (1 - p2) ** (n_pairs - n_inter)
    weighted = member * prob[:, None]
    p0 = weighted.sum(axis=0)
    pij = weighted.T @ member
    np.fill_diagonal(pij, 0.0)
    return PriorSums(terms=terms, p0=p0, pij=pij), float(prob.sum())


def pointwise_sweep(argv):
    """The stdout and stderr of a valid `sweep` argv, one point at a time.

    The reference for the chunked grid sweep: every grid point gets its own
    Prior and every design its own qb_from_word_counts call, and each row is
    printed as it is computed.
    """
    args = cli.build_parser().parse_args(argv)
    designs = [cli._load(p) for p in args.designs]
    names = []
    for p in args.designs:
        stem = p[len("fixture:"):] if p.startswith("fixture:") else Path(p).stem
        while stem in names:
            stem += "+"
        names.append(stem)
    order = ModelOrder.FIRST_ORDER if args.order == 1 else ModelOrder.SECOND_ORDER
    counts = [word_counts(d) for d in designs]
    two_d = args.pi2_lo is not None

    def grid(lo, hi, step):
        return [min(lo + i * step, hi) for i in range(cli._grid_size(lo, hi, step))]

    pi2_grid = grid(args.pi2_lo, args.pi2_hi, args.pi2_step) if two_d else [args.pi2]
    out, err = io.StringIO(), io.StringIO()
    header = (["pi1", "pi2"] if two_d else ["pi1"])
    header += [f"qb:{n}" for n in names] + [f"releff:{n}" for n in names]
    print(",".join(header), file=out)
    prev_argmin = None
    for pi1 in grid(args.lo, args.hi, args.step):
        for pi2 in pi2_grid:
            prior = Prior(pi1, pi2, order)
            qbs = [qb_from_word_counts(w, prior, d.factors) for w, d in zip(counts, designs)]
            qmin = min(qbs)
            argmin = qbs.index(qmin)
            rel = [1.0 if q == qmin else (qmin / q if q > 0 else 1.0) for q in qbs]
            row = [f"{pi1:.6g}"] + ([f"{pi2:.6g}"] if two_d else [])
            row += [f"{q:.6g}" for q in qbs] + [f"{r:.6g}" for r in rel]
            print(",".join(row), file=out)
            if prev_argmin is not None and argmin != prev_argmin:
                at = f"pi1={pi1:.6g}" + (f" pi2={pi2:.6g}" if two_d else "")
                print(
                    f"argmin change at {at}: {names[prev_argmin]} -> {names[argmin]}", file=err
                )
            prev_argmin = argmin
    return out.getvalue(), err.getvalue()


def loop_word_counts_from_xtx(a, n_runs, m):
    """The reference for wordcounts.word_counts_from_xtx on one listing: a
    Python scan of the upper triangle, row by row, that keeps each subset's
    first J in a dict and raises at the first entry that disagrees with it."""
    a = np.asarray(a)
    dim = a.shape[0]
    if a.shape != (dim, dim) or not np.array_equal(a, a.T):
        raise ValueError("information matrix must be square and symmetric")
    if dim == m + 1:
        terms = model_terms(m, ModelOrder.FIRST_ORDER)
    elif dim == 1 + m + m * (m - 1) // 2:
        terms = model_terms(m, ModelOrder.SECOND_ORDER)
    else:
        raise ValueError(f"matrix size {dim} fits neither model order for m={m}")
    bits = [sum(1 << j for j in t) for t in terms]  # each term's factor set
    rows = a.astype(np.int64, copy=False).tolist()
    j_val = {}  # symmetric difference, as bits -> its J
    for i in range(dim):
        for j in range(i + 1, dim):
            subset, value = bits[i] ^ bits[j], rows[i][j]
            if j_val.setdefault(subset, value) != value:
                named = tuple(f for f in range(m) if subset >> f & 1)
                raise ValueError(f"inconsistent J for subset {named}: {j_val[subset]} vs {value}")
    s_k = [0] * max((s.bit_count() for s in j_val), default=0)
    for subset, value in j_val.items():
        s_k[subset.bit_count() - 1] += value * value
    return WordCounts(runs=n_runs, s_k=tuple(s_k))


def loop_or_error(a, n_runs, m):
    """loop_word_counts_from_xtx's WordCounts, or the message of its ValueError."""
    try:
        return loop_word_counts_from_xtx(a, n_runs, m)
    except ValueError as exc:
        return str(exc)


def oracle_check_fixture(f):
    """The reference for fixtures.check_fixtures: one fixture at a time, through
    information_matrix, word_counts and the loop word counts of its listing."""
    results = []
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
            wc = loop_word_counts_from_xtx(a, f.runs, f.factors)
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


def listing_edits(a, runs):
    """Single-entry edits of an X'X listing, by the fault each one makes."""
    last = len(a) - 1

    def edited(change):
        b = np.array(a)
        change(b)
        return b

    def both(i, j, value):
        def change(b):
            b[i, j] = b[j, i] = value

        return change

    return {
        "asymmetric": edited(lambda b: b.__setitem__((0, last), b[0, last] + 2)),
        "diagonal": edited(lambda b: b.__setitem__((last, last), runs - 2)),
        "parity": edited(both(0, last, a[0, last] + 1)),
        "bound": edited(both(0, last, runs + 2)),
        # (0, 1) is the first entry of subset {0}, which a second-order listing shows again
        "j-conflict": edited(both(0, 1, a[0, 1] + 2)),
        "size": np.array(a[:-1, :-1]),
    }
