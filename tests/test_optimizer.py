import functools
import math
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qbdesign import optimizer, wordcounts
from qbdesign.criteria import Prior, as_efficiency, qb_coefficients, qb_from_word_counts
from qbdesign.design import Design, ModelOrder, random_design
from qbdesign.errors import TooLargeError
from qbdesign.optimizer import (
    OptimizerConfig,
    coordinate_exchange,
    multi_restart,
    qb_delta,
)
from qbdesign.wordcounts import WordCounts, krawtchouk_table, word_counts

from conftest import (
    block_of_one,
    enumerated_word_counts,
    flip_one,
    full_factorial,
    oracle_restarts,
    qb_of_one,
    random_designs,
    reference_row_deltas,
    restart_starts,
    row_of_one,
    serial_coordinate_exchange,
    watch_exact_state,
)

SECOND = ModelOrder.SECOND_ORDER


@pytest.fixture
def cursor_paths(monkeypatch):
    """Call it and iterate: each pass runs with every set of running restarts
    on one path of _exchange's cursor bookkeeping, arrays (the cut at 0)
    and then Python ints (the cut at RESTARTS_PER_BLOCK, no smaller than
    any block)."""
    every = optimizer.RESTARTS_PER_BLOCK

    def paths():
        for path, cut in (("arrays", 0), ("ints", every)):
            monkeypatch.setattr(optimizer, "SCALAR_CURSORS", cut)
            yield path

    return paths


def full_recompute_delta(d, i, j, prior):
    flipped = d.entries.copy()
    flipped[i, j] = -flipped[i, j]
    k_max = len(qb_coefficients(prior, d.factors))

    def qb(x):
        w = WordCounts(runs=d.runs, s_k=enumerated_word_counts(x, k_max))
        return qb_from_word_counts(w, prior, d.factors)

    return qb(flipped) - qb(d.entries)


class TestQbDelta:
    def test_involution(self):
        d = random_design(8, 5, seed=61)
        prior = Prior(0.4)
        block = block_of_one(d, prior)
        first = row_of_one(block, 2)[0][3]
        flip_one(block, 2, 3)
        second = row_of_one(block, 2)[0][3]
        assert first + second == 0.0

    def test_matches_full_recompute_first_order(self):
        rng = np.random.Generator(np.random.Philox(key=67))
        for d, _ in random_designs(30, seed=67):
            i = int(rng.integers(d.runs))
            j = int(rng.integers(d.factors))
            prior = Prior(float(rng.uniform(0, 1)))
            assert qb_delta(d, i, j, prior) == pytest.approx(
                full_recompute_delta(d, i, j, prior), abs=1e-10
            )

    def test_matches_full_recompute_second_order(self):
        rng = np.random.Generator(np.random.Philox(key=71))
        for d, _ in random_designs(30, seed=71, m_lo=3, m_hi=6):
            i = int(rng.integers(d.runs))
            j = int(rng.integers(d.factors))
            prior = Prior(
                float(rng.uniform(0, 1)),
                float(rng.uniform(0, 1)),
                ModelOrder.SECOND_ORDER,
            )
            assert qb_delta(d, i, j, prior) == pytest.approx(
                full_recompute_delta(d, i, j, prior), abs=1e-10
            )

    def test_any_flip_degrades_full_factorial(self):
        d = full_factorial(3)
        prior = Prior(0.5)
        for i in range(d.runs):
            for j in range(d.factors):
                assert qb_delta(d, i, j, prior) > 0

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            qb_delta(full_factorial(2), 4, 0, Prior(0.5))

    def test_incremental_state_matches_scratch(self):
        # S_k carried by the flips' terms 4 t_k equals a count from scratch,
        # and a flipped block scores every row as a fresh one does
        rng = np.random.Generator(np.random.Philox(key=73))
        d = random_design(10, 5, seed=77)
        prior = Prior(0.6, 0.3, ModelOrder.SECOND_ORDER)
        block = block_of_one(d, prior)
        s = np.array(word_counts(d, block.k_max).s_k)
        every_row = np.arange(10)[None]
        for _ in range(50):
            i, j = int(rng.integers(10)), int(rng.integers(5))
            s += 4 * row_of_one(block, i)[1][:, j].astype(np.int64)
            flip_one(block, i, j)
            now = Design(block.x[0].astype(np.int64))
            assert tuple(s.tolist()) == word_counts(now, block.k_max).s_k
            fresh = block_of_one(now, prior)
            for got, want in zip(block.row_deltas(every_row), fresh.row_deltas(every_row)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "n, m, prior",
        [
            (24, 30, Prior(0.6, 0.3, ModelOrder.SECOND_ORDER)),
            (12, 14, Prior(0.2)),
        ],
    )
    def test_state_matches_enumeration_after_flips(self, n, m, prior):
        rng = np.random.Generator(np.random.Philox(key=79))
        d = random_design(n, m, seed=89)
        block = block_of_one(d, prior)
        s = np.array(enumerated_word_counts(d.entries, block.k_max))
        for step in range(1, 61):
            i, j = int(rng.integers(n)), int(rng.integers(m))
            s += 4 * row_of_one(block, i)[1][:, j].astype(np.int64)
            flip_one(block, i, j)
            if step % 15 == 0:
                assert tuple(s.tolist()) == enumerated_word_counts(block.x[0], block.k_max)

    def test_row_terms_match_enumeration(self):
        rng = np.random.Generator(np.random.Philox(key=97))
        prior = Prior(0.7, 0.4, ModelOrder.SECOND_ORDER)
        for d, _ in random_designs(10, seed=101, n_hi=16, m_lo=4, m_hi=9):
            base = enumerated_word_counts(d.entries, 4)
            i = int(rng.integers(d.runs))
            delta, t = row_of_one(block_of_one(d, prior), i)
            for j in range(d.factors):
                flipped = d.entries.copy()
                flipped[i, j] = -flipped[i, j]
                after = enumerated_word_counts(flipped, 4)
                assert [4 * int(v) for v in t[:, j]] == [a - b for a, b in zip(after, base)]
                assert qb_delta(d, i, j, prior) == delta[j]


class TestCoordinateExchange:
    def test_full_factorial_fixed_point(self):
        d = full_factorial(3)
        best, qb, sweeps = coordinate_exchange(d, Prior(0.4))
        assert np.array_equal(best.entries, d.entries)
        assert qb == 0.0
        # a start that is already a local optimum is certified in one sweep
        assert sweeps == 1

    def test_trajectory_monotone(self):
        d = random_design(10, 6, seed=83)
        prior = Prior(0.5)
        block = block_of_one(d, prior)
        trace = [qb_of_one(block, prior)]
        for _ in range(3):
            for i in range(block.n):
                for j in range(block.m):
                    if row_of_one(block, i)[0][j] < -1e-9:
                        flip_one(block, i, j)
                        trace.append(qb_of_one(block, prior))
        assert all(b < a - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_result_locally_optimal(self):
        for seed in range(5):
            start = random_design(8, 5, seed=seed)
            best, qb, _ = coordinate_exchange(start, Prior(0.3))
            for i in range(8):
                for j in range(5):
                    assert qb_delta(best, i, j, Prior(0.3)) >= -1e-9
            assert qb <= qb_from_word_counts(word_counts(start, 2), Prior(0.3), 5) + 1e-12

    def test_row_scan_matches_coordinate_scan(self):
        # the row-at-a-time scan makes the same decisions as evaluating one
        # coordinate at a time in row-major order
        priors = [Prior(0.3), Prior(0.8, 0.5, ModelOrder.SECOND_ORDER)]
        for seed in range(6):
            prior = priors[seed % 2]
            start = random_design(10 + seed, 5 + seed, seed=seed)
            block = block_of_one(start, prior)
            sweeps = 0
            accepted = True
            while accepted:
                sweeps += 1
                accepted = False
                for i in range(block.n):
                    for j in range(block.m):
                        if row_of_one(block, i)[0][j] < -1e-9:
                            flip_one(block, i, j)
                            accepted = True
            best, qb, n_sweeps = coordinate_exchange(start, prior)
            assert np.array_equal(best.entries, block.x[0])
            assert (qb, n_sweeps) == (qb_of_one(block, prior), sweeps)


class TestMultiRestart:
    def test_deterministic(self):
        cfg = OptimizerConfig(runs=8, factors=5, prior=Prior(0.35), restarts=12, seed=7)
        r1 = multi_restart(cfg)
        r2 = multi_restart(cfg)
        assert np.array_equal(r1.best.entries, r2.best.entries)
        assert r1.qb == r2.qb
        assert r1.restart_log == r2.restart_log

    def test_schedule_invariant(self):
        cfg = OptimizerConfig(runs=8, factors=5, prior=Prior(0.35), restarts=8, seed=9)
        serial = multi_restart(cfg, threads=1)
        parallel = multi_restart(cfg, threads=2)
        assert np.array_equal(serial.best.entries, parallel.best.entries)
        assert serial.restart_log == parallel.restart_log
        assert serial.qb == parallel.qb

    def test_qb_consistent_with_word_counts(self):
        cfg = OptimizerConfig(
            runs=12,
            factors=5,
            prior=Prior(0.6, 0.4, ModelOrder.SECOND_ORDER),
            restarts=6,
            seed=21,
        )
        res = multi_restart(cfg)
        recomputed = qb_from_word_counts(res.word_counts, cfg.prior, cfg.factors)
        assert res.qb == recomputed
        assert res.qb <= min(st.qb for st in res.restart_log) + 1e-12

    @pytest.mark.parametrize("order", [ModelOrder.FIRST_ORDER, SECOND])
    def test_qb_is_the_criterion_of_the_result(self, order):
        # every QB the optimizer reports is qb_from_word_counts of the
        # design it reports, to the last bit
        rng = np.random.Generator(np.random.Philox(key=order.value * 1000 + 5))
        for m in range(1, 11):
            n = int(rng.integers(max(4, m // 2), 17))
            prior = Prior(float(rng.uniform(0.05, 0.95)), float(rng.uniform(0, 1)), order)
            cfg = OptimizerConfig(
                runs=n, factors=m, prior=prior, restarts=4, seed=int(rng.integers(2**32))
            )
            res = multi_restart(cfg)
            assert res.qb == qb_from_word_counts(res.word_counts, prior, m)
            assert res.qb == qb_from_word_counts(word_counts(res.best), prior, m)
            start = random_design(n, m, seed=int(rng.integers(2**32)))
            best, qb, _ = coordinate_exchange(start, prior)
            assert qb == qb_from_word_counts(word_counts(best), prior, m)

    def test_memory_does_not_grow_with_designs(self):
        # only the designs tied on QB are kept, and a finished restart costs
        # a few bytes until the search ends, so ten times the restarts stay
        # well within the peak of one block
        def peak(n, m, restarts):
            cfg = OptimizerConfig(runs=n, factors=m, prior=Prior(0.1), restarts=restarts, seed=1)
            tracemalloc.start()
            try:
                multi_restart(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for n, m in ((24, 7), (12, 14)):
            peak(n, m, 2)  # caches and imports out of the way
            assert peak(n, m, 640) < 1.3 * peak(n, m, 64)

    def test_restart_log_shape(self):
        cfg = OptimizerConfig(runs=6, factors=3, prior=Prior(0.2), restarts=5, seed=4)
        res = multi_restart(cfg)
        assert len(res.restart_log) == 5
        assert [st.restart for st in res.restart_log] == list(range(5))
        assert [st.sweeps for st in res.restart_log] == [sw for _, _, sw in oracle_restarts(cfg)]
        # records cross the process pool
        back = pickle.loads(pickle.dumps(res.restart_log))
        assert back == res.restart_log
        assert all(type(st) is optimizer.RestartStat for st in back)

    def test_supersaturated_target(self):
        cfg = OptimizerConfig(
            runs=12, factors=14, prior=Prior(0.1), restarts=60, seed=1
        )
        res = multi_restart(cfg)
        assert res.qb <= qb_from_word_counts(word_counts(res.best, 2), Prior(0.1), 14) + 1e-12
        # the E(s2)-optimal word counts are reachable at this budget
        assert res.word_counts.b(1) == 0
        assert res.word_counts.b(2) <= Fraction(8, 3)

    def test_high_prior_reaches_ue_class(self):
        # for pi1 >= 0.5 the unbalanced-E(s2) structure b1 + b2 = 7/3 wins
        cfg = OptimizerConfig(
            runs=12, factors=14, prior=Prior(0.8), restarts=200, seed=1
        )
        res = multi_restart(cfg)
        w = res.word_counts
        assert (w.b(1), w.b(2)) == (Fraction(1, 3), Fraction(2))

    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(runs=8, factors=4, prior=Prior(0.5), restarts=0)
        # the search stops by one rule: no improvement threshold or stale-sweep count to set
        with pytest.raises(TypeError, match="epsilon"):
            OptimizerConfig(runs=8, factors=4, prior=Prior(0.5), epsilon=1e-9)
        with pytest.raises(TypeError, match="max_stale_sweeps"):
            OptimizerConfig(runs=8, factors=4, prior=Prior(0.5), max_stale_sweeps=2)
        with pytest.raises(ValueError, match="runs"):
            OptimizerConfig(runs=1, factors=4, prior=Prior(0.5))
        with pytest.raises(ValueError, match="factors"):
            OptimizerConfig(runs=8, factors=0, prior=Prior(0.5))
        # the smallest search there is still runs
        res = multi_restart(OptimizerConfig(runs=2, factors=1, prior=Prior(0.5), restarts=2))
        assert res.best.entries.shape == (2, 1)
        with pytest.raises(ValueError):
            OptimizerConfig(runs=8, factors=4, prior=Prior(0.5), seed=-1)
        with pytest.raises(ValueError):
            OptimizerConfig(runs=8, factors=4, prior=Prior(0.5), seed=2**128)


def assert_matches_oracle(res, expected):
    """res has the oracle's restart log, and its best design is the one the
    tie-break picks from the oracle's restarts: among those whose QB is ==
    the least, the largest As, a non-estimable fit last, then the lowest index."""
    assert [(st.qb, st.sweeps) for st in res.restart_log] == [(qb, sw) for _, qb, sw in expected]
    qb_min = min(qb for _, qb, _ in expected)
    tied = [(r, x, as_efficiency(Design(x)))
            for r, (x, qb, _) in enumerate(expected) if qb == qb_min]
    _, winner, eff = max(tied, key=lambda t: (-np.inf if t[2] is None else t[2], -t[0]))
    assert np.array_equal(res.best.entries, winner)
    assert res.as_main == eff


# Shapes of the lockstep tests: the benchmark's, the smallest there are, and
# pi1 = 0 and 1, where every flip or none may tie.  Those with k_max <= 2 (first
# order, and second order at m <= 2) run the moment kernel, the rest the table.
LOCKSTEP_SHAPES = [
    (12, 14, Prior(0.1)),
    (24, 7, Prior(0.8, 0.5, SECOND)),
    (16, 6, Prior(0.6, 0.4, SECOND)),
    (20, 19, Prior(0.5, 0.5, SECOND)),
    (2, 1, Prior(0.4)),
    (2, 1, Prior(0.7, 0.3, SECOND)),
    (3, 1, Prior(0.5, 0.5, SECOND)),
    (4, 2, Prior(0.9, 0.2, SECOND)),
    (6, 3, Prior(0.3, 0.9, SECOND)),
    (8, 5, Prior(0.0)),
    (8, 5, Prior(1.0)),
    (10, 4, Prior(1.0, 1.0, SECOND)),
    (10, 4, Prior(0.0, 0.5, SECOND)),
]

# More shapes for the lookahead windows, with their restarts: a 6x3 one at
# pi1 = 0, and one whose rows cost enough that WINDOW_WORK cuts the window
WINDOW_SHAPES = [(6, 3, Prior(0.0), 9), (64, 30, Prior(0.5, 0.5, SECOND), 4)]

# Searches with QB ties: in the 12x6 one the best QB first appears at
# restart 70, after the first block of 64; in the 10x9 one the largest As
# among the ties is in the last block; in the 18x10 one the ties have two
# different word counts; in the 12x14 one QB is near 1e-9, so restarts 60%
# above the best lie within 1e-9 of it
AS_TIE_CFGS = (
    OptimizerConfig(runs=12, factors=6, prior=Prior(0.6, 0.4, SECOND), restarts=150, seed=33),
    OptimizerConfig(runs=10, factors=9, prior=Prior(0.3), restarts=150, seed=4),
    OptimizerConfig(runs=18, factors=10, prior=Prior(0.1), restarts=64, seed=7),
    OptimizerConfig(runs=12, factors=14, prior=Prior(1e-5), restarts=200, seed=1),
)


@functools.cache
def cached_oracle(cfg):
    return oracle_restarts(cfg)


@functools.cache
def as_tiebreak_oracle(cfg):
    """The winner of cfg by brute force over oracle_restarts(cfg): the least
    QB as an exact rational, then the largest As, then the lowest restart.

    The QB of a restart is sum_k w_k S_k / N^2 with the weights of the prior
    taken as the Fractions of the decimals pi1 and pi2, and S_k enumerated
    over subsets.  Returns (the tied restarts, the winner, its entries, its
    qb as the search computed it, its As, the word counts of the ties).
    """
    runs = cached_oracle(cfg)
    p = cfg.prior
    exact = Prior(Fraction(repr(p.pi1)), Fraction(repr(p.pi2)), p.order)
    k_max = len(qb_coefficients(exact, cfg.factors))
    s_k = [enumerated_word_counts(x, k_max) for x, _, _ in runs]
    qbs = [qb_from_word_counts(WordCounts(cfg.runs, sk), exact, cfg.factors) for sk in s_k]
    qb_min = min(qbs)
    tied = [r for r, qb in enumerate(qbs) if qb == qb_min]
    eff = {r: as_efficiency(Design(runs[r][0])) for r in tied}
    winner = max(tied, key=lambda r: (-np.inf if eff[r] is None else eff[r], -r))
    counts = {s_k[r] for r in tied}
    return tied, winner, runs[winner][0], runs[winner][1], eff[winner], counts


def certified_rows(events, n, m):
    """Row scorings a serial scan needs to reject N*m coordinates in a row
    after its last flip, from its trajectory: events lists each row scoring
    as ("row", i, None) and each flip as ("flip", i, j), in order.

    Returns (the scorings up to the end of the row where the certificate
    completes, the sweep that row is in, 1-based).
    """
    row_at, flip_at = [], []  # row-major index over all sweeps
    for kind, i, j in events:
        if kind == "row":
            prev = row_at[-1] if row_at else -1
            # the same row again after a flip, or the next row, wrapping round
            row_at.append(prev if prev % n == i else prev + (i - prev) % n)
        else:
            flip_at.append(row_at[-1] * m + j)
    last = flip_at[-1] + 1 if flip_at else 0
    stop = -(-(last + n * m) // m) - 1  # the row whose end reaches last + N*m
    return sum(r <= stop for r in row_at), stop // n + 1


class TestLockstep:
    """The lockstep kernel against one-restart-at-a-time serial scans."""

    @staticmethod
    def check_every_window(monkeypatch, cursor_paths, cfg):
        # WINDOW_WORK = 0 scores one row per restart and 2**62 every row of
        # the idle slots, up to N; blocks of 1, 3 and 7 leave fewer slots idle
        expected = cached_oracle(cfg)
        for _ in cursor_paths():
            for work in (0, optimizer.WINDOW_WORK, 2**62):
                monkeypatch.setattr(optimizer, "WINDOW_WORK", work)
                for per_block in (1, 3, 7, 64):
                    monkeypatch.setattr(optimizer, "RESTARTS_PER_BLOCK", per_block)
                    got = []
                    for lo in range(0, cfg.restarts, per_block):
                        hi = min(lo + per_block, cfg.restarts)
                        stats, finals = optimizer._run_block(cfg, lo, hi)
                        got += zip(finals, stats)
                    for (x0, qb0, sw0), ((x, _), st) in zip(expected, got, strict=True):
                        assert np.array_equal(x, x0)
                        assert (st.qb, st.sweeps) == (qb0, sw0)
                assert_matches_oracle(multi_restart(cfg), expected)

    @pytest.mark.parametrize("n, m, prior", LOCKSTEP_SHAPES)
    def test_matches_serial_oracle(self, monkeypatch, cursor_paths, n, m, prior):
        cfg = OptimizerConfig(runs=n, factors=m, prior=prior, restarts=9, seed=13)
        self.check_every_window(monkeypatch, cursor_paths, cfg)

    @pytest.mark.parametrize("n, m, prior, restarts", WINDOW_SHAPES)
    def test_every_window_matches_serial_oracle(
        self, monkeypatch, cursor_paths, n, m, prior, restarts
    ):
        cfg = OptimizerConfig(runs=n, factors=m, prior=prior, restarts=restarts, seed=13)
        self.check_every_window(monkeypatch, cursor_paths, cfg)

    @pytest.mark.parametrize("per_block", [1, 3, 7, 64])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_blocks_and_workers(self, monkeypatch, cursor_paths, per_block, threads):
        monkeypatch.setattr(optimizer, "RESTARTS_PER_BLOCK", per_block)
        for _ in cursor_paths():
            for cfg in (
                OptimizerConfig(runs=12, factors=14, prior=Prior(0.1), restarts=10, seed=2),
                OptimizerConfig(
                    runs=24, factors=7, prior=Prior(0.8, 0.5, SECOND), restarts=8, seed=5
                ),
            ):
                blocks = []
                res = multi_restart(cfg, threads=threads, on_block=blocks.append)
                assert_matches_oracle(res, cached_oracle(cfg))
                assert all(0 < len(b) <= per_block for b in blocks)
                assert tuple(st for b in blocks for st in b) == res.restart_log

    @pytest.mark.parametrize("per_block", [1, 3, 64])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_as_tiebreak_across_blocks(self, monkeypatch, per_block, threads):
        # the cases the four searches stand for
        for cfg in AS_TIE_CFGS[:2]:
            tied = as_tiebreak_oracle(cfg)[0]
            assert tied[-1] // 64 > tied[0] // 64
        assert as_tiebreak_oracle(AS_TIE_CFGS[0])[0][0] >= 64
        tied, winner = as_tiebreak_oracle(AS_TIE_CFGS[1])[:2]
        assert tied[0] < 64 <= 128 <= winner
        assert as_tiebreak_oracle(AS_TIE_CFGS[2])[-1] == {(8, 116), (12, 96)}
        assert f"{as_tiebreak_oracle(AS_TIE_CFGS[3])[3]:.6g}" == "1.31111e-09"
        monkeypatch.setattr(optimizer, "RESTARTS_PER_BLOCK", per_block)
        for cfg in AS_TIE_CFGS:
            _, _, entries, qb, eff, _ = as_tiebreak_oracle(cfg)
            res = multi_restart(cfg, threads=threads)
            assert np.array_equal(res.best.entries, entries)
            assert (res.qb, res.as_main) == (qb, eff)
            assert res.qb == min(st.qb for st in res.restart_log)

    @pytest.mark.parametrize("cfg", AS_TIE_CFGS)
    def test_ties_scored_in_one_stacked_pass(self, monkeypatch, cfg):
        # every tie goes into one as_efficiency of the whole stack, and each
        # gets the As of its design taken alone
        stacks = []

        def recording(ds):
            stacks.append(list(ds))
            return as_efficiency(ds)

        monkeypatch.setattr(optimizer, "as_efficiency", recording)
        res = multi_restart(cfg)
        tied = as_tiebreak_oracle(cfg)[0]
        [stack] = stacks
        runs = cached_oracle(cfg)
        assert [d.entries.tolist() for d in stack] == [runs[r][0].tolist() for r in tied]
        assert as_efficiency(stack) == [as_efficiency(d) for d in stack]
        assert_matches_oracle(res, runs)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_callback_sees_every_restart_in_order(self, threads):
        cfg = OptimizerConfig(runs=8, factors=5, prior=Prior(0.35), restarts=150, seed=7)
        blocks = []
        res = multi_restart(cfg, threads=threads, on_block=blocks.append)
        assert [st.restart for b in blocks for st in b] == list(range(150))
        assert tuple(st for b in blocks for st in b) == res.restart_log
        assert all(len(b) <= optimizer.RESTARTS_PER_BLOCK for b in blocks)

    @pytest.mark.parametrize("cpus, workers", [(2, 2), (None, 1)])
    def test_pool_capped_at_cpu_count(self, monkeypatch, cpus, workers):
        # the pool is a fake that records its size and maps in this process,
        # so asking for far more threads than cores starts no process
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(optimizer.os, "cpu_count", lambda: cpus)
        cfg = OptimizerConfig(runs=8, factors=5, prior=Prior(0.35), restarts=6, seed=7)
        res = multi_restart(cfg, threads=1000)
        assert sizes == [workers]
        serial = multi_restart(cfg)
        assert res.restart_log == serial.restart_log
        assert np.array_equal(res.best.entries, serial.best.entries)

    def test_threads_below_one(self):
        cfg = OptimizerConfig(runs=8, factors=4, prior=Prior(0.3), restarts=3)
        for threads in (0, -1):
            with pytest.raises(ValueError):
                multi_restart(cfg, threads=threads)


def consumed_rows(events):
    """The rows a cursor consumes, as certified_rows' events, from window
    events: each ("rows", window, None) is scored in one call, and the
    cursor consumes its rows through the flip row, or the whole window when
    no ("flip", i, j) follows it."""
    out = []
    for (kind, rows, j), nxt in zip(events, events[1:] + [None]):
        if kind == "flip":
            out.append((kind, rows, j))
            continue
        if nxt is not None and nxt[0] == "flip":
            rows = rows[: rows.index(nxt[1]) + 1]
        out += [("row", i, None) for i in rows]
    return out


class TestCertifiedStop:
    """A restart stops once N*m coordinates in a row have been rejected."""

    def test_rows_scored_end_at_the_certificate(self, monkeypatch, cursor_paths):
        events = []
        row_deltas, flip = optimizer._Block.row_deltas, optimizer._Block.flip

        def scored(block, rows):
            events.append(("rows", rows[0].tolist(), None))
            return row_deltas(block, rows)

        def flipped(block, flat):
            # a block of one: the flat index is row * (m + 1) + column
            events.append(("flip", *divmod(int(flat[0]), block.m + 1)))
            flip(block, flat)

        monkeypatch.setattr(optimizer._Block, "row_deltas", scored)
        monkeypatch.setattr(optimizer._Block, "flip", flipped)
        for _ in cursor_paths():
            for work in (0, optimizer.WINDOW_WORK):
                monkeypatch.setattr(optimizer, "WINDOW_WORK", work)
                tails = windows = 0
                for n, m, prior in LOCKSTEP_SHAPES:
                    cfg = OptimizerConfig(runs=n, factors=m, prior=prior, restarts=3, seed=13)
                    for x in restart_starts(cfg):
                        events.clear()
                        _, _, sweeps = serial_coordinate_exchange(Design(x), prior)
                        rows, certified_sweeps = certified_rows(consumed_rows(events), n, m)
                        full_scan = len(events) - sum(kind == "flip" for kind, _, _ in events)
                        events.clear()
                        assert coordinate_exchange(Design(x), prior)[2] == sweeps == certified_sweeps
                        # the rows the cursor consumes up to the certificate are the
                        # serial scan's, in at most as many calls
                        iterations = sum(kind == "rows" for kind, _, _ in events)
                        assert certified_rows(consumed_rows(events), n, m)[0] == rows
                        assert iterations <= rows
                        tails += rows < full_scan
                        windows += iterations < rows
                # most restarts certify before the end of their last sweep
                assert tails > len(LOCKSTEP_SHAPES)
                # a restart alone scores lookahead rows unless WINDOW_WORK forbids it
                assert (windows > 0) == (work > 0)


class TestBlockBudget:
    """Restarts per block come from a byte budget on distances and designs."""

    @staticmethod
    def cfg(n, m, restarts=100, **kw):
        return OptimizerConfig(runs=n, factors=m, prior=Prior(0.1), restarts=restarts, **kw)

    def test_benchmark_shapes_get_full_blocks(self):
        for n, m in ((12, 14), (24, 7)):
            assert optimizer._block_size(self.cfg(n, m), 1) == 64

    def test_large_designs_get_smaller_blocks(self):
        # int64 distances and starts, float64 designs with a column of ones
        per_restart = 8 * 1000 * (1000 + 2 * 14 + 1)
        size = optimizer._block_size(self.cfg(1000, 14), 1)
        assert size == optimizer.BLOCK_BYTES // per_restart
        assert 0 < size < optimizer.RESTARTS_PER_BLOCK

    def test_one_restart_too_large(self, monkeypatch):
        # refused by arithmetic on N and m: no start is drawn, no block built
        def never(*args, **kwargs):
            raise AssertionError("allocated")

        monkeypatch.setattr(optimizer, "_starts", never)
        monkeypatch.setattr(optimizer, "_run_block", never)
        with pytest.raises(TooLargeError, match="200000x3"):
            multi_restart(self.cfg(200000, 3, restarts=1))
        # the edge: a budget one byte short of one restart
        monkeypatch.setattr(optimizer, "BLOCK_BYTES", 8 * 12 * (12 + 2 * 14 + 1) - 1)
        with pytest.raises(TooLargeError):
            multi_restart(self.cfg(12, 14, restarts=1))

    @pytest.mark.parametrize("prior", [Prior(0.1), Prior(0.5, 0.5, SECOND)])
    def test_build_stays_within_budget(self, prior):
        # the build counts nothing: it allocates the float64 design with its
        # ones column and tables of O(m k), no run distances
        n, m = 1500, 3
        x = random_design(n, m, 4).entries[None].copy()
        tracemalloc.start()
        try:
            block = optimizer._Block(x, prior)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * n * (m + 1)
        assert np.array_equal(block.x, x)

    @pytest.mark.parametrize("prior", [Prior(0.1), Prior(0.5, 0.5, SECOND)])
    def test_search_stays_within_budget(self, prior):
        # the final count allocates the block's run distances beside its
        # finals: with the build and the search, window table included, a
        # one-restart block stays within its budget, less the start it is given
        n, m = 1500, 3
        x = random_design(n, m, 4).entries[None].copy()
        budget = 8 * n * (n + m + 1)
        tracemalloc.start()
        try:
            [(entries, qb, _, wc)] = optimizer._exchange(x, prior)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * budget
        assert wc == word_counts(Design(entries), len(qb_coefficients(prior, m)))
        assert qb == qb_from_word_counts(wc, prior, m)

    @pytest.mark.parametrize("prior", [Prior(0.1), Prior(0.5, 0.5, SECOND)])
    def test_block_holds_no_distances(self, prior):
        # the run distances are a temporary of the build: what the block keeps
        # beside its design, N x (m + 1) with the ones column, is O(N + m k),
        # not O(N^2)
        n, m = 1500, 3
        x = random_design(n, m, 4).entries[None].copy()
        tracemalloc.start()
        try:
            block = optimizer._Block(x, prior)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 2 * 8 * n * m
        arrays = [v for v in vars(block).values() if isinstance(v, np.ndarray)]
        assert max(a.size for a in arrays) == n * (m + 1)

    @pytest.mark.parametrize("prior", [Prior(0.1), Prior(0.5, 0.5, SECOND)])
    @pytest.mark.parametrize("restarts", [1, 3])
    def test_search_memory_is_linear_in_m(self, prior, restarts):
        # a search at m in the thousands: windows of two rows (one restart)
        # and of one row (three), and nothing it allocates grows with m^2
        n, m = 4, 3000
        x = np.stack([random_design(n, m, seed).entries for seed in range(restarts)])
        tracemalloc.start()
        try:
            out = optimizer._exchange(x, prior)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == restarts
        assert peak <= 32 * 8 * restarts * n * m

    def test_budget_splits_blocks_without_changing_results(self, monkeypatch):
        cfg = self.cfg(12, 14, restarts=10, seed=2)
        reference = multi_restart(cfg)
        monkeypatch.setattr(optimizer, "BLOCK_BYTES", 3 * 8 * 12 * (12 + 2 * 14 + 1))
        blocks = []
        res = multi_restart(cfg, on_block=blocks.append)
        assert [len(b) for b in blocks] == [3, 3, 3, 1]
        assert res.restart_log == reference.restart_log
        assert np.array_equal(res.best.entries, reference.best.entries)


class TestExactState:
    """The exact_state oracle: at every accepted flip, each flipped restart's
    4 t_k equals the change of S_k, counted from scratch before and after,
    with the cursors on either path."""

    def test_coordinate_exchange(self, exact_state, cursor_paths):
        for _ in cursor_paths():
            exact_state.clear()
            best, qb, _ = coordinate_exchange(random_design(8, 4, seed=17), Prior(0.4))
            assert exact_state and set(exact_state) == {0}
            assert qb == qb_from_word_counts(word_counts(best), Prior(0.4), 4)

    @pytest.mark.parametrize("work", [0, optimizer.WINDOW_WORK])
    def test_exchange_in_windows(self, monkeypatch, exact_state, cursor_paths, work):
        # one row per restart, then the default lookahead windows
        widths = set()
        row_deltas = optimizer._Block.row_deltas

        def scored(block, rows):
            widths.add(rows.shape[1])
            return row_deltas(block, rows)

        monkeypatch.setattr(optimizer._Block, "row_deltas", scored)
        monkeypatch.setattr(optimizer, "WINDOW_WORK", work)
        prior = Prior(0.7, 0.4, SECOND)
        cfg = OptimizerConfig(runs=10, factors=5, prior=prior, restarts=6, seed=19)
        starts = np.stack(restart_starts(cfg))
        for _ in cursor_paths():
            exact_state.clear()
            widths.clear()
            assert len(optimizer._exchange(starts, prior)) == len(starts)
            assert len(exact_state) > len(starts)
            assert (max(widths) > 1) == (work > 0)

    def test_multi_restart_of_several_blocks(self, monkeypatch, exact_state, cursor_paths):
        monkeypatch.setattr(optimizer, "BLOCK_BYTES", 3 * 8 * 12 * (12 + 2 * 14 + 1))
        cfg = OptimizerConfig(12, 14, Prior(0.1), restarts=10, seed=2)
        for _ in cursor_paths():
            exact_state.clear()
            blocks = []
            multi_restart(cfg, on_block=blocks.append)
            assert [len(b) for b in blocks] == [3, 3, 3, 1]
            assert set(exact_state) == {0, 1, 2}

    def test_oracle_reports_a_broken_state(self, monkeypatch, cursor_paths):
        row_deltas, flip = optimizer._Block.row_deltas, optimizer._Block.flip

        def terms_off_by_one(block, rows):
            # the same flips, each term 4 short of its change of S_k
            delta, t = row_deltas(block, rows)
            return delta, t + 1

        def next_column(block, flat):
            # the right terms, for another coordinate than the one flipped
            runs, cols = np.divmod(np.asarray(flat), block.m + 1)
            flip(block, runs * (block.m + 1) + (cols + 1) % block.m)

        for _ in cursor_paths():
            for name, broken in (("row_deltas", terms_off_by_one), ("flip", next_column)):
                with monkeypatch.context() as patch:
                    patch.setattr(optimizer._Block, name, broken)
                    watch_exact_state(patch)
                    with pytest.raises(AssertionError):
                        coordinate_exchange(random_design(8, 4, seed=17), Prior(0.4))


class TestSecondOrderBenchmark:
    def test_attains_24_run_benchmark(self, fx):
        # the stored 24-run 7-factor X'X listing for prior (0.8, 0.8) has
        # word counts (0, 0, 2/3, 5/3); the search reaches the same class
        from qbdesign.wordcounts import word_counts_from_xtx

        prior = Prior(0.8, 0.8, ModelOrder.SECOND_ORDER)
        bench = word_counts_from_xtx(fx("case5.b").expected_xtx, 24, 7)
        target = qb_from_word_counts(bench, prior, 7)
        res = multi_restart(
            OptimizerConfig(runs=24, factors=7, prior=prior, restarts=60, seed=1)
        )
        assert res.qb <= target + 1e-12
        assert (res.word_counts.b(3), res.word_counts.b(4)) == (
            Fraction(2, 3),
            Fraction(5, 3),
        )


class TestTheoryConsistency:
    def test_never_beats_block_optimum(self):
        # the block-pattern optimum is a true optimum wherever the pattern
        # exists, so the search may attain it but never undercut it; at this
        # scale it attains it in all but a couple of the hardest (small-pi1,
        # highly structured) intervals
        from qbdesign.theory import balance_intervals, qb_block_value

        misses = 0
        for n in (6, 10):
            for m in range(2, n):
                for lo, hi, _, lb in balance_intervals(n, m).intervals():
                    mid = lo + (hi - lo) / 2
                    theory = float(qb_block_value(n, m, lb, mid))
                    res = multi_restart(
                        OptimizerConfig(
                            runs=n, factors=m, prior=Prior(float(mid)),
                            restarts=80, seed=3,
                        )
                    )
                    assert res.qb >= theory - 1e-9, (n, m, float(mid))
                    if res.qb > theory + 1e-9:
                        misses += 1
        assert misses <= 4


class TestFloatRowDeltas:
    """The float64 row-delta kernel against the int64 reference of the docstring."""

    @staticmethod
    def check_rows(scored, x, rows, prior, scale=1):
        # the kernel's (s, t) for these rows are the reference's, t without
        # its ones column
        s, t = scored
        want_s, want_t = reference_row_deltas(x, rows, prior, scale)
        assert t.dtype == np.float64 and np.array_equal(t[..., :-1], want_t)
        assert s.dtype == np.float64 and np.array_equal(s, want_s)

    @classmethod
    def check_every_width(cls, block, prior, scale=1):
        # rows of every window width from each restart's own offset, wrapping
        # round, scored twice on the same block from offsets one row apart:
        # the first call's results must outlive the second call
        r, n = block.x.shape[:2]
        offsets = np.random.Generator(np.random.Philox(key=n)).integers(0, n, r)
        for width in range(1, n + 1):
            windows = [(offsets[:, None] + shift + np.arange(width)) % n for shift in (0, 1)]
            scored = [block.row_deltas(rows) for rows in windows]
            for rows, got in zip(windows, scored):
                cls.check_rows(got, block.x, rows, prior, scale)

    @pytest.mark.parametrize("n, m, prior", LOCKSTEP_SHAPES + [(64, 30, Prior(0.5, 0.5, SECOND))])
    def test_every_width_equals_int64_reference(self, n, m, prior):
        cfg = OptimizerConfig(runs=n, factors=m, prior=prior, restarts=3, seed=13)
        self.check_every_width(optimizer._Block(np.stack(restart_starts(cfg)), prior), prior)

    @pytest.mark.parametrize("n, m, prior", LOCKSTEP_SHAPES)
    def test_every_width_after_keep(self, n, m, prior):
        # a three-restart block whose middle restart has left, then a flip:
        # what row_deltas reads is made from the kept designs and sees the flip
        cfg = OptimizerConfig(runs=n, factors=m, prior=prior, restarts=3, seed=17)
        starts = np.stack(restart_starts(cfg))
        block = optimizer._Block(starts.copy(), prior)
        block.row_deltas(np.zeros((3, 1), dtype=np.intp))
        block.keep(np.array([True, False, True]))
        block.flip(np.array([(1 * n + n - 1) * (m + 1)]))  # (restart 1, row n - 1, column 0)
        kept = starts[[0, 2]]
        kept[1, n - 1, 0] *= -1
        assert np.array_equal(block.x, kept)
        self.check_every_width(block, prior)

    def test_bound_holds_at_the_int64_edge(self):
        # m = 86,251 is the largest m whose k <= 4 word counts of a 2-run
        # design the int64 check accepts; the float64 sums stay far from 2^53
        n, m, prior = 2, 86_251, Prior(0.5, 0.5, SECOND)
        block = optimizer._Block(random_design(n, m, seed=3).entries[None].copy(), prior)
        # _q holds Q_1..Q_4
        assert 2 * (n + 1) * np.abs(block._q).max() < 2**53 / 2
        rows = np.array([[0, 1]])
        self.check_rows(block.row_deltas(rows), block.x, rows, prior)
        with pytest.raises(TooLargeError):
            krawtchouk_table(m + 1, 4, n)

    def test_refused_past_the_bound_and_exact_below_it(self, monkeypatch):
        # the table scaled by the least factor that reaches 2^53 is refused;
        # one less is accepted, and every delta is still exact.  Only the
        # table kernel (k_max > 2, here 3 and 4) reads a table and has the bound.
        prior = Prior(0.3, 0.5, SECOND)
        real = optimizer.krawtchouk_table
        for n, m in ((4, 3), (5, 4)):
            monkeypatch.setattr(optimizer, "krawtchouk_table", real)
            x = random_design(n, m, seed=1).entries[None].copy()
            block = optimizer._Block(x.copy(), prior)
            assert block.k_max == m
            top = int(np.abs(block._q).max())  # max |Q|
            edge = -(-(2**53) // (2 * (n + 1) * top))
            monkeypatch.setattr(optimizer, "krawtchouk_table", lambda *a: real(*a) * edge)
            with pytest.raises(TooLargeError, match="exact float64"):
                optimizer._Block(x.copy(), prior)
            monkeypatch.setattr(optimizer, "krawtchouk_table", lambda *a: real(*a) * (edge - 1))
            self.check_every_width(optimizer._Block(x.copy(), prior), prior, scale=edge - 1)

    @pytest.mark.parametrize("order", [ModelOrder.FIRST_ORDER, SECOND])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 7])
    def test_moment_kernel_exactly_when_k_max_at_most_2(self, order, m):
        # the moment kernel reads no table and has no bound; either kernel's
        # rows equal the int64 reference
        prior = Prior(0.4, 0.6, order)
        x = np.stack([random_design(6, m, seed=s).entries for s in (1, 2)])
        block = optimizer._Block(x, prior)
        assert block.k_max == len(qb_coefficients(prior, m))
        assert (block._q is None) == (block.k_max <= 2)
        self.check_every_width(block, prior)

    @pytest.mark.parametrize("n, m, prior", LOCKSTEP_SHAPES + [(64, 30, Prior(0.5, 0.5, SECOND))])
    def test_k_sum_is_left_to_right(self, monkeypatch, n, m, prior):
        # weights of mixed signs and magnitudes, drawn until the k-sum of
        # w_k t_k rounds differently backwards: the kernel's sums are the
        # reference's 4 (w_1 t_1 + w_2 t_2 + ...), summed left to right
        rng = np.random.Generator(np.random.Philox(key=n * 100 + m))
        cfg = OptimizerConfig(runs=n, factors=m, prior=prior, restarts=3, seed=13)
        starts = np.stack(restart_starts(cfg))
        rows = np.broadcast_to(np.arange(n), (3, n))
        for _ in range(20):
            w = tuple(float(v) for v in rng.choice([-1, 1], 4) * 10.0 ** rng.uniform(-3, 16, 4))
            monkeypatch.setattr(optimizer, "qb_coefficients", lambda prior, m: w[: min(4, m)])
            block = optimizer._Block(starts.copy(), prior)
            s, t = block.row_deltas(rows)
            terms = [w[k] * t[k, ..., :-1] for k in range(block.k_max)]
            assert np.array_equal(s, 4.0 * functools.reduce(np.add, terms))
            backward = 4.0 * functools.reduce(np.add, terms[::-1])
            if block.k_max < 3 or not np.array_equal(s, backward):
                break
        else:
            pytest.fail("no weights told the summation orders apart")


class TestImproveThreshold:
    """The search takes a flip when its undivided row-delta sum s <= thr,
    exactly when its QB change s / N^2 < -IMPROVE_TOL."""

    def test_largest_sum_below_the_tolerance(self, monkeypatch):
        # thr is the largest float whose quotient passes the tolerance, and
        # the ulps about it decide in numpy as their quotients do
        for tol in (optimizer.IMPROVE_TOL, 0.3, 1e-300):
            monkeypatch.setattr(optimizer, "IMPROVE_TOL", tol)
            for n in list(range(2, 65)) + [97, 100, 1000, 1023, 1500, 4097]:
                nn = n * n
                thr = optimizer._Block(np.ones((1, n, 1), dtype=np.int64), Prior(0.5)).thr
                assert thr / nn < -tol <= math.nextafter(thr, math.inf) / nn
                ulps = [thr]
                for _ in range(4):
                    lo, hi = math.nextafter(ulps[0], -math.inf), math.nextafter(ulps[-1], math.inf)
                    ulps = [lo, *ulps, hi]
                s = np.array(ulps)
                assert np.array_equal(s <= thr, s / nn < -tol)
                assert (s <= thr).sum() == 5

    @pytest.mark.parametrize(
        "n, m, prior, tol_decides",
        [
            # N odd at pi1 = 1e-5: a flip that keeps b1 moves QB by a few
            # 1e-12, so IMPROVE_TOL rejects many improving lanes
            (11, 10, Prior(1e-5), True),
            (15, 7, Prior(1e-5, 1e-5, SECOND), True),
            (8, 5, Prior(0.3), False),
            # flips that leave QB where it is sum to a few -1e-18 here
            (12, 14, Prior(0.1), True),
            (16, 6, Prior(0.6, 0.4, SECOND), False),
            (24, 7, Prior(0.8, 0.5, SECOND), False),
        ],
    )
    def test_every_lane_decides_as_its_quotient(self, monkeypatch, n, m, prior, tol_decides):
        row_deltas = optimizer._Block.row_deltas
        # per call, the improving lanes the tolerance rejects
        within = []

        def scored(block, rows):
            s, t = row_deltas(block, rows)
            q = s / (block.n * block.n)
            assert np.array_equal(s <= block.thr, q < -optimizer.IMPROVE_TOL)
            within.append(((-optimizer.IMPROVE_TOL <= q) & (q < 0)).sum())
            return s, t

        monkeypatch.setattr(optimizer._Block, "row_deltas", scored)
        cfg = OptimizerConfig(runs=n, factors=m, prior=prior, restarts=9, seed=13)
        res = multi_restart(cfg)
        assert within and (sum(within) > 0) == tol_decides
        # the serial oracle decides on the quotients themselves
        assert_matches_oracle(res, cached_oracle(cfg))


class TestCarriedWordCounts:
    """multi_restart carries to its result the winner's word counts, as its
    block counted them once from the block's final designs."""

    @pytest.mark.parametrize("per_block", [1, 3, 64])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_equal_to_a_fresh_count(self, monkeypatch, per_block, threads):
        monkeypatch.setattr(optimizer, "RESTARTS_PER_BLOCK", per_block)
        for n, m, prior in LOCKSTEP_SHAPES:
            k_max = len(qb_coefficients(prior, m))
            cfg = OptimizerConfig(runs=n, factors=m, prior=prior, restarts=7, seed=m)
            res = multi_restart(cfg, threads=threads)
            assert res.word_counts == word_counts(res.best, k_max)
            assert res.qb == qb_from_word_counts(res.word_counts, prior, m)

    @pytest.mark.parametrize("per_block", [1, 3, 64])
    def test_counted_once_per_block(self, monkeypatch, per_block):
        # one krawtchouk_sums over each block's final designs, and none while
        # the search runs
        counted = []
        sums = wordcounts.krawtchouk_sums

        def counting(x, kraw):
            counted.append(x.copy())
            return sums(x, kraw)

        # the optimizer's own name and the one word_counts reaches
        monkeypatch.setattr(wordcounts, "krawtchouk_sums", counting)
        monkeypatch.setattr(optimizer, "krawtchouk_sums", counting)
        monkeypatch.setattr(optimizer, "RESTARTS_PER_BLOCK", per_block)
        blocks = []
        cfg = OptimizerConfig(runs=12, factors=14, prior=Prior(0.1), restarts=7, seed=2)
        res = multi_restart(cfg, threads=1, on_block=blocks.append)
        assert len(blocks) == -(-7 // per_block)
        assert [len(x) for x in counted] == [len(b) for b in blocks]
        # the designs counted are the finals, the winner among them
        assert any(np.array_equal(x, res.best.entries) for x in np.concatenate(counted))

    @pytest.mark.parametrize(
        "n, m, prior, restarts",
        [(12, 14, Prior(0.1), 10), (24, 7, Prior(0.8, 0.5, SECOND), 5)],
    )
    def test_one_krawtchouk_table_per_block(self, monkeypatch, n, m, prior, restarts):
        # the block's row-delta table and its final count share one build,
        # and nothing is kept between blocks: a second block builds its own
        built = []
        table = wordcounts.krawtchouk_table

        def counting(*args):
            built.append(args)
            return table(*args)

        monkeypatch.setattr(wordcounts, "krawtchouk_table", counting)
        monkeypatch.setattr(optimizer, "krawtchouk_table", counting)
        cfg = OptimizerConfig(runs=n, factors=m, prior=prior, restarts=restarts, seed=10)
        starts = optimizer._starts(cfg, 0, restarts)
        for calls in (1, 2):
            res = optimizer._exchange(starts.copy(), prior)
            assert len(built) == calls
        k_max = len(qb_coefficients(prior, m))
        assert built == [(m, k_max, n)] * 2
        for entries, qb, _, wc in res:
            assert wc == WordCounts(n, enumerated_word_counts(entries, k_max))
            assert qb == qb_from_word_counts(wc, prior, m)


class TestStarts:
    @pytest.mark.parametrize("seed", [0, 2**64 + 5, 2**128 - 1])
    def test_counter_seeded_start_is_the_jumped_stream(self, seed):
        restarts = [0, 1, 63, 64, 10**6, 2**64 + 3]
        # with N*m odd (3x1, 5x5 and 13x7) the last word's high half goes unused
        for n, m in ((2, 1), (12, 14), (64, 30), (3, 1), (5, 5), (13, 7)):
            cfg = OptimizerConfig(runs=n, factors=m, prior=Prior(0.1), restarts=1, seed=seed)
            for r, want in zip(restarts, restart_starts(cfg, restarts)):
                got = optimizer._starts(cfg, r, r + 1)[0]
                assert got.dtype == want.dtype and np.array_equal(got, want)
            # a run of restarts from one generator, each reset to its counter
            got = optimizer._starts(cfg, 62, 66)
            assert np.array_equal(got, np.stack(restart_starts(cfg, range(62, 66))))

    @pytest.mark.parametrize("n, m", [(1500, 3), (64, 30)])
    def test_words_stay_within_the_block_budget(self, n, m):
        # a block of 7 and of 64 restarts: the draw holds one buffer of words
        # beside the int64 starts, and frees it before the search begins
        cfg = OptimizerConfig(runs=n, factors=m, prior=Prior(0.1), restarts=64, seed=1)
        r = optimizer._block_size(cfg, 1)

        def traced_peak(call, *args):
            tracemalloc.start()
            try:
                out = call(*args)
                return out, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        optimizer._run_block(cfg, 0, 1)  # what the first draw and search import, untraced
        # the starts and one buffer of words at most: a second one would pass the slack
        x, peak = traced_peak(optimizer._starts, cfg, 0, r)
        assert peak <= 8 * r * n * m + 8 * r * -(-n * m // 2) + 2**16
        assert np.array_equal(x[[0, -1]], np.stack(restart_starts(cfg, [0, r - 1])))
        # a block's peak is its starts beside the search: nothing else of the draw is left
        _, search = traced_peak(optimizer._exchange, x, cfg.prior)
        _, block = traced_peak(optimizer._run_block, cfg, 0, r)
        assert abs(block - (x.nbytes + search)) <= 2**12

    @pytest.mark.parametrize("r", [0, 1, 5, 2**64 + 3])
    def test_reused_generator_draws_as_a_new_one(self, r):
        # the construction of one Generator per restart, as it stood before
        # one Philox was reused: equal draws, including past a 64-bit counter word
        cfg = OptimizerConfig(runs=24, factors=7, prior=Prior(0.1), restarts=1, seed=3)
        rng = np.random.Generator(np.random.Philox(key=cfg.seed, counter=r << 128))
        want = rng.integers(0, 2, size=(cfg.runs, cfg.factors)) * 2 - 1
        assert np.array_equal(optimizer._starts(cfg, r, r + 1)[0], want)
        assert np.array_equal(optimizer._starts(cfg, max(r - 1, 0), r + 2)[-2], want)

