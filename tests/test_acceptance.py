"""Acceptance gate: every stated criterion at its stated tolerance.

Each test prints one pass/fail line (visible with pytest -s or -v plus -rA).
Budgets and seeds are pinned; the whole module completes in a few minutes.
"""

from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from qbdesign.criteria import (
    Prior,
    prior_sums,
    qb_coefficients,
    qb_from_word_counts,
    qb_general,
)
from qbdesign.design import (
    Design,
    ModelOrder,
    information_matrix,
    random_design,
)
from qbdesign.fixtures import check_fixtures, list_fixtures
from qbdesign.optimizer import IMPROVE_TOL, OptimizerConfig, multi_restart, qb_delta
from qbdesign.projection import projection_report
from qbdesign.theory import balance_intervals, qb_block_value, verify_block_pattern
from qbdesign.wordcounts import word_counts, word_counts_from_xtx

from conftest import prior_sums_oracle


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num:>2} ({label}): FAIL")
        raise
    print(f"criterion {num:>2} ({label}): PASS")


def b_pair(design, k1, k2):
    w = word_counts(design, max(k1, k2))
    return (w.b(k1), w.b(k2))


def test_criterion_1_word_count_fixtures(fx):
    with criterion(1, "exact word counts"):
        assert b_pair(fx("supp1.d1").design, 1, 2) == (Fraction(0), Fraction(8, 3))
        assert b_pair(fx("supp1.d2").design, 1, 2) == (Fraction(2, 9), Fraction(19, 9))
        assert b_pair(fx("supp1.d3").design, 1, 2) == (Fraction(1, 3), Fraction(2))

        w = word_counts(fx("table3.first").design, 4)
        assert w.b_all() == (Fraction(0), Fraction(0), Fraction(4, 9), Fraction(1, 9))
        w = word_counts(fx("table3.second").design, 4)
        assert w.b_all() == (
            Fraction(1, 9),
            Fraction(0),
            Fraction(1, 9),
            Fraction(1, 9),
        )

        claimed = {
            (Fraction(0), Fraction(3)),
            (Fraction(1, 2), Fraction(2)),
            (Fraction(1), Fraction(1)),
            (Fraction(5, 4), Fraction(3, 4)),
            (Fraction(2), Fraction(1)),
        }
        got = {b_pair(fx(f"had16.proj{k}").design, 3, 4) for k in range(1, 6)}
        assert got == claimed

        # the source listing prints (1 2 3 4 8 12) for the fifth class, which
        # on the same matrix yields (2, 0), not the claimed (2, 1); the stored
        # fixture uses the single-digit emendation (1 2 3 4 8 11).  Ledgered.
        printed_set = Design(fx("had16").design.entries[:, [0, 1, 2, 3, 7, 11]])
        assert b_pair(printed_set, 3, 4) == (Fraction(2), Fraction(0))


def test_criterion_2_xtx_reproduction(fx):
    with criterion(2, "bit-for-bit X'X reproduction"):
        reproduced = 0
        for fid in list_fixtures():
            f = fx(fid)
            if f.expected_xtx is None:
                continue
            if f.design is not None:
                got = information_matrix(f.design, f.order).a
                assert np.array_equal(got, f.expected_xtx), fid
                reproduced += 1
            else:
                # matrix-only listings (29x29 second-order, 16x16 first-order):
                # structural checks plus exact word counts recovered from the
                # printed entries
                results = dict()
                for name, ok, detail in check_fixtures([f])[0]:
                    results[name] = ok
                    assert ok, (fid, name, detail)
                assert results.get("xtx-consistency"), fid
        assert reproduced == 26
        wa = word_counts_from_xtx(fx("case5.a").expected_xtx, 24, 7)
        assert (wa.b(3), wa.b(4)) == (Fraction(0), Fraction(35, 9))
        wb = word_counts_from_xtx(fx("case5.b").expected_xtx, 24, 7)
        assert (wb.b(3), wb.b(4)) == (Fraction(2, 3), Fraction(5, 3))


def test_criterion_3_sweep_crossovers(fx):
    with criterion(3, "relative-efficiency crossovers"):
        counts = [word_counts(fx(f"supp1.d{k}").design, 2) for k in (1, 2, 3)]
        changes = []
        prev = None
        for i in range(701):
            pi1 = 0.1 + i * 0.001
            qs = [qb_from_word_counts(w, Prior(pi1), 14) for w in counts]
            arg = qs.index(min(qs))
            if prev is not None and arg != prev:
                changes.append((pi1, prev, arg))
            prev = arg
        assert len(changes) == 2
        assert abs(changes[0][0] - 0.2) <= 0.001 + 1e-12
        assert (changes[0][1], changes[0][2]) == (0, 1)
        assert abs(changes[1][0] - 0.5) <= 0.001 + 1e-12
        assert (changes[1][1], changes[1][2]) == (1, 2)

        # exact rational tie: 10 pi^2 = 2 pi at pi = 1/5
        pi = Fraction(1, 5)
        q = [pi * w.b(1) + 2 * pi * pi * w.b(2) for w in counts]
        assert q[0] == q[1]
        assert 10 * pi * pi == 2 * pi
        pi = Fraction(1, 2)
        q = [pi * w.b(1) + 2 * pi * pi * w.b(2) for w in counts]
        assert q[1] == q[2]


def test_criterion_4_xi_weight_oracle():
    with criterion(4, "xi weights vs enumeration oracle"):
        grid = [k / 10 for k in range(11)]
        for m in (3, 4, 5):
            for pi1 in grid:
                for pi2 in grid:
                    prior = Prior(pi1, pi2, ModelOrder.SECOND_ORDER)
                    oracle, total = prior_sums_oracle(m, prior)
                    assert abs(total - 1.0) <= 1e-12
                    ps = prior_sums(prior, m)
                    assert ps.terms == oracle.terms
                    assert np.abs(ps.p0 - oracle.p0).max() <= 1e-12
                    assert np.abs(ps.pij - oracle.pij).max() <= 1e-12


def test_criterion_5_general_equals_closed_forms():
    with criterion(5, "general QB equals closed forms"):
        rng = np.random.Generator(np.random.Philox(key=505))
        for order in ModelOrder:
            for _ in range(20):
                n = int(rng.integers(4, 13))
                m = int(rng.integers(2, 6))
                d = random_design(n, m, seed=int(rng.integers(2**63)))
                prior = Prior(
                    float(rng.uniform(0, 1)), float(rng.uniform(0, 1)), order
                )
                im = information_matrix(d, order)
                oracle, _ = prior_sums_oracle(m, prior)
                closed = qb_from_word_counts(
                    word_counts(d, min(2 if order is ModelOrder.FIRST_ORDER else 4, m)),
                    prior,
                    m,
                )
                assert qb_general(im, oracle) == pytest.approx(closed, abs=1e-12)
                assert qb_general(im, prior_sums(prior, m)) == pytest.approx(closed, abs=1e-12)


def test_criterion_6_interval_table():
    with criterion(6, "balance interval table"):
        bi = balance_intervals(14, 12)
        assert bi.endpoints[1:-1] == (
            Fraction(1, 22),
            Fraction(1, 18),
            Fraction(1, 14),
            Fraction(1, 10),
            Fraction(1, 6),
            Fraction(1, 2),
        )
        for n_runs in (6, 10, 14, 18, 22, 26, 30):
            for m in range(1, n_runs):
                table = balance_intervals(n_runs, m)
                for lo, hi, nlb, lb in table.intervals():
                    for i in range(1, 6):
                        pi1 = lo + Fraction(i, 6) * (hi - lo)
                        vals = [
                            qb_block_value(n_runs, m, n1, pi1) for n1 in range(m + 1)
                        ]
                        best = min(vals)
                        argmins = [n1 for n1, v in enumerate(vals) if v == best]
                        assert argmins == [lb], (n_runs, m, float(pi1))
                # exact two-way ties at interior endpoints
                for k in range(1, table.k):
                    alpha = table.endpoints[k]
                    assert qb_block_value(n_runs, m, m - k + 1, alpha) == qb_block_value(
                        n_runs, m, m - k, alpha
                    )


def test_criterion_7a_supersaturated_low_prior(fx):
    with criterion(7, "optimizer attainment (a) N=12 m=14 pi1=0.1"):
        target = qb_from_word_counts(word_counts(fx("supp1.d1").design, 2), Prior(0.1), 14)
        cfg = OptimizerConfig(
            runs=12, factors=14, prior=Prior(0.1), restarts=200, seed=1
        )
        res = multi_restart(cfg)
        assert res.qb <= target + 1e-12


def test_criterion_7b_supersaturated_high_prior(fx):
    with criterion(7, "optimizer attainment (b) N=12 m=14 pi1=0.6"):
        target = qb_from_word_counts(word_counts(fx("supp1.d3").design, 2), Prior(0.6), 14)
        cfg = OptimizerConfig(
            runs=12, factors=14, prior=Prior(0.6), restarts=200, seed=1
        )
        res = multi_restart(cfg)
        assert res.qb <= target + 1e-12
        assert res.word_counts.b(1) + res.word_counts.b(2) == Fraction(7, 3)


def test_criterion_7c_saturated():
    with criterion(7, "optimizer attainment (c) N=10 m=9 pi1=0.3"):
        cfg = OptimizerConfig(
            runs=10, factors=9, prior=Prior(0.3), restarts=500, seed=1
        )
        res = multi_restart(cfg)
        assert res.n_level_balanced == 5
        assert res.as_main is not None
        assert res.as_main >= 0.8 - 1e-9


def test_criterion_7d_unsaturated_pattern():
    with criterion(7, "optimizer attainment (d) N=14 m=12 pi1=0.3"):
        cfg = OptimizerConfig(
            runs=14, factors=12, prior=Prior(0.3), restarts=500, seed=1
        )
        res = multi_restart(cfg)
        rep = verify_block_pattern(res.best)
        assert rep.matches
        assert rep.n_non_level_balanced == 5


# printed projection table for the three second-order benchmarks:
# (f, t) -> (mean As to 3 decimals, non-estimable count)
TABLE4 = {
    "case4.d1": {
        (3, 1): (1.000, 0), (3, 2): (1.000, 0), (3, 3): (1.000, 0),
        (4, 1): (1.000, 0), (4, 2): (0.960, 9), (4, 3): (0.880, 36),
        (4, 4): (0.800, 45), (4, 5): (0.800, 18), (4, 6): (0.800, 3),
        (5, 1): (1.000, 0), (5, 2): (0.933, 18), (5, 3): (0.800, 144),
        (5, 4): (0.614, 486), (5, 5): (0.405, 900), (5, 6): (0.210, 996),
        (5, 7): (0.067, 672), (5, 8): (0.000, 270), (5, 9): (0.000, 60),
        (5, 10): (0.000, 6),
        (6, 1): (1.000, 0), (6, 2): (0.914, 9), (6, 3): (0.747, 115),
        (6, 4): (0.527, 645), (6, 5): (0.304, 2091), (6, 6): (0.128, 4365),
        (6, 7): (0.030, 6243), (6, 8): (0.000, 6435), (6, 9): (0.000, 5005),
    },
    "case4.d3": {
        (3, 1): (0.950, 3), (3, 2): (0.950, 3), (3, 3): (0.950, 1),
        (4, 1): (0.900, 9), (4, 2): (0.827, 39), (4, 3): (0.770, 69),
        (4, 4): (0.733, 60), (4, 5): (0.733, 24), (4, 6): (0.733, 4),
        (5, 1): (0.850, 9), (5, 2): (0.711, 78), (5, 3): (0.579, 303),
        (5, 4): (0.455, 687), (5, 5): (0.343, 993), (5, 6): (0.253, 941),
        (5, 7): (0.193, 581), (5, 8): (0.167, 225), (5, 9): (0.167, 50),
        (5, 10): (0.167, 5),
        (6, 1): (0.800, 3), (6, 2): (0.600, 42), (6, 3): (0.418, 265),
        (6, 4): (0.266, 1002), (6, 5): (0.152, 2547), (6, 6): (0.075, 4628),
        (6, 7): (0.031, 6237), (6, 8): (0.009, 6375), (6, 9): (0.002, 4997),
    },
    "case4.d6": {
        (3, 1): (0.971, 0), (3, 2): (0.958, 0), (3, 3): (0.950, 0),
        (4, 1): (0.951, 0), (4, 2): (0.911, 0), (4, 3): (0.877, 0),
        (4, 4): (0.847, 0), (4, 5): (0.821, 0), (4, 6): (0.800, 0),
        (5, 1): (0.933, 0), (5, 2): (0.872, 0), (5, 3): (0.811, 4),
        (5, 4): (0.750, 29), (5, 5): (0.684, 90), (5, 6): (0.611, 155),
        (5, 7): (0.527, 160), (5, 8): (0.428, 99), (5, 9): (0.309, 34),
        (5, 10): (0.167, 5),
        (6, 1): (0.918, 0), (6, 2): (0.835, 0), (6, 3): (0.745, 10),
        (6, 4): (0.641, 115), (6, 5): (0.517, 603), (6, 6): (0.378, 1873),
        (6, 7): (0.235, 3775), (6, 8): (0.111, 5115), (6, 9): (0.030, 4717),
    },
}


def test_criterion_8_projection_table(fx):
    with criterion(8, "projection table reproduction"):
        t_ranges = {3: range(1, 4), 4: range(1, 7), 5: range(1, 11), 6: range(1, 10)}
        for fid, cells in TABLE4.items():
            rep = projection_report(fx(fid).design, [3, 4, 5, 6], t_ranges)
            for (f, t), (mean_expected, noest_expected) in cells.items():
                cell = rep.cell(f, t)
                assert cell.no_est == noest_expected, (fid, f, t)
                assert round(cell.mean_as, 3) == pytest.approx(
                    mean_expected, abs=1e-9
                ), (fid, f, t)


def test_criterion_9_local_optimality_and_deltas():
    with criterion(9, "local optimality and incremental deltas"):
        rng = np.random.Generator(np.random.Philox(key=909))
        for run in range(50):
            n = int(rng.integers(6, 11))
            m = int(rng.integers(3, 7))
            order = ModelOrder.FIRST_ORDER if run % 2 else ModelOrder.SECOND_ORDER
            prior = Prior(
                float(rng.uniform(0.05, 0.95)), float(rng.uniform(0, 1)), order
            )
            cfg = OptimizerConfig(
                runs=n,
                factors=m,
                prior=prior,
                restarts=2,
                seed=int(rng.integers(2**32)),
            )
            res = multi_restart(cfg)
            for i in range(n):
                for j in range(m):
                    assert qb_delta(res.best, i, j, prior) >= -IMPROVE_TOL

        checked = 0
        while checked < 10_000:
            n = int(rng.integers(4, 11))
            m = int(rng.integers(2, 6))
            d = random_design(n, m, seed=int(rng.integers(2**63)))
            order = ModelOrder.SECOND_ORDER if checked % 2 else ModelOrder.FIRST_ORDER
            prior = Prior(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)), order)
            k_max = len(qb_coefficients(prior, m))
            base = qb_from_word_counts(word_counts(d, k_max), prior, m)
            for _ in range(20):
                i = int(rng.integers(n))
                j = int(rng.integers(m))
                flipped = d.entries.copy()
                flipped[i, j] = -flipped[i, j]
                full = (
                    qb_from_word_counts(
                        word_counts(Design(flipped), k_max), prior, m
                    )
                    - base
                )
                assert qb_delta(d, i, j, prior) == pytest.approx(full, abs=1e-10)
                checked += 1


def test_criterion_10_invariances():
    with criterion(10, "word-count invariances"):
        rng = np.random.Generator(np.random.Philox(key=1010))
        for _ in range(100):
            n = int(rng.integers(4, 13))
            m = int(rng.integers(2, 8))
            d = random_design(n, m, seed=int(rng.integers(2**63)))
            k_max = min(4, m)
            base = word_counts(d, k_max).s_k

            rp = rng.permutation(n)
            assert word_counts(Design(d.entries[rp]), k_max).s_k == base
            cp = rng.permutation(m)
            assert word_counts(Design(d.entries[:, cp]), k_max).s_k == base
            col = int(rng.integers(m))
            flipped = d.entries.copy()
            flipped[:, col] *= -1
            assert word_counts(Design(flipped), k_max).s_k == base
