import io
import itertools
import math
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest

from qbdesign import projection
from qbdesign.cli import main
from qbdesign.design import random_design
from qbdesign.errors import TooLargeError
from qbdesign.projection import ProjectionCounts, _score_subsets, projection_report

from conftest import (
    enumerated_projection_models,
    enumerated_projection_values,
    full_factorial,
    singular_eigenvalues,
)


class TestProjectionReport:
    def test_replicated_factorial_projections_perfect(self, fx):
        # every 3-factor projection of the first class is a replicated 2^3
        rep = projection_report(fx("case4.d1").design, [3])
        for t in (1, 2, 3):
            cell = rep.cell(3, t)
            assert cell.no_est == 0
            assert cell.mean_as == pytest.approx(1.0, abs=1e-12)

    def test_all_non_estimable_cell(self, fx):
        rep = projection_report(fx("case4.d1").design, [5], {5: [8]})
        cell = rep.cell(5, 8)
        assert cell.n_models == math.comb(6, 5) * math.comb(10, 8) == 270
        assert cell.no_est == 270
        assert cell.mean_as == 0.0

    def test_huge_t_range_is_never_iterated(self, fx):
        d = fx("had16").design
        want = projection_report(d, [3], {3: range(1, 4)})
        assert projection_report(d, [3], {3: range(1, 10**20)}) == want
        # rows come out in increasing t, each t once
        rep = projection_report(d, [3], {3: [3, 1, 3, 7]})
        assert [row.t for row in rep.rows] == [1, 3]

    def test_algorithm_design_cell(self, fx):
        rep = projection_report(fx("case4.d6").design, [4], {4: [6]})
        cell = rep.cell(4, 6)
        assert cell.no_est == 0
        assert round(cell.mean_as, 3) == pytest.approx(0.800, abs=1e-9)

    def test_n_models_closed_form(self, fx):
        rep = projection_report(fx("case4.d3").design, [3, 4])
        for cell in rep.rows:
            expected = math.comb(6, cell.f) * math.comb(
                cell.f * (cell.f - 1) // 2, cell.t
            )
            assert cell.n_models == expected
            assert 0 <= cell.no_est <= cell.n_models
            assert 0.0 <= cell.mean_as <= 1.0 + 1e-12

    def test_mains_only_orthogonal(self):
        rep = projection_report(full_factorial(4), [2, 3], {2: [0], 3: [0]})
        for cell in rep.rows:
            assert cell.t == 0
            assert cell.mean_as == pytest.approx(1.0, abs=1e-12)
            assert cell.no_est == 0

    def test_full_second_order_no_better_than_single(self, fx):
        for fid in ("case4.d1", "case4.d3", "case4.d6"):
            rep = projection_report(fx(fid).design, [4])
            assert rep.cell(4, 6).mean_as <= rep.cell(4, 1).mean_as + 1e-12

    def test_oversized_projection_rejected(self, fx):
        with pytest.raises(ValueError):
            projection_report(fx("case4.d1").design, [7])

    def test_too_many_models_rejected_before_scoring(self, monkeypatch):
        # C(78, 40) > 2**62 choices of pairs per 13-factor subset
        d = random_design(16, 13, 1)
        rep = projection_report(d, [13], {13: [0, 1, 77, 78]})
        assert [r.n_models for r in rep.rows] == [1, 78, 78, 1]
        monkeypatch.setattr(projection, "_score_subsets", None)
        with pytest.raises(TooLargeError, match="t = 40"):
            projection_report(d, [13], {13: [1, 40]})

    def test_csv_shape(self, fx):
        rep = projection_report(fx("case4.d1").design, [3])
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "f,t,n_models,no_est,mean_as"
        assert lines[1] == "3,1,60,0,1.000"


def assert_matches_enumeration(x, f, t_values=None):
    """The batched scorer's per-model values are == the one-model-at-a-time loop's."""
    wanted = tuple(range(f * (f - 1) // 2 + 1)) if t_values is None else tuple(t_values)
    scores = _score_subsets(np.asarray(x), f, wanted)
    no_est = 0
    for t in wanted:
        vals, counts = scores[t]
        n_bad = counts.no_est
        want_vals, want_bad = enumerated_projection_values(x, f, t)
        assert vals.tolist() == want_vals, (f, t)
        assert n_bad == want_bad, (f, t)
        no_est += n_bad
    return no_est


class TestBatchedScoring:
    """Every (f, t) cell from t = 0 up, against the enumeration oracle."""

    @pytest.mark.parametrize("fid", ["case4.d1", "case4.d3", "case4.d6"])
    def test_case4(self, fx, fid):
        # f = 6 = m; t = 5..10 give 3003..6435 models, past one chunk
        for f in (3, 4, 5, 6):
            assert_matches_enumeration(fx(fid).design.entries, f)

    def test_had16(self, fx):
        assert_matches_enumeration(fx("had16").design.entries, 3)

    @pytest.mark.parametrize("runs,factors,seed", [(12, 8, 1), (20, 10, 2)])
    def test_random_designs_with_non_estimable_models(self, runs, factors, seed):
        x = random_design(runs, factors, seed).entries
        assert sum(assert_matches_enumeration(x, f) for f in (3, 4)) > 0

    def test_single_factor(self, fx):
        assert_matches_enumeration(fx("had16").design.entries, 1)

    def test_chunk_and_stack_boundaries(self, fx, monkeypatch):
        # chunks that split the choices of one subset, and stacks of 11, 7
        # and 9 subsets, at sizes that divide nothing evenly
        monkeypatch.setattr(projection, "FLAG_BYTES", 10_000)
        assert_matches_enumeration(fx("had16").design.entries, 3)
        assert_matches_enumeration(fx("case4.d6").design.entries, 4)
        assert_matches_enumeration(random_design(12, 8, 3).entries, 4, (0, 2, 5, 6))

    @pytest.mark.parametrize("window_bytes", [1, 7 * 8 * 5 * 5])
    def test_window_boundaries(self, fx, monkeypatch, window_bytes):
        # windows of one model and one choice, and windows of 7 models of
        # 5 x 5 (other sizes for other p), with stacks of a few subsets
        argv = ["project", "fixture:case4.d6", "--f", "3", "4", "5"]
        want = cli_stdout(argv)
        monkeypatch.setattr(projection, "WINDOW_BYTES", window_bytes)
        monkeypatch.setattr(projection, "FLAG_BYTES", 10_000)
        assert cli_stdout(argv) == want
        assert_matches_enumeration(fx("had16").design.entries, 3)
        assert_matches_enumeration(fx("case4.d6").design.entries, 4)
        assert_matches_enumeration(random_design(12, 8, 3).entries, 4, (0, 2, 5, 6))

    @pytest.mark.parametrize(
        "budget,value",
        [("FLAG_BYTES", 1), ("FLAG_BYTES", 997), ("FLAG_BYTES", 12345),
         ("WINDOW_BYTES", 1), ("WINDOW_BYTES", 1237)],
    )
    def test_budget_boundaries(self, fx, monkeypatch, budget, value):
        # slices of one candidate and stacks of one subset, join slices cut
        # inside a run of one prefix, stacks of a few subsets, and key steps
        # and eigvalsh calls of one model or of a few, at sizes that divide
        # nothing evenly
        argv = ["project", "fixture:had16", "--f", "3", "4", "--t-max", "10"]
        want = cli_stdout(argv)
        monkeypatch.setattr(projection, budget, value)
        assert cli_stdout(argv) == want
        assert_matches_enumeration(fx("had16").design.entries, 3)
        assert_matches_enumeration(fx("case4.d6").design.entries, 5)
        assert_matches_enumeration(random_design(12, 8, 3).entries, 4, (0, 2, 5, 6))

    def test_one_subset_per_stack(self, monkeypatch):
        # flags of a wide level cut a stack down to one subset
        monkeypatch.setattr(projection, "FLAG_BYTES", 1)
        assert_matches_enumeration(random_design(12, 8, 3).entries, 4)


def cli_stdout(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def screened_by_oracle(x, f):
    """Models of size f with a non-estimable one-pair-less submodel, under the oracle.

    Asserts that each of them is non-estimable itself, as interlacing says
    it is in exact arithmetic; returns their number per t.
    """
    singular = {}
    screened = {}
    for t in range(f * (f - 1) // 2 + 1):
        screened[t] = 0
        for fs, choice, eig in enumerated_projection_models(x, f, t):
            bad = singular_eigenvalues(eig)
            if any(singular[fs, choice[:j] + choice[j + 1 :]] for j in range(t)):
                assert bad, (fs, choice)
                screened[t] += 1
            singular[fs, choice] = bad
    return screened


class TestSupersetScreen:
    """The screen skips only models the one-eigvalsh-per-model oracle calls non-estimable."""

    CORPUS = [("case4.d1", f) for f in (3, 4, 5, 6)] + [
        ("case4.d3", f) for f in (3, 4, 5, 6)
    ] + [("case4.d6", f) for f in (3, 4, 5, 6)] + [("had16", 3)]

    @pytest.mark.parametrize("fid,f", CORPUS)
    def test_paper_designs(self, fx, fid, f):
        self.check(fx(fid).design.entries, f)

    @pytest.mark.parametrize("runs,factors,seed", [(12, 8, 1), (20, 10, 2)])
    @pytest.mark.parametrize("f", [3, 4])
    def test_random_designs(self, runs, factors, seed, f):
        self.check(random_design(runs, factors, seed).entries, f)

    @staticmethod
    def check(x, f):
        want = screened_by_oracle(x, f)
        scores = _score_subsets(x, f, tuple(want))
        assert {t: counts.screened for t, (_, counts) in scores.items()} == want

    def test_off_without_the_level_below(self, fx):
        scores = _score_subsets(random_design(12, 8, 3).entries, 4, (0, 2, 5, 6))
        assert [scores[t][1].screened for t in (0, 2, 5)] == [0, 0, 0]
        assert scores[6][1].screened > 0
        rep = projection_report(fx("case4.d1").design, [5], {5: [8]})
        assert rep.counts[0].screened == 0 and rep.counts[0].no_est == 270


class TestCounts:
    def test_every_model_screened_or_scored(self, fx):
        for fid, f in TestSupersetScreen.CORPUS:
            rep = projection_report(fx(fid).design, [f])
            assert len(rep.counts) == len(rep.rows)
            for row, c in zip(rep.rows, rep.counts):
                assert c.models == row.n_models == c.screened + c.scored
                assert c.no_est == row.no_est >= c.screened
                assert c.distinct <= c.scored
                assert (c.distinct > 0) <= c.eigvalsh_calls <= c.distinct

    # per t = 1..10: (t, models, screened, scored, distinct, no_est, eigvalsh_calls, subsets)
    PINNED = {
        "case4.d1": [
            (1, 15, 0, 15, 1, 0, 1, 1),
            (2, 105, 0, 105, 2, 9, 1, 1),
            (3, 455, 115, 340, 1, 115, 1, 1),
            (4, 1365, 645, 720, 1, 645, 1, 1),
            (5, 3003, 2091, 912, 1, 2091, 1, 1),
            (6, 5005, 4365, 640, 1, 4365, 1, 1),
            (7, 6435, 6243, 192, 1, 6243, 1, 1),
            (8, 6435, 6435, 0, 0, 6435, 0, 1),
            (9, 5005, 5005, 0, 0, 5005, 0, 1),
            (10, 3003, 3003, 0, 0, 3003, 0, 1),
        ],
        "case4.d6": [
            (1, 15, 0, 15, 7, 0, 1, 1),
            (2, 105, 0, 105, 41, 0, 1, 1),
            (3, 455, 0, 455, 192, 10, 1, 1),
            (4, 1365, 114, 1251, 592, 115, 4, 1),
            (5, 3003, 603, 2400, 1340, 603, 10, 1),
            (6, 5005, 1873, 3132, 2035, 1873, 19, 1),
            (7, 6435, 3775, 2660, 1954, 3775, 21, 1),
            (8, 6435, 5115, 1320, 1067, 5115, 13, 1),
            (9, 5005, 4717, 288, 252, 4717, 4, 1),
            (10, 3003, 3003, 0, 0, 3003, 0, 1),
        ],
    }

    @pytest.mark.parametrize("fid", sorted(PINNED))
    def test_pinned_counts(self, fx, fid):
        rep = projection_report(fx(fid).design, [6], {6: range(1, 11)})
        got = [(row.t, *(getattr(c, k) for k in ProjectionCounts.__dataclass_fields__))
               for row, c in zip(rep.rows, rep.counts)]
        assert got == self.PINNED[fid]

    def test_counts_not_in_csv(self, fx):
        rep = projection_report(fx("case4.d1").design, [3])
        assert rep.to_csv().splitlines()[0] == "f,t,n_models,no_est,mean_as"


def subset_gram_bytes(x, f):
    """The bytes of each f-subset's centered Gram, built as the oracle builds it."""
    x = np.asarray(x)
    out = []
    for fs in itertools.combinations(range(x.shape[1]), f):
        cols = [x[:, j] for j in fs] + [x[:, a] * x[:, b] for a, b in itertools.combinations(fs, 2)]
        dm = np.column_stack(cols).astype(float)
        csum = dm.sum(axis=0)
        out.append((dm.T @ dm - np.outer(csum, csum) / x.shape[0]).tobytes())
    return out


class TestSubsetGroups:
    """One representative per distinct subset Gram; members take its values."""

    @pytest.mark.parametrize(
        "fid,f", [("had16", 3)] + [(f"case4.d{x}", f) for x in (1, 3, 6) for f in (3, 4, 5)]
    )
    def test_distinct_subsets(self, fx, fid, f):
        want = len(np.unique(np.array(subset_gram_bytes(fx(fid).design.entries, f), dtype=object)))
        rep = projection_report(fx(fid).design, [f], {f: [1, 2]})
        assert [c.subsets for c in rep.counts] == [want, want]

    def test_had16_grams(self, fx):
        # 455 subsets in 4 groups at f = 3, 1,365 in 33 at f = 4 and 3,003 in
        # 228 at f = 5; each call is one stack, so each Gram is scored once
        x = fx("had16").design.entries
        assert len(set(subset_gram_bytes(x, 3))) == 4
        for f, want in ((4, 33), (5, 228)):
            assert len(set(subset_gram_bytes(x, f))) == want
            rep = projection_report(fx("had16").design, [f], {f: range(1, 11)})
            assert {c.subsets for c in rep.counts} == {want}

    def test_groups_across_stack_boundaries(self, fx, monkeypatch):
        # stacks of 7 subsets at f = 3
        monkeypatch.setattr(projection, "FLAG_BYTES", 6_500)
        assert_matches_enumeration(fx("had16").design.entries, 3)


class TestWork:
    def test_few_matrices_reach_eigvalsh(self, fx, monkeypatch):
        real = np.linalg.eigvalsh
        matrices = []

        def counting(a):
            matrices.append(len(a) if a.ndim == 3 else 1)
            return real(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        rep = projection_report(fx("case4.d1").design, [6])
        assert sum(r.n_models for r in rep.rows) == 32767
        assert sum(matrices) < 1000
        assert sum(matrices) == sum(c.distinct for c in rep.counts)
        assert len(matrices) == sum(c.eigvalsh_calls for c in rep.counts)

    def test_memory_bounded(self, fx):
        d = fx("case4.d6").design
        projection_report(d, [6])
        tracemalloc.start()
        try:
            projection_report(d, [6])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    def test_stack_memory_does_not_grow_with_runs(self):
        # the float columns of all 210 subsets would take 37 MiB, so the
        # budget cuts the stack; the peak is about 2x the budget at N = 256
        # and at N = 1024
        d = random_design(1024, 10, 1)
        projection_report(d, [6], {6: [1]})
        tracemalloc.start()
        try:
            projection_report(d, [6], {6: [1]})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * projection.FLAG_BYTES
