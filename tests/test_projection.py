import math

import numpy as np
import pytest

from qbdesign import projection
from qbdesign.design import random_design
from qbdesign.projection import _score_subsets, projection_report

from conftest import enumerated_projection_values, full_factorial


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
        vals, n_bad = scores[t]
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
        # chunks that split the choices of one subset, and stacks that split
        # the subsets, at sizes that divide nothing evenly
        monkeypatch.setattr(projection, "BLOCKS_PER_CALL", 7)
        monkeypatch.setattr(projection, "SUBSETS_PER_STACK", 11)
        assert_matches_enumeration(fx("had16").design.entries, 3)
        assert_matches_enumeration(fx("case4.d6").design.entries, 4)
        assert_matches_enumeration(random_design(12, 8, 3).entries, 4, (0, 2, 5, 6))
