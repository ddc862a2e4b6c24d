from pathlib import Path

from qbdesign.cli import main
from qbdesign.design import load_design

DATA = Path(__file__).resolve().parents[1] / "src" / "qbdesign" / "fixtures" / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEvaluate:
    def test_supp1_d2_report(self, capsys):
        code, out, _ = run(
            capsys, "evaluate", str(DATA / "supp1_d2.txt"), "--pi1", "0.3"
        )
        assert code == 0
        assert "N=12, m=14" in out
        assert "b1 = 2/9" in out
        assert "b2 = 19/9" in out
        expected = 0.3 * 2 / 9 + 2 * 0.09 * 19 / 9
        assert f"{expected:.6g}" in out
        assert "not estimable" in out

    def test_second_order_table3(self, capsys):
        code, out, _ = run(
            capsys,
            "evaluate",
            str(DATA / "table3_first.txt"),
            "--order",
            "2",
            "--pi1",
            "0.8",
            "--pi2",
            "0.5",
        )
        assert code == 0
        for frag in ("b1 = 0", "b2 = 0", "b3 = 4/9", "b4 = 1/9"):
            assert frag in out

    def test_empty_file(self, capsys, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        code, _, err = run(capsys, "evaluate", str(p), "--pi1", "0.3")
        assert code == 1
        assert "error" in err


class TestOptimize:
    def test_small_deterministic(self, capsys, tmp_path):
        out_path = tmp_path / "best.txt"
        args = (
            "optimize",
            "--runs", "8", "--factors", "4", "--pi1", "0.3",
            "--restarts", "5", "--seed", "11", "--output", str(out_path),
        )
        code, out1, _ = run(capsys, *args)
        assert code == 0
        text1 = out_path.read_text()
        code, out2, _ = run(capsys, *args)
        assert out1 == out2
        assert out_path.read_text() == text1
        d = load_design(out_path)
        assert (d.runs, d.factors) == (8, 4)
        assert "best QB = 0" in out1

    def test_progress_log(self, capsys):
        code, _, err = run(
            capsys,
            "optimize",
            "--runs", "6", "--factors", "3", "--pi1", "0.2",
            "--restarts", "3", "--seed", "5", "--progress",
        )
        assert code == 0
        lines = [ln for ln in err.splitlines() if ln.startswith("restart=")]
        assert len(lines) == 3
        assert "qb=" in lines[0] and "sweeps=" in lines[0]


class TestSweep:
    def test_crossovers(self, capsys):
        code, out, err = run(
            capsys,
            "sweep",
            str(DATA / "supp1_d1.txt"),
            str(DATA / "supp1_d2.txt"),
            str(DATA / "supp1_d3.txt"),
            "--lo", "0.1", "--hi", "0.8", "--step", "0.001",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("pi1,qb:supp1_d1,qb:supp1_d2,qb:supp1_d3,releff:")
        assert len(lines) == 702
        changes = [ln for ln in err.splitlines() if "argmin change" in ln]
        assert len(changes) == 2
        assert "0.201" in changes[0] and "supp1_d1 -> supp1_d2" in changes[0]
        assert "0.501" in changes[1] and "supp1_d2 -> supp1_d3" in changes[1]

    def test_single_design_releff_one(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "sweep",
            str(DATA / "supp1_d1.txt"),
            str(DATA / "supp1_d1.txt"),
            "--lo", "0.1", "--hi", "0.2", "--step", "0.05",
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            rel = line.split(",")[3:]
            assert all(float(v) == 1.0 for v in rel)

    def test_bad_grid(self, capsys):
        code, _, err = run(
            capsys, "sweep", str(DATA / "supp1_d1.txt"), "--lo", "0.5", "--hi", "0.2"
        )
        assert code == 1 and "error" in err

    def test_grid_never_passes_hi(self, capsys):
        # rounding (hi - lo) / step up used to add a point past hi = 1 and
        # fail after a partial CSV; float error in lo + i*step must not either
        for lo, step, points, last in (("0", "0.007", 143, "0.994"), ("0.09", "0.07", 14, "1")):
            code, out, err = run(
                capsys,
                "sweep", str(DATA / "supp1_d1.txt"), str(DATA / "supp1_d2.txt"),
                "--lo", lo, "--hi", "1", "--step", step,
            )
            assert code == 0 and "error" not in err
            lines = out.strip().splitlines()
            assert len(lines) == 1 + points
            assert lines[1].split(",")[0] == lo
            assert lines[-1].split(",")[0] == last


class TestProject:
    def test_csv_cells(self, capsys):
        code, out, _ = run(
            capsys, "project", str(DATA / "case4_d1.txt"), "--f", "3", "--t-max", "2"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "f,t,n_models,no_est,mean_as"
        assert lines[1] == "3,1,60,0,1.000"
        assert lines[2] == "3,2,60,0,1.000"

    def test_threads_no_effect(self, capsys):
        outs = [
            run(capsys, "project", "fixture:case4.d6", "--f", "4", "--threads", n)
            for n in ("3", "1")
        ]
        assert outs[0][0] == outs[1][0] == 0
        assert outs[0][1] == outs[1][1]


class TestTheory:
    def test_interval_table(self, capsys):
        code, out, _ = run(capsys, "theory", "--runs", "14", "--factors", "12")
        assert code == 0
        assert "7 intervals" in out
        for frag in ("1/22", "1/18", "1/14", "1/10", "1/6", "1/2"):
            assert frag in out

    def test_split_at_pi(self, capsys):
        code, out, _ = run(
            capsys, "theory", "--runs", "14", "--factors", "12", "--pi1", "0.3"
        )
        assert "non-level-balanced=5" in out

    def test_pattern_check(self, capsys):
        code, out, _ = run(
            capsys,
            "theory",
            "--runs", "14", "--factors", "10",
            "--design", str(DATA / "supp3_i6.txt"),
        )
        assert code == 0
        assert "pattern match: yes" in out

    def test_bad_congruence(self, capsys):
        code, _, err = run(capsys, "theory", "--runs", "12", "--factors", "5")
        assert code == 1
        assert "error" in err


class TestFixturesCommand:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "fixtures", "list")
        assert code == 0
        assert "supp1.d1: N=12 m=14" in out
        assert "case5.a" in out

    def test_check_single(self, capsys):
        code, out, _ = run(capsys, "fixtures", "check", "supp1.d3")
        assert code == 0
        assert "xtx-reproduction: pass" in out

    def test_check_all(self, capsys):
        code, out, _ = run(capsys, "fixtures", "check")
        assert code == 0
        assert "FAIL" not in out


class TestThreadsEnv:
    def test_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("QBDESIGN_THREADS", "2")
        code, out1, _ = run(
            capsys,
            "optimize",
            "--runs", "6", "--factors", "3", "--pi1", "0.2",
            "--restarts", "4", "--seed", "8",
        )
        assert code == 0
        monkeypatch.delenv("QBDESIGN_THREADS")
        code, out2, _ = run(
            capsys,
            "optimize",
            "--runs", "6", "--factors", "3", "--pi1", "0.2",
            "--restarts", "4", "--seed", "8",
        )
        assert out1 == out2  # worker count never changes the result


class TestOptimizeBenchmarks:
    def test_supersaturated_low_prior(self, capsys):
        code, out, _ = run(
            capsys,
            "optimize",
            "--runs", "12", "--factors", "14", "--order", "1",
            "--pi1", "0.1", "--restarts", "200", "--seed", "1",
        )
        assert code == 0
        assert "word counts: b1=0 b2=8/3" in out

    def test_supersaturated_high_prior(self, capsys):
        code, out, _ = run(
            capsys,
            "optimize",
            "--runs", "12", "--factors", "14", "--order", "1",
            "--pi1", "0.6", "--restarts", "200", "--seed", "1",
        )
        assert code == 0
        assert "word counts: b1=1/3 b2=2" in out

    def test_second_order_16_run(self, capsys):
        code, out, _ = run(
            capsys,
            "optimize",
            "--runs", "16", "--factors", "6", "--order", "2",
            "--pi1", "0.7", "--pi2", "0.5",
            "--restarts", "100", "--seed", "0",
        )
        assert code == 0
        assert "b3=0 b4=3" in out


class TestFixturePaths:
    def test_evaluate_fixture_id(self, capsys):
        code, out, _ = run(capsys, "evaluate", "fixture:supp1.d2", "--pi1", "0.3")
        assert code == 0
        assert "b1 = 2/9" in out

    def test_matrix_only_fixture_rejected(self, capsys):
        code, _, err = run(capsys, "evaluate", "fixture:case5.a", "--pi1", "0.3")
        assert code == 1
        assert "X'X" in err

    def test_unknown_fixture(self, capsys):
        code, _, err = run(capsys, "evaluate", "fixture:bogus", "--pi1", "0.3")
        assert code == 1


class TestSweep2D:
    def test_pi2_grid(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "fixture:case4.d1", "fixture:case4.d3",
            "--order", "2",
            "--lo", "0.7", "--hi", "0.9", "--step", "0.1",
            "--pi2-lo", "0.2", "--pi2-hi", "0.8", "--pi2-step", "0.2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("pi1,pi2,qb:")
        assert len(lines) == 1 + 3 * 4
        # q = pi1*pi2 < 1/2 favours the (b3,b4)=(0,3) class
        for line in lines[1:]:
            vals = line.split(",")
            pi1, pi2, qa, qb = (float(vals[k]) for k in range(4))
            if pi1 * pi2 < 0.5 - 1e-9:
                assert qa < qb
            elif pi1 * pi2 > 0.5 + 1e-9:
                assert qa > qb

    def test_pi2_grid_needs_order_2(self, capsys):
        code, _, err = run(
            capsys,
            "sweep", "fixture:supp1.d1", "fixture:supp1.d2", "--pi2-lo", "0.1",
        )
        assert code == 1 and "order 2" in err


class TestInputErrors:
    """Bad input gets one `error:` line on stderr and no output at all."""

    def check(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        return err

    def test_project_f_zero(self, capsys):
        err = self.check(capsys, "project", str(DATA / "case4_d1.txt"), "--f", "0", "3")
        assert "projection size" in err

    def test_project_t_max_below_one(self, capsys):
        for t_max in ("0", "-2"):
            err = self.check(capsys, "project", "fixture:had16", "--f", "3", "--t-max", t_max)
            assert "--t-max" in err

    def test_optimize_negative_seed(self, capsys):
        err = self.check(
            capsys, "optimize", "--runs", "8", "--factors", "4", "--pi1", "0.3", "--seed", "-1"
        )
        assert "seed" in err

    def test_sweep_bad_fixed_pi2(self, capsys):
        err = self.check(
            capsys,
            "sweep", "fixture:supp1.d1", "fixture:supp1.d2", "--order", "2", "--pi2", "1.5",
        )
        assert "pi2" in err
