import contextlib
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qbdesign import cli, optimizer
from qbdesign.cli import main
from qbdesign.criteria import Prior, qb_from_word_counts
from qbdesign.design import ModelOrder, load_design
from qbdesign.wordcounts import word_counts

from conftest import oracle_restarts, pointwise_sweep

DATA = Path(__file__).resolve().parents[1] / "src" / "qbdesign" / "fixtures" / "data"
EXPECTED = Path(__file__).resolve().parent / "expected"

# The optimize --progress runs of CI's process-pool step, by the name of
# their frozen stdout and stderr in tests/expected: blocks of 64 + 64 + 64 +
# 8, 64 + 64 + 2, 64 + 6 and 64 + 36 restarts with one worker
FROZEN_OPTIMIZE = {
    "12x14": "--runs 12 --factors 14 --pi1 0.1 --restarts 200 --seed 1",
    "24x7-order2": "--runs 24 --factors 7 --order 2 --pi1 0.8 --pi2 0.5 --restarts 130 --seed 3",
    "64x30-order2": "--runs 64 --factors 30 --order 2 --pi1 0.5 --pi2 0.5 --restarts 70 --seed 1",
    "16x6-order2": "--runs 16 --factors 6 --order 2 --pi1 0.6 --pi2 0.4 --restarts 100 --seed 5",
    # one block of five, where each restart scores the most lookahead rows
    "24x7-order2-r5": "--runs 24 --factors 7 --order 2 --pi1 0.8 --pi2 0.5 --restarts 5 --seed 20",
    # the first-order benchmark's call shape: one block of ten, whose set of
    # running restarts is set up anew eight times
    "12x14-r10": "--runs 12 --factors 14 --pi1 0.1 --restarts 10 --seed 10",
    # a block of one: its cursor is a Python int throughout, and its windows
    # are as wide as the design
    "24x7-order2-r1": "--runs 24 --factors 7 --order 2 --pi1 0.8 --pi2 0.5 --restarts 1 --seed 7",
}


def frozen(name):
    """The frozen (stdout, stderr) of FROZEN_OPTIMIZE[name]."""
    return tuple((EXPECTED / f"optimize-{name}.{ext}").read_text() for ext in ("out", "err"))


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

    @pytest.mark.parametrize("order", ["1", "2"])
    def test_word_counts_counted_once(self, capsys, monkeypatch, order):
        from qbdesign import criteria

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return word_counts(*args, **kwargs)

        monkeypatch.setattr(cli, "word_counts", counting)
        monkeypatch.setattr(criteria, "word_counts", counting)
        code, out, _ = run(capsys, "evaluate", "fixture:supp1.d2", "--order", order,
                           "--pi1", "0.3", "--pi2", "0.5")
        assert code == 0 and "UE(s2) = b1+b2 = 7/3" in out
        assert len(calls) == 1

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

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "cfg",
        [
            optimizer.OptimizerConfig(runs=12, factors=14, prior=Prior(0.1), restarts=10, seed=2),
            optimizer.OptimizerConfig(
                runs=24, factors=7, prior=Prior(0.8, 0.5, ModelOrder.SECOND_ORDER),
                restarts=8, seed=5,
            ),
        ],
    )
    def test_progress_log_matches_oracle(self, capsys, cfg, threads):
        order = "2" if cfg.prior.order is ModelOrder.SECOND_ORDER else "1"
        code, _, err = run(
            capsys,
            "optimize", "--runs", str(cfg.runs), "--factors", str(cfg.factors),
            "--order", order, "--pi1", str(cfg.prior.pi1), "--pi2", str(cfg.prior.pi2),
            "--restarts", str(cfg.restarts), "--seed", str(cfg.seed),
            "--progress", "--threads", threads,
        )
        assert code == 0
        assert err.splitlines() == [
            f"restart={r} seed={cfg.seed} qb={cli._fmt(qb)} sweeps={sweeps}"
            for r, (_, qb, sweeps) in enumerate(oracle_restarts(cfg))
        ]

    def test_progress_log_in_restart_order(self, capsys):
        args = (
            "optimize",
            "--runs", "6", "--factors", "3", "--pi1", "0.2",
            "--restarts", "9", "--seed", "5", "--progress",
        )
        logs = []
        for threads in ("1", "2"):
            code, _, err = run(capsys, *args, "--threads", threads)
            assert code == 0
            logs.append(err)
        assert logs[0] == logs[1]
        starts = [ln.split()[0] for ln in logs[0].splitlines()]
        assert starts == [f"restart={r}" for r in range(9)]


# The evaluate-path calls frozen in tests/expected, by file stem: every
# pi1 row of the 2-D sweep (667 pi2 points) is split across two chunks, and
# both sweeps report changes of the best design on stderr
FROZEN_EVALUATE_PATH = {
    "fixtures-check": ("fixtures check", "out"),
    "fixtures-list": ("fixtures list", "out"),
    "sweep-order2": (
        "sweep fixture:case4.d1 fixture:case4.d6 fixture:supp1.d1 --order 2"
        " --lo 0.5 --hi 0.9 --step 0.2 --pi2-lo 0 --pi2-hi 1 --pi2-step 0.0015",
        "csv",
    ),
    "sweep-order1": (
        "sweep fixture:supp1.d1 fixture:supp1.d2 fixture:supp1.d3 --lo 0 --hi 1 --step 0.001",
        "csv",
    ),
    "evaluate-supp1.d2": ("evaluate fixture:supp1.d2 --order 2 --pi1 0.3 --pi2 0.5", "out"),
    # a subnormal pi1, then QB cells down to 5e-12: exponent notation
    "sweep-tiny": (
        "sweep fixture:supp1.d1 fixture:supp1.d2 fixture:supp1.d3"
        " --lo 5e-324 --hi 1e-5 --step 1e-6",
        "csv",
    ),
    # the interval table, the optimal split's QB and a pattern check
    "theory-14x10": (
        "theory --runs 14 --factors 10 --pi1 0.3 --design fixture:supp3.i4",
        "out",
    ),
    "theory-22x15": ("theory --runs 22 --factors 15 --pi1 0.0458", "out"),
}


class TestFrozenOutputs:
    @pytest.mark.parametrize("name", FROZEN_EVALUATE_PATH)
    def test_evaluate_path_bytes(self, capsys, name):
        argv, ext = FROZEN_EVALUATE_PATH[name]
        code, out, err = run(capsys, *argv.split())
        assert code == 0
        assert out == (EXPECTED / f"{name}.{ext}").read_text()
        stderr_file = EXPECTED / f"{name}.err"
        assert err == (stderr_file.read_text() if stderr_file.exists() else "")

    def test_project_had16_f4_bytes(self, capsys):
        # 1,365 subsets with few distinct Grams: subset groups at scale
        code, out, err = run(capsys, "project", "fixture:had16", "--f", "4", "--t-max", "10")
        assert code == 0 and err == ""
        assert out == (EXPECTED / "project-had16-f4.csv").read_text()

    def test_project_had16_f5_bytes(self, capsys):
        # 3,003 subsets in 228 distinct Grams, grouped in one stack
        code, out, err = run(capsys, "project", "fixture:had16", "--f", "5", "--t-max", "10")
        assert code == 0 and err == ""
        assert out == (EXPECTED / "project-had16-f5.csv").read_text()

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("name", FROZEN_OPTIMIZE)
    def test_optimize_progress_bytes(self, capsys, name, threads):
        argv = ("optimize", *FROZEN_OPTIMIZE[name].split(), "--progress", "--threads", threads)
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert (out, err) == frozen(name)


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_rejected_call_leaves_the_parser_as_built(self, capsys):
        for bad in (["optimize", "--runs", "x"], ["optimize", "--order", "3"], ["nope"]):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = run(capsys, "optimize", *FROZEN_OPTIMIZE["12x14"].split(), "--progress")
        assert code == 0
        assert (out, err) == frozen("12x14")

    @staticmethod
    def help_text(capsys, monkeypatch, parser):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["optimize", "--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    def test_optimize_help_of_a_used_parser(self, capsys, monkeypatch):
        run(capsys, "optimize", "--runs", "4", "--factors", "3", "--pi1", "0.3", "--restarts", "2")
        fresh = self.help_text(capsys, monkeypatch, cli.build_parser.__wrapped__())
        assert self.help_text(capsys, monkeypatch, cli.build_parser()) == fresh

    @pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse 3.13 lays out help anew")
    def test_optimize_help_bytes(self, capsys, monkeypatch):
        got = self.help_text(capsys, monkeypatch, cli.build_parser())
        assert got == (EXPECTED / "optimize-help.txt").read_text()


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

    def test_huge_t_max_is_clamped(self, capsys):
        # f = 3 has C(3, 2) = 3 pairs; a range to t_max is never built
        code, want, err = run(capsys, "project", "fixture:had16", "--f", "3", "--t-max", "3")
        assert code == 0 and err == ""
        for t_max in ("9999999999", "99999999999999999999"):
            assert run(capsys, "project", "fixture:had16", "--f", "3", "--t-max", t_max) == (
                0, want, ""
            )

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

    def test_list_single(self, capsys):
        code, out, _ = run(capsys, "fixtures", "list", "supp1.d1")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 1 and lines[0].startswith("supp1.d1: N=12 m=14")

    def test_check_single(self, capsys):
        code, out, _ = run(capsys, "fixtures", "check", "supp1.d3")
        assert code == 0
        assert "xtx-reproduction: pass" in out

    def test_check_all(self, capsys):
        code, out, _ = run(capsys, "fixtures", "check")
        assert code == 0
        assert "FAIL" not in out


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


TABLE3_TIES = (
    "sweep", "fixture:table3.first", "fixture:table3.second", "--order", "2",
    "--lo", "0.1", "--hi", "0.9", "--step", "0.01",
    "--pi2-lo", "0.0", "--pi2-hi", "1.0", "--pi2-step", "0.05",
)
HAD16_TIES = (
    "sweep", "fixture:had16.proj1", "fixture:had16.proj2", "fixture:had16.proj3", "--order", "2",
    "--lo", "0.2", "--hi", "1.0", "--step", "0.005",
    "--pi2-lo", "0.1", "--pi2-hi", "0.9", "--pi2-step", "0.1",
)
SUPP1 = ("fixture:supp1.d1", "fixture:supp1.d2")
ORACLE_SWEEPS = {
    "supp1-default": ("sweep", *SUPP1, "fixture:supp1.d3"),
    "table3-ties": TABLE3_TIES,
    "had16-ties": HAD16_TIES,
    "first-order-0.007": ("sweep", *SUPP1, "--lo", "0", "--hi", "1", "--step", "0.007"),
    "first-order-0.0001": ("sweep", *SUPP1, "--lo", "0", "--hi", "1", "--step", "0.0001"),
    "fixed-pi2": (
        "sweep", "fixture:case4.d1", "fixture:case4.d3", "fixture:case4.d6", "--order", "2",
        "--pi2", "0.35", "--lo", "0.05", "--hi", "0.95", "--step", "0.001",
    ),
    "59290-points": (
        "sweep", "fixture:had16.proj1", "fixture:had16.proj2", "fixture:had16.proj4",
        "--order", "2", "--lo", "0.1", "--hi", "0.6928", "--step", "0.0001",
        "--pi2-lo", "0.1", "--pi2-hi", "1", "--pi2-step", "0.1",
    ),
    "duplicates": (
        "sweep", *SUPP1, "fixture:supp1.d1", "fixture:supp1.d2",
        "--lo", "0.1", "--hi", "0.8", "--step", "0.0005",
    ),
    "pi1-zero-2d": (
        "sweep", "fixture:case4.d1", "fixture:case4.d3", "--order", "2",
        "--lo", "0", "--hi", "0.5", "--step", "0.01",
        "--pi2-lo", "0", "--pi2-hi", "1", "--pi2-step", "0.25",
    ),
    # cells in exponent notation, and subnormal, underflowed and tiny cells
    # that the vectorised formatter leaves to "%.6g"
    "tiny-first-order": (
        "sweep", *SUPP1, "fixture:supp1.d3", "--lo", "5e-324", "--hi", "1e-5", "--step", "1e-6",
    ),
    "tiny-order2": (
        "sweep", "fixture:case4.d1", "fixture:case4.d6", "fixture:supp1.d1", "--order", "2",
        "--lo", "1e-300", "--hi", "1e-5", "--step", "1e-6",
        "--pi2-lo", "1e-300", "--pi2-hi", "1", "--pi2-step", "0.25",
    ),
}


def random_batch(tmp_path):
    """Random designs of the corpus shapes and 24x30, as files."""
    rng = np.random.Generator(np.random.Philox(key=1))
    paths = []
    for n, m in ((12, 14), (14, 12), (22, 15), (16, 6), (24, 7), (24, 30)):
        path = tmp_path / f"r{n}x{m}.txt"
        path.write_text(
            "\n".join(" ".join(map(str, row)) for row in rng.choice([-1, 1], size=(n, m))) + "\n"
        )
        paths.append(str(path))
    return paths


class TestSweepGrid:
    """The chunked grid sweep prints exactly what one Prior per point prints."""

    def assert_as_oracle(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert (out, err) == pointwise_sweep(list(argv))
        return out, err

    @pytest.mark.parametrize("name", sorted(ORACLE_SWEEPS))
    def test_equals_pointwise_oracle(self, capsys, name):
        self.assert_as_oracle(capsys, ORACLE_SWEEPS[name])

    def test_random_batch_2d(self, capsys, tmp_path):
        self.assert_as_oracle(capsys, (
            "sweep", *random_batch(tmp_path), "--order", "2",
            "--lo", "0.1", "--hi", "0.8", "--step", "0.001",
            "--pi2-lo", "0.1", "--pi2-hi", "0.8", "--pi2-step", "0.1",
        ))

    @pytest.mark.parametrize("argv, cells", [
        # exact decimal ties at the 6th digit: the printed value follows the
        # rounded float, one Prior at a time
        (TABLE3_TIES, {("0.75", "0.2"): ["0.233438", "0.223021"]}),
        (HAD16_TIES, {
            ("0.35", "0.3"): ["0.0243101", "0.0547943", "0.0852784"],
            ("0.75", "0.2"): ["0.227813", "0.405", "0.582188"],
            ("0.95", "0.2"): ["0.586444", "0.905388", "1.22433"],
        }),
    ])
    def test_tie_cells(self, capsys, fallbacks, argv, cells):
        out, _ = self.assert_as_oracle(capsys, argv)
        rows = {tuple(ln.split(",")[:2]): ln.split(",")[2:] for ln in out.splitlines()[1:]}
        for point, qbs in cells.items():
            assert rows[point][: len(qbs)] == qbs
        # tie cells are printed by Python's "%.6g", not the vectorised path
        tied = {q for qbs in cells.values() for q in qbs}
        assert tied & {"%.6g" % v for v in fallbacks}

    def test_pi1_zero(self, capsys):
        # every QB is 0 at pi1 = 0, so every releff takes the 1.0 branch
        argv = ("sweep", *SUPP1, "fixture:supp1.d3", "--lo", "0", "--hi", "0.02", "--step", "0.01")
        out, _ = self.assert_as_oracle(capsys, argv)
        assert out.splitlines()[1] == "0,0,0,0,1,1,1"

    @pytest.mark.parametrize("order", ["1", "2"])
    def test_chunk_cells_bit_equal_to_each_point(self, monkeypatch, tmp_path, order, chunk=7):
        # designs of 1, 2 and 3 factors have fewer word counts than k_max
        rng = np.random.Generator(np.random.Philox(key=131))
        paths = []
        for n, m in ((5, 1), (6, 2), (7, 3), (12, 14)):
            path = tmp_path / f"d{n}x{m}.txt"
            path.write_text("\n".join(" ".join(map(str, r)) for r in rng.choice([-1, 1], (n, m))))
            paths.append(str(path))
        grid = ["--lo", "0", "--hi", "1", "--step", "0.01"]
        if order == "2":
            grid += ["--pi2-lo", "0", "--pi2-hi", "1", "--pi2-step", "0.1"]
        seen = []

        def record(counts, prior, factors):
            qb = qb_from_word_counts(counts, prior, factors)
            seen.append((counts, prior, factors, qb))
            return qb

        monkeypatch.setattr(cli, "qb_from_word_counts", record)
        monkeypatch.setattr(cli, "SWEEP_CHUNK_POINTS", chunk)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["sweep", *paths, "--order", order, *grid]) == 0
        cells = 0
        for counts, prior, factors, qb in seen:
            pi1, pi2 = np.broadcast_arrays(prior.pi1, prior.pi2)
            for idx in np.ndindex(pi1.shape[:-1]):
                point = Prior(float(pi1[idx][0]), float(pi2[idx][0]), prior.order)
                for t, (w, m) in enumerate(zip(counts, factors)):
                    alone = np.float64(qb_from_word_counts(w, point, m))
                    assert qb[idx + (t,)].view(np.int64) == alone.view(np.int64)
                    cells += 1
        assert cells == 101 * (11 if order == "2" else 1) * len(paths)

    @pytest.mark.parametrize("chunk", [1, 7, 20])
    @pytest.mark.parametrize("argv", [
        ("sweep", *SUPP1, "fixture:supp1.d3", "--lo", "0.15", "--hi", "0.55", "--step", "0.001"),
        HAD16_TIES,
        # 11 pi2 values: chunks of 1 and 7 split every row, one of 20 holds a row
        ("sweep", "fixture:case4.d1", "fixture:case4.d3", "fixture:case4.d6", "--order", "2",
         "--lo", "0.3", "--hi", "0.9", "--step", "0.05",
         "--pi2-lo", "0", "--pi2-hi", "1", "--pi2-step", "0.1"),
    ])
    def test_uneven_chunks(self, capsys, monkeypatch, chunk, argv):
        monkeypatch.setattr(cli, "SWEEP_CHUNK_POINTS", chunk)
        self.assert_as_oracle(capsys, argv)

    def test_memory_flat_in_grid_size(self, monkeypatch):
        # ten times the points must not hold more memory: no per-point Prior
        # and no grid-sized list is kept
        monkeypatch.setattr(cli, "SWEEP_CHUNK_POINTS", 64)

        class Discard(io.TextIOBase):
            def write(self, s):
                return len(s)

        peaks = []
        for step in ("0.001", "0.0001"):
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(Discard()), contextlib.redirect_stderr(Discard()):
                    assert main(["sweep", *SUPP1, "--lo", "0", "--hi", "1", "--step", step]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 2**17


class TestClosedStdout:
    def test_reader_gone_ends_quietly(self):
        # as `sweep ... | head -1`: the reader takes one line and closes the
        # pipe; the sweep ends with 128 + SIGPIPE and says nothing.  From
        # pi1 = 0.3 on the argmin never changes, so nothing else goes to
        # stderr, whenever the pipe closes
        src = Path(cli.__file__).resolve().parents[1]
        argv = ["sweep", *SUPP1, "--lo", "0.3", "--hi", "1", "--step", "0.0001"]
        # the with block closes both pipes and waits for the child
        with subprocess.Popen(
            [sys.executable, "-m", "qbdesign.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
        ) as proc:
            assert proc.stdout.readline().startswith(b"pi1,")
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=60), err) == (141, b"")


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

    def test_optimize_threads_below_one(self, capsys):
        for threads in ("0", "-1"):
            err = self.check(
                capsys,
                "optimize", "--runs", "8", "--factors", "4", "--pi1", "0.3",
                "--restarts", "3", "--threads", threads,
            )
            assert err == f"error: --threads must be >= 1, got {threads}\n"

    def test_optimize_restarts_below_one(self, capsys):
        for restarts in ("0", "-3"):
            err = self.check(
                capsys, "optimize", "--runs", "8", "--factors", "4", "--pi1", "0.3",
                "--restarts", restarts,
            )
            assert err == f"error: restarts must be >= 1, got {restarts}\n"

    def test_project_threads_below_one(self, capsys):
        for threads in ("0", "-1"):
            err = self.check(capsys, "project", "fixture:had16", "--f", "3", "--threads", threads)
            assert err == f"error: --threads must be >= 1, got {threads}\n"

    def test_threads_env_not_read(self, capsys, monkeypatch):
        # --threads alone sets the workers: no environment variable is a
        # second source, nor can one fail a run
        commands = (
            ("optimize", "--runs", "8", "--factors", "4", "--pi1", "0.3", "--restarts", "3"),
            ("project", "fixture:had16", "--f", "3"),
        )
        for argv in commands:
            monkeypatch.delenv("QBDESIGN_THREADS", raising=False)
            code, want, err = run(capsys, *argv)
            assert code == 0 and err == ""
            monkeypatch.setenv("QBDESIGN_THREADS", "abc")
            assert run(capsys, *argv) == (0, want, "")

    def test_optimize_bad_sizes_and_epsilon(self, capsys):
        base = ("optimize", "--pi1", "0.3", "--restarts", "3")
        for flags, word in (
            (("--runs", "8", "--factors", "0"), "factors"),
            (("--runs", "1", "--factors", "4"), "runs"),
        ):
            err = self.check(capsys, *base, *flags)
            assert word in err
        # the search stops at its first sweep that accepts nothing; neither
        # its improvement threshold nor a stale-sweep count is an option
        for flags in (("--epsilon", "0"), ("--stale-sweeps", "2")):
            with pytest.raises(SystemExit) as exc:
                main([*base, "--runs", "8", "--factors", "4", *flags])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err

    def test_evaluate_subsets_out_of_range(self, capsys):
        # supp1.d1 has m = 14 factors
        for k in ("0", "-1", "15", "20"):
            err = self.check(
                capsys, "evaluate", "fixture:supp1.d1", "--pi1", "0.3", "--subsets", k
            )
            assert "--subsets must be in 1..14" in err

    def test_evaluate_subsets_at_the_bounds(self, capsys):
        for k, lines in (("1", 14), ("14", 1)):
            code, out, _ = run(
                capsys, "evaluate", "fixture:supp1.d1", "--pi1", "0.3", "--subsets", k
            )
            assert code == 0
            assert len([ln for ln in out.splitlines() if " J=" in ln]) == lines

    def test_theory_bad_pi1(self, capsys):
        for pi1 in ("0", "1.5", "-0.2"):
            err = self.check(capsys, "theory", "--runs", "14", "--factors", "12", "--pi1", pi1)
            assert "pi1" in err

    def test_theory_design_of_wrong_run_size(self, capsys):
        # had16 has N = 16, not 2 (mod 4); the interval table must not print first
        self.check(capsys, "theory", "--runs", "14", "--factors", "12", "--design", "fixture:had16")

    def test_theory_missing_design(self, capsys, tmp_path):
        self.check(
            capsys, "theory", "--runs", "14", "--factors", "12",
            "--design", str(tmp_path / "missing.txt"),
        )

    def test_theory_design_size_mismatch(self, capsys):
        # supp3.i6 is 14x10: a 14x12 table must not print before the pattern check
        err = self.check(
            capsys, "theory", "--runs", "14", "--factors", "12", "--design", "fixture:supp3.i6"
        )
        assert "14x10" in err and "14x12" in err

    def test_fixtures_list_unknown_id(self, capsys):
        err = self.check(capsys, "fixtures", "list", "extra")
        assert "unknown fixture id 'extra'" in err

    def test_optimize_unwritable_output(self, capsys, tmp_path):
        # the design is saved before the first result line, so a failed
        # write leaves no partial report
        self.check(
            capsys,
            "optimize", "--runs", "4", "--factors", "3", "--pi1", "0.3", "--restarts", "2",
            "-o", str(tmp_path / "missing" / "x.txt"),
        )

    def test_optimize_output_checked_before_the_search(self, capsys, monkeypatch, tmp_path):
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(cli, "multi_restart", no_search)
        base = ("optimize", "--runs", "4", "--factors", "3", "--pi1", "0.3", "--restarts", "2",
                "--progress")
        err = self.check(capsys, *base, "-o", str(tmp_path / "missing" / "x.txt"))
        assert "does not exist" in err
        err = self.check(capsys, *base, "-o", str(tmp_path))
        assert "is a directory" in err
        # os.access stands in for a read-only directory, which root could still write
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        err = self.check(capsys, *base, "-o", str(tmp_path / "x.txt"))
        assert "permission denied" in err

    def test_optimize_restart_too_large(self, capsys, monkeypatch):
        # refused from N and m alone: no start is drawn and no block is built
        def no_block(*args, **kwargs):
            raise AssertionError("a block was allocated")

        monkeypatch.setattr(optimizer, "_run_block", no_block)
        err = self.check(
            capsys, "optimize", "--runs", "200000", "--factors", "3", "--pi1", "0.3",
            "--restarts", "1", "--progress",
        )
        assert "200000x3" in err and "MiB" in err

    def test_sweep_grid_too_large(self, capsys):
        # each grid is rejected from its point count alone, before any
        # point is built
        d1, d2 = "fixture:supp1.d1", "fixture:supp1.d2"
        for flags in (
            ("--step", "1e-300"),
            ("--step", "5e-324"),
            ("--lo", "0", "--hi", "1", "--step", "1e-6"),
            ("--order", "2", "--pi2-lo", "0.1", "--pi2-step", "1e-300"),
            ("--order", "2", "--pi2-lo", "0.1", "--pi2-hi", "0.8", "--pi2-step", "0.0001"),
        ):
            err = self.check(capsys, "sweep", d1, d2, *flags)
            assert "more than 1000000 points" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--lo", "0.5", "--hi", "0.2"),
             "need 0 <= --lo < --hi <= 1 and --step > 0, got --lo 0.5, --hi 0.2, --step 0.001"),
            (("--step", "0"),
             "need 0 <= --lo < --hi <= 1 and --step > 0, got --lo 0.1, --hi 0.8, --step 0.0"),
            # --pi2-lo above the default --pi2-hi
            (("--order", "2", "--pi2-lo", "0.9"),
             "need 0 <= --pi2-lo < --pi2-hi <= 1 and --pi2-step > 0,"
             " got --pi2-lo 0.9, --pi2-hi 0.8, --pi2-step 0.1"),
            (("--order", "2", "--pi2-lo", "0", "--pi2-hi", "1.5"),
             "need 0 <= --pi2-lo < --pi2-hi <= 1 and --pi2-step > 0,"
             " got --pi2-lo 0.0, --pi2-hi 1.5, --pi2-step 0.1"),
        ],
    )
    def test_sweep_bad_axis_names_its_flags(self, capsys, flags, message):
        err = self.check(capsys, "sweep", "fixture:had16", "fixture:case4.d1", *flags)
        assert err == f"error: {message}\n"

    def test_sweep_bad_fixed_pi2(self, capsys):
        err = self.check(
            capsys,
            "sweep", "fixture:supp1.d1", "fixture:supp1.d2", "--order", "2", "--pi2", "1.5",
        )
        assert "pi2" in err
