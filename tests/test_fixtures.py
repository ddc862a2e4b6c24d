import dataclasses
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qbdesign import fixtures
from qbdesign.cli import main
from qbdesign.design import ModelOrder, information_matrix
from qbdesign.errors import UnknownFixtureError
from qbdesign.fixtures import check_fixtures, list_fixtures, load_fixture, load_fixtures

from conftest import listing_edits, oracle_check_fixture

FROZEN_CHECK = Path(__file__).resolve().parent / "expected" / "fixtures-check.out"


@pytest.fixture(scope="module")
def corpus():
    return load_fixtures(list_fixtures())


class TestRegistry:
    def test_known_ids_present(self):
        ids = list_fixtures()
        for fid in (
            "supp1.d1",
            "supp1.d5",
            "supp2.i1.conf",
            "supp3.i6",
            "supp3.n22a",
            "table3.second",
            "had16",
            "had16.proj1",
            "case4.d6",
            "case5.a",
        ):
            assert fid in ids

    def test_unknown_id(self):
        with pytest.raises(UnknownFixtureError):
            load_fixture("nope.d9")

    def test_supp1_d1(self):
        f = load_fixture("supp1.d1")
        assert (f.runs, f.factors) == (12, 14)
        assert f.expected_b == {1: Fraction(0), 2: Fraction(8, 3)}
        assert f.order is ModelOrder.FIRST_ORDER

    def test_had16(self):
        f = load_fixture("had16")
        assert (f.runs, f.factors) == (16, 15)
        h = np.column_stack([np.ones(16, dtype=np.int64), f.design.entries])
        assert np.array_equal(h.T @ h, 16 * np.eye(16, dtype=np.int64))

    def test_table3_second_intercept_row(self):
        f = load_fixture("table3.second")
        assert list(f.expected_xtx[0, 1:5]) == [-2, 2, -2, 2]

    def test_xtx_listings_read_as_loadtxt_reads_them(self):
        # np.loadtxt, which read the listings before, is the reference
        manifest = fixtures.read_manifest()
        paths = [entry["xtx"] for entry in manifest.values() if "xtx" in entry]
        assert len(paths) == 30
        for path in paths:
            got = fixtures._read_xtx(path)
            want = np.loadtxt(path, dtype=np.int64, ndmin=2)
            assert got.dtype == want.dtype and np.array_equal(got, want), path.name

    def test_xtx_listing_not_square(self, tmp_path):
        path = tmp_path / "bad_xtx.txt"
        path.write_text("4 0 2\n0 4 0\n")
        with pytest.raises(ValueError, match="bad_xtx.txt has 6 entries, not a square matrix"):
            fixtures._read_xtx(path)

    def test_matrix_only_fixture(self):
        f = load_fixture("case5.a")
        assert f.design is None
        assert f.expected_xtx.shape == (29, 29)
        assert (f.runs, f.factors) == (24, 7)


class TestExpectations:
    def test_every_fixture_checks_out(self):
        for fid in list_fixtures():
            [results] = check_fixtures([load_fixture(fid)])
            bad = [(n, d) for n, ok, d in results if not ok]
            assert not bad, f"{fid}: {bad}"

    def test_xtx_reproduction_everywhere(self):
        reproduced = 0
        for fid in list_fixtures():
            f = load_fixture(fid)
            if f.design is None or f.expected_xtx is None:
                continue
            im = information_matrix(f.design, f.order)
            assert np.array_equal(im.a, f.expected_xtx), fid
            reproduced += 1
        assert reproduced == 26

    def test_projection_fixtures_match_case4(self):
        # the stored projection classes 1 and 3 are the same designs that
        # carry full second-order matrices
        p1 = load_fixture("had16.proj1").design
        d1 = load_fixture("case4.d1").design
        assert np.array_equal(p1.entries, d1.entries)
        p3 = load_fixture("had16.proj3").design
        d3 = load_fixture("case4.d3").design
        assert np.array_equal(p3.entries, d3.entries)

    def test_orthogonal_main_effect_plans(self):
        for fid in ("case4.d1", "case4.d3", "case4.d6"):
            f = load_fixture(fid)
            a = f.expected_xtx
            assert not a[0, 1:7].any()  # balanced mains
            block = a[1:7, 1:7]
            assert not (block - np.diag(np.diag(block))).any()  # orthogonal mains


class TestManifestReads:
    @pytest.mark.parametrize("argv", [["fixtures", "check"], ["fixtures", "list"],
                                      ["fixtures", "check", "had16.proj2"]])
    def test_one_read_per_command(self, capsys, monkeypatch, argv):
        # the command reads and resolves the manifest once, not once per fixture
        reads, lookups = [], []
        read, files = fixtures.read_manifest, fixtures.resources.files
        monkeypatch.setattr(fixtures, "read_manifest", lambda: reads.append(1) or read())
        monkeypatch.setattr(fixtures.resources, "files", lambda p: lookups.append(p) or files(p))
        assert main(argv) == 0
        assert capsys.readouterr().out
        assert (len(reads), len(lookups)) == (1, 1)

    def test_passed_manifest_gives_the_same_fixture(self):
        manifest = fixtures.read_manifest()
        assert list_fixtures(manifest) == list_fixtures()
        for fid in ("had16.proj3", "case5.a", "supp1.d1"):
            a, b = load_fixture(fid, manifest), load_fixture(fid)
            for field in ("runs", "factors", "expected_b", "source", "order"):
                assert getattr(a, field) == getattr(b, field)
            assert (a.design is None) == (b.design is None)
            assert a.design is None or np.array_equal(a.design.entries, b.design.entries)


class TestReadsPerFile:
    @pytest.mark.parametrize("action", ["check", "list"])
    def test_each_data_file_read_once(self, capsys, monkeypatch, action):
        # had16.txt backs six fixtures and is read and parsed once
        manifest = fixtures.read_manifest()
        files = {e[key].name for e in manifest.values() for key in ("path", "xtx") if e.get(key)}
        assert len(files) == 57
        reads = Counter()
        read_text = Path.read_text
        def counted(self, *args, **kwargs):
            reads.update([self.name])
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counted)
        assert main(["fixtures", action]) == 0
        assert capsys.readouterr().out
        assert reads == Counter(files | {"manifest.txt"})


class TestStackedChecks:
    """check_fixtures against the one-fixture-at-a-time oracle."""

    def test_whole_corpus(self, corpus):
        assert check_fixtures(corpus) == [oracle_check_fixture(f) for f in corpus]

    def test_each_fixture_alone(self, corpus):
        for f in corpus:
            want = oracle_check_fixture(f)
            assert check_fixtures([f]) == [want], f.id

    def test_mixed_shape_subsets(self, corpus):
        rng = np.random.Generator(np.random.Philox(key=5))
        for _ in range(40):
            picked = [corpus[i] for i in rng.integers(0, len(corpus), size=rng.integers(1, 12))]
            assert check_fixtures(picked) == [oracle_check_fixture(f) for f in picked]

    def test_single_entry_edits_of_every_listing(self, corpus):
        listed = [f for f in corpus if f.expected_xtx is not None]
        assert len(listed) == 30
        edited = {
            (f.id, kind): dataclasses.replace(f, expected_xtx=a)
            for f in listed
            for kind, a in listing_edits(f.expected_xtx, f.runs).items()
        }
        # the edited listings share their stacks with the whole corpus
        got = check_fixtures(corpus + list(edited.values()))[len(corpus) :]
        for (fid, kind), rows in zip(edited, got):
            want = oracle_check_fixture(edited[fid, kind])
            assert rows == want, (fid, kind)
            failed = {name for name, ok, _ in rows if not ok}
            if kind == "j-conflict":
                second_order = edited[fid, kind].order is ModelOrder.SECOND_ORDER
                assert ("xtx-consistency" in failed) == second_order
            else:
                assert failed, (fid, kind)

    def test_wrong_b(self, corpus):
        wrong = [
            dataclasses.replace(f, expected_b={**f.expected_b, k: f.expected_b[k] + Fraction(1, 7)})
            for f in corpus
            for k in f.expected_b
        ]
        assert len(wrong) == 48
        got = check_fixtures(wrong)
        assert got == [oracle_check_fixture(f) for f in wrong]
        assert all(any(not ok for _, ok, _ in rows) for rows in got)


class TestCheckCommand:
    def test_one_wrong_b_fails_one_row(self, capsys, monkeypatch):
        manifest = fixtures.read_manifest()
        manifest["had16.proj1"]["b3"] = "1/2"
        monkeypatch.setattr(fixtures, "read_manifest", lambda: manifest)
        frozen = FROZEN_CHECK.read_text()
        want = frozen.replace("had16.proj1 b3: pass (0 vs 0)", "had16.proj1 b3: FAIL (0 vs 1/2)")
        assert want != frozen
        assert main(["fixtures", "check"]) == 1
        assert capsys.readouterr() == (want, "1 fixture check(s) failed\n")

    @pytest.mark.parametrize("action", ["check", "list"])
    def test_listing_with_a_bad_token(self, capsys, monkeypatch, tmp_path, action):
        manifest = fixtures.read_manifest()
        entry = manifest["supp3.i1"]
        entry["xtx"] = tmp_path / entry["xtx"].name
        entry["xtx"].write_text((fixtures.read_manifest()["supp3.i1"]["xtx"]).read_text() + "x\n")
        monkeypatch.setattr(fixtures, "read_manifest", lambda: manifest)
        assert main(["fixtures", action]) == 1
        assert capsys.readouterr() == (
            "", "error: X'X listing supp3_i1_xtx.txt holds a token that is not an integer\n"
        )

    @pytest.mark.parametrize("action", ["check", "list"])
    def test_design_file_with_a_bad_entry(self, capsys, monkeypatch, tmp_path, action):
        manifest = fixtures.read_manifest()
        entry = manifest["supp1.d3"]
        rows = [ln.split() for ln in entry["path"].read_text().splitlines()]
        rows[2][1] = "x"
        entry["path"] = tmp_path / entry["path"].name
        entry["path"].write_text("\n".join(" ".join(r) for r in rows) + "\n")
        monkeypatch.setattr(fixtures, "read_manifest", lambda: manifest)
        assert main(["fixtures", action]) == 1
        assert capsys.readouterr() == (
            "",
            "error: design file supp1_d3.txt: entry at row 3, column 2 is not -1 or 1 (got 'x')\n",
        )

    def test_listing_read_where_numpy_only_warns(self, monkeypatch, tmp_path):
        # numpy < 2 warns at the first token that is not an integer and returns what it read
        path = tmp_path / "old_xtx.txt"
        path.write_text("4 0\n0 4 x\n")

        def fromstring(text, dtype, sep):
            warnings.warn("string or file could not be read to its end", DeprecationWarning)
            return np.array([4, 0, 0, 4], dtype=dtype)

        monkeypatch.setattr(fixtures.np, "fromstring", fromstring)
        with pytest.raises(ValueError, match="old_xtx.txt holds a token that is not an integer"):
            fixtures._read_xtx(path)


class TestManifestEntries:
    def test_every_entry_has_a_source(self, corpus):
        assert len(corpus) == 36
        assert all(f.source for f in corpus)

    @pytest.mark.parametrize(
        "line, fault",
        [
            ("had16", "had16: has no path"),
            ("had16 had16.txt -- again", "had16: is defined twice"),
            ("new.a had16.txt b3=0 b3=1 -- x", "new.a: b3 is given twice"),
            ("new.b had16.txt path=had16.txt -- x", "new.b: path is given twice"),
        ],
    )
    def test_bad_line(self, capsys, monkeypatch, tmp_path, line, fault):
        text = (Path(fixtures.__file__).parent / "data" / "manifest.txt").read_text()
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "manifest.txt").write_text(text + line + "\n")
        monkeypatch.setattr(fixtures.resources, "files", lambda package: tmp_path)
        assert main(["fixtures", "list"]) == 1
        assert capsys.readouterr() == ("", f"error: manifest.txt entry {fault}\n")

    @pytest.mark.parametrize(
        "fid, key, value, fault",
        [
            ("had16.proj1", "cols", "1,2,99", "does not name distinct columns in 1..15"),
            ("had16.proj1", "cols", "0,2,4,8,11,13", "does not name distinct columns in 1..15"),
            ("had16.proj1", "cols", "1,2,2,8,11,13", "does not name distinct columns in 1..15"),
            ("case5.a", "cols", "1,2", "takes columns of a design file, and there is none"),
            ("had16.proj1", "b3", "x", "is not a rational number"),
            ("had16.proj1", "b4", "1/0", "is not a rational number"),
            ("case5.a", "n", "24x", "is not a positive integer"),
            ("case5.a", "m", "0", "is not a positive integer"),
            ("table3.first", "order", "3", "is not 1 or 2"),
            ("had16.proj1", "b9", "3", "is not a manifest key"),
        ],
    )
    def test_bad_entry(self, capsys, monkeypatch, fid, key, value, fault):
        manifest = fixtures.read_manifest()
        manifest[fid][key] = value
        monkeypatch.setattr(fixtures, "read_manifest", lambda: manifest)
        assert main(["fixtures", "check"]) == 1
        error = f"error: manifest.txt entry {fid}: {key}={value} {fault}\n"
        assert capsys.readouterr() == ("", error)
