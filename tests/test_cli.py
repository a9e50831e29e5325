import json
import subprocess
import sys

import pytest

import fca_spaces.lattice
from fca_spaces import ConceptLattice, build_lattice, cli, golden_csv
from fca_spaces.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCorpusCommand:
    def test_abc_golden(self, capsys):
        code, out, err = invoke(capsys, "corpus", "ninapro-abc")
        assert code == 0
        assert out == golden_csv("ninapro-abc")
        assert err == ""

    def test_grasp_golden(self, capsys):
        code, out, _ = invoke(capsys, "corpus", "ninapro-grasp")
        assert code == 0
        assert out == golden_csv("ninapro-grasp")

    def test_unknown_corpus_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "corpus", "bogus")
        assert code == 1
        assert "bogus" in err


class TestQueryCommand:
    def test_wrist_rotate_json(self, capsys):
        code, out, _ = invoke(
            capsys, "query", "ninapro-abc", "--attributes", "Wrist,Rotate", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["extent"] == ["Ex3 Act1-", "Ex3 Act3-"]

    def test_unknown_attribute_echoed(self, capsys):
        code, _, err = invoke(capsys, "query", "ninapro-abc", "--attributes", "Wrist,Sideways")
        assert code == 3
        assert "Sideways" in err

    def test_table_output(self, capsys):
        code, out, _ = invoke(capsys, "query", "ninapro-abc", "--attributes", "Point")
        assert code == 0
        assert "Ex2 Act7" in out

    def test_runs_without_building_the_lattice(self, monkeypatch, capsys):
        argv = ("query", "ninapro-abc", "--attributes", "Wrist,Rotate")
        want = [invoke(capsys, *argv, "--format", fmt) for fmt in ("table", "json")]

        def refused(ctx):
            raise AssertionError("fca query built the whole lattice")

        monkeypatch.setattr(cli, "build_lattice", refused)
        monkeypatch.setattr(fca_spaces.lattice, "build_lattice", refused)
        got = [invoke(capsys, *argv, "--format", fmt) for fmt in ("table", "json")]
        assert got == want
        assert [code for code, _, _ in got] == [0, 0]

    def test_unknown_attribute_fails_before_enumeration(self, monkeypatch, capsys):
        def refused(ctx):
            raise AssertionError("concepts enumerated for a bad cue")

        monkeypatch.setattr(cli, "enumerate_concepts", refused)
        code, out, err = invoke(capsys, "query", "ninapro-abc", "--attributes", "Wrist,Sideways")
        assert (code, out) == (3, "")
        assert "Sideways" in err


class TestPrototypeCommand:
    def test_empty_category_exit_3(self, capsys):
        code, _, err = invoke(capsys, "prototype", "ninapro-abc", "--attributes", "Point,Wrist")
        assert code == 3
        assert "EmptyCategory" in err

    def test_power_palm(self, capsys):
        code, out, _ = invoke(capsys, "prototype", "ninapro-grasp", "--attributes", "Power,Palm")
        assert code == 0
        assert out.strip() == "Ex4 Act r1"

    def test_json_format(self, capsys):
        code, out, _ = invoke(
            capsys, "prototype", "ninapro-abc", "--attributes", "Flexion,Extension",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["prototype"] == "Ex1 Act1-"


class TestSimilarCommand:
    def test_default_k(self, capsys):
        code, out, _ = invoke(
            capsys, "similar", "ninapro-abc", "--object", "Ex1 Act1-", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["similar"]) == 5

    def test_k_flag(self, capsys):
        code, out, _ = invoke(
            capsys, "similar", "ninapro-abc", "--object", "Ex1 Act1-", "-k", "8",
            "--format", "json",
        )
        data = json.loads(out)
        assert len(data["similar"]) == 8
        sibling_intents = [tuple(c["intent"]) for c in data["similar"] if c["distance"] == 2]
        assert ("Middle Finger", "Flexion", "Extension") in sibling_intents

    def test_k_below_one_is_usage_error(self, capsys):
        for k in ("0", "-3"):
            code, out, err = invoke(capsys, "similar", "ninapro-abc", "--object", "Ex1 Act1-", "-k", k)
            assert code == 1
            assert out == ""
            assert err.splitlines()[0] == f"error: argument -k: must be at least 1, got {int(k)}"

    def test_unknown_object(self, capsys):
        code, _, err = invoke(capsys, "similar", "ninapro-abc", "--object", "Ex9 Act9")
        assert code == 3
        assert "Ex9 Act9" in err


class TestSiblingsCommand:
    def test_finger_siblings(self, capsys):
        code, out, _ = invoke(
            capsys, "siblings", "ninapro-abc", "--object", "Ex1 Act1-", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        extents = {tuple(c["extent"]) for c in data["siblings"]}
        assert ("Ex1 Act3-",) in extents
        assert ("Ex1 Act11-",) in extents


class TestLatticeCommand:
    def test_json_stable_across_runs(self, capsys):
        code1, out1, _ = invoke(capsys, "lattice", "ninapro-grasp", "--format", "json")
        code2, out2, _ = invoke(capsys, "lattice", "ninapro-grasp", "--format", "json")
        assert code1 == code2 == 0
        assert out1 == out2
        data = json.loads(out1)
        assert len(data["concepts"]) == 25
        assert len(data["covers"]) == 45

    def test_dot_edges(self, capsys):
        code, out, _ = invoke(capsys, "lattice", "ninapro-grasp", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")
        assert sum(1 for line in out.splitlines() if "->" in line) == 45

    def test_table_summary(self, capsys):
        code, out, _ = invoke(capsys, "lattice", "ninapro-abc")
        assert code == 0
        assert "51 concepts" in out
        assert "116 cover edges" in out


class TestConceptsCommand:
    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "concepts", "ninapro-grasp", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data) == 25
        assert data[0]["id"] == 0

    def test_table(self, capsys):
        code, out, _ = invoke(capsys, "concepts", "ninapro-grasp")
        assert code == 0
        assert out.startswith("25 concepts")


class TestVerifyCasesCommand:
    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "verify-cases", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert [r["case"] for r in data] == [1, 2, 3, 4]
        assert [r["verdict"] for r in data] == ["fails", "fails", "holds", "holds"]
        assert all(r["evidence"] for r in data)

    def test_table(self, capsys):
        code, out, _ = invoke(capsys, "verify-cases")
        assert code == 0
        assert "Case 3: holds" in out


class TestValidateCommand:
    def test_corpus_oracle(self, capsys):
        for name in ("ninapro-abc", "ninapro-grasp"):
            code, out, err = invoke(capsys, "validate", name, "--oracle")
            assert code == 0, err
            lines = [l for l in out.splitlines() if l]
            assert all(l.startswith("ok: ") for l in lines)
            assert any("exhaustive" in l for l in lines)

    def test_without_oracle(self, capsys):
        code, out, _ = invoke(capsys, "validate", "ninapro-grasp")
        assert code == 0
        assert not any("exhaustive" in l for l in out.splitlines())

    def test_oracle_adds_pairwise_cover_check(self, capsys):
        default = [
            "ok: concepts are closed (extent'' = extent, intent'' = intent)",
            "ok: enumeration order: extent size desc, intent lexicographic",
            "ok: covers equal pairwise transitive reduction",
            "ok: unique top and bottom",
            "ok: levels equal longest cover path from top",
        ]
        code, out, _ = invoke(capsys, "validate", "ninapro-abc")
        assert code == 0
        assert out.splitlines() == default
        code, out, _ = invoke(capsys, "validate", "ninapro-abc", "--oracle")
        assert code == 0
        assert out.splitlines() == default + [
            "ok: covers equal cubic pairwise recomputation",
            "ok: enumeration equals exhaustive subset closure",
        ]

    def test_corrupted_covers_fail(self, monkeypatch, capsys):
        def dropped_cover(ctx):
            lat = build_lattice(ctx)
            low, up = lat.cover_edges()[0]
            upper = [tuple(j for j in lat.upper_covers(i) if (i, j) != (low, up)) for i in range(len(lat))]
            lower = [tuple(j for j in lat.lower_covers(i) if (j, i) != (low, up)) for i in range(len(lat))]
            levels = [lat.level_of(i) for i in range(len(lat))]
            return ConceptLattice(ctx, lat.concepts, upper, lower, levels, lat.top_id, lat.bottom_id)

        monkeypatch.setattr(cli, "build_lattice", dropped_cover)
        code, out, err = invoke(capsys, "validate", "ninapro-abc")
        assert code == 1
        assert "FAIL: covers equal pairwise transitive reduction" in out.splitlines()
        assert "check(s) failed" in err

    def test_oracle_refused_on_wide_context(self, tmp_path, capsys):
        attrs = ",".join(f"m{j}" for j in range(25))
        path = tmp_path / "wide.csv"
        path.write_text(f",{attrs}\ng1,{','.join('1' * 25)}\n", encoding="utf-8")
        code, _, err = invoke(capsys, "validate", str(path), "--oracle")
        assert code == 1
        assert "2^25" in err

    def test_check_bug_not_mistaken_for_refusal(self, monkeypatch):
        # only the oracle's typed refusal is reported; any other error propagates
        def broken(lat):
            raise ValueError("bug in a check")

        monkeypatch.setattr(cli, "_covers_pass_neighbour_test", broken)
        with pytest.raises(ValueError, match="bug in a check"):
            run(["validate", "ninapro-abc"])


class TestContextLoading:
    def test_file_path(self, tmp_path, capsys):
        path = tmp_path / "ctx.csv"
        path.write_text(",m1,m2\ng1,1,0\ng2,1,1\n", encoding="utf-8")
        code, out, _ = invoke(capsys, "concepts", str(path), "--format", "json")
        assert code == 0
        assert len(json.loads(out)) == 2

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "concepts", "/nonexistent/ctx.csv")
        assert code == 2
        assert err

    def test_unopenable_path(self, capsys):
        # open() raises ValueError, not OSError, for these paths
        for path in ("a\x00b", "a\ud800b"):
            code, out, err = invoke(capsys, "concepts", path)
            assert code == 2
            assert out == ""
            assert err.startswith("cannot read context: ")

    def test_undecodable_file(self, tmp_path, capsys):
        path = tmp_path / "latin.csv"
        path.write_bytes(",caf\xe9\ng1,1\n".encode("latin-1"))
        for command in ("concepts", "validate"):
            code, out, err = invoke(capsys, command, str(path))
            assert code == 2
            assert out == ""
            assert err.startswith("cannot read context: ")
            assert "utf-8" in err

    def test_byte_order_mark_file(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff,m1\ng1,1\n", encoding="utf-8")
        code, _, err = invoke(capsys, "concepts", str(path))
        assert code == 2
        assert "byte-order mark" in err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(",m1\ng1,7\n", encoding="utf-8")
        code, _, err = invoke(capsys, "concepts", str(path))
        assert code == 2
        assert "row 1" in err


class TestUsage:
    def test_no_args(self, capsys):
        assert invoke(capsys)[0] == 1

    def test_unknown_command(self, capsys):
        assert invoke(capsys, "frobnicate")[0] == 1

    def test_bad_format_value(self, capsys):
        code, _, err = invoke(capsys, "concepts", "ninapro-abc", "--format", "yaml")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        assert invoke(capsys, "--help")[0] == 0


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fca_spaces.cli", "corpus", "ninapro-abc"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == golden_csv("ninapro-abc")
