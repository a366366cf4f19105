import json
import subprocess
import sys

import pytest

from gpcover.cli import main
from gpcover.graphs import decode_graph6
from gpcover.families import GpParams, gp, h_graph, lcf, c_plus
from gpcover.oracle import is_isomorphic


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommand:
    def test_12_5(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "12", "--k", "5")
        assert code == 0
        assert out.strip() == "B1: quotient C+(12,5), involution α⁶γ"

    def test_not_bipartite(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "11", "--k", "2")
        assert code == 0
        assert out.strip() == "NotBipartite: not a Kronecker cover"

    def test_10_3(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "10", "--k", "3")
        assert code == 0
        assert "GP(5,2)" in out and "H" in out and "Δ" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "24", "--k", "7", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "B2"
        assert payload["quotients"] == ["C-(24,7)"]
        assert payload["involutions"] == ["α¹²βγ"]

    def test_ascii(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "24", "--k", "7", "--ascii")
        assert code == 0
        assert "a^12*b*g" in out

    def test_domain_error_exit_1(self, capsys):
        code, _, err = run(capsys, "classify", "--n", "4", "--k", "2")
        assert code == 1
        assert "k < n/2" in err

    def test_usage_error_exit_2(self, capsys):
        code, _, err = run(capsys, "classify", "--n", "12")
        assert code == 2


class TestQuotientCommand:
    def test_canonical_quotient(self, capsys):
        code, out, _ = run(capsys, "quotient", "--n", "6", "--k", "1")
        assert code == 0
        assert is_isomorphic(decode_graph6(out.strip()), gp(GpParams(3, 1)))

    def test_family_member(self, capsys):
        code, out, _ = run(capsys, "quotient", "--n", "12", "--k", "5", "--a", "2")
        assert code == 0
        assert is_isomorphic(decode_graph6(out.strip()), lcf(c_plus(GpParams(12, 5))))

    def test_delta(self, capsys):
        code, out, _ = run(capsys, "quotient", "--n", "10", "--k", "3", "--delta")
        assert code == 0
        assert is_isomorphic(decode_graph6(out.strip()), h_graph())

    def test_10_3_default_is_petersen(self, capsys):
        code, out, _ = run(capsys, "quotient", "--n", "10", "--k", "3")
        assert code == 0
        assert is_isomorphic(decode_graph6(out.strip()), gp(GpParams(5, 2)))

    def test_a_case_half_turn_shift(self, capsys):
        code, out, _ = run(capsys, "quotient", "--n", "18", "--k", "5", "--a", "9")
        assert code == 0
        assert is_isomorphic(decode_graph6(out.strip()), gp(GpParams(9, 4)))

    def test_no_cover_is_domain_error(self, capsys):
        code, _, err = run(capsys, "quotient", "--n", "24", "--k", "5")
        assert code == 1
        assert "not a Kronecker cover" in err

    def test_8_3_refused(self, capsys):
        code, _, err = run(capsys, "quotient", "--n", "8", "--k", "3")
        assert code == 1
        assert "no covering involution" in err

    def test_bad_shift(self, capsys):
        code, _, err = run(capsys, "quotient", "--n", "12", "--k", "5", "--a", "3")
        assert code == 1
        assert "family" in err

    def test_dot_output(self, capsys, tmp_path):
        path = tmp_path / "q.dot"
        code, out, _ = run(
            capsys, "quotient", "--n", "6", "--k", "1", "--dot", str(path)
        )
        assert code == 0
        assert path.read_text().startswith("graph G {")


class TestKcCommand:
    def test_gp_input(self, capsys):
        code, out, _ = run(capsys, "kc", "--gp", "5,2")
        assert code == 0
        assert is_isomorphic(decode_graph6(out.strip()), gp(GpParams(10, 3)))

    def test_g6_input(self, capsys):
        code, out, _ = run(capsys, "kc", "--g6", "C~")  # K4 -> the cube
        assert code == 0
        assert is_isomorphic(decode_graph6(out.strip()), gp(GpParams(4, 1)))

    def test_bad_gp_value(self, capsys):
        code, _, err = run(capsys, "kc", "--gp", "5;2")
        assert code == 1

    def test_requires_exactly_one_input(self, capsys):
        code, _, _ = run(capsys, "kc")
        assert code == 2


class TestCensusCommand:
    def test_stdout_csv(self, capsys):
        code, out, _ = run(capsys, "census", "--max-n", "8")
        assert code == 0
        assert out.splitlines()[0].startswith("n,k,case")

    def test_out_csv(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code, _, err = run(
            capsys, "census", "--max-n", "10", "--oracle", "--out", str(path)
        )
        assert code == 0
        assert "wrote" in err
        assert path.read_text().startswith("n,k,case")

    def test_out_json(self, capsys, tmp_path):
        path = tmp_path / "rows.json"
        code, _, _ = run(capsys, "census", "--max-n", "8", "--out", str(path))
        assert code == 0
        assert json.loads(path.read_text())

    def test_bad_extension(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "census", "--max-n", "8", "--out", str(tmp_path / "rows.txt")
        )
        assert code == 1


class TestVerifyCommand:
    def test_passes_small(self, capsys):
        code, out, err = run(capsys, "verify", "--max-n", "10")
        assert code == 0
        assert "PASS GP(10,3) class_count" in out
        assert "checks passed" in out
        assert "(8,3)" in err  # documented note goes to stderr

    @pytest.mark.parametrize("value", ["abc", "-5"])
    def test_bad_oracle_bound_exit_1(self, capsys, monkeypatch, value):
        monkeypatch.setenv("GPCOVER_ORACLE_BOUND", value)
        code, out, err = run(capsys, "verify", "--max-n", "6")
        assert code == 1
        assert out == ""
        assert "GPCOVER_ORACLE_BOUND" in err and repr(value) in err


class TestExportCommand:
    def test_h(self, capsys):
        code, out, _ = run(capsys, "export", "--family", "h")
        assert code == 0
        assert decode_graph6(out.strip()).vertex_count == 10

    def test_gp(self, capsys):
        code, out, _ = run(capsys, "export", "--family", "gp", "--n", "7", "--k", "2")
        assert code == 0
        assert decode_graph6(out.strip()) == gp(GpParams(7, 2))

    def test_cminus_8_3_degenerate_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "export", "--family", "cminus", "--n", "8", "--k", "3"
        )
        assert code == 1
        assert "zero jump" in err

    def test_missing_params(self, capsys):
        code, _, err = run(capsys, "export", "--family", "gp")
        assert code == 1
        assert "requires" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gpcover", "classify", "--n", "6", "--k", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "A1" in proc.stdout
