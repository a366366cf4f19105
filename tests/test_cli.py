import hashlib
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from gpcover import cli
from gpcover.cli import main
from gpcover.graphs import decode_graph6
from gpcover.families import GpParams, gp, h_graph
from gpcover.classify import Case, QuotientDesc, classify
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
        code, out, _ = run(capsys, "classify", "--n", "8", "--k", "3")
        assert code == 0
        assert out.strip() == "Exceptional_8_3: not a Kronecker cover"

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
        code, out, _ = run(capsys, "classify", "--n", "8", "--k", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "Exceptional_8_3"
        assert payload["quotients"] == [] and payload["involutions"] == []

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
        assert is_isomorphic(decode_graph6(out.strip()), QuotientDesc("cplus", 12, 5).materialize())

    def test_delta(self, capsys):
        code, out, _ = run(capsys, "quotient", "--n", "10", "--k", "3", "--delta")
        assert code == 0
        assert is_isomorphic(decode_graph6(out.strip()), h_graph())

    def test_delta_off_desargues_is_domain_error(self, capsys):
        code, out, err = run(capsys, "quotient", "--n", "12", "--k", "5", "--delta")
        assert code == 1
        assert out == ""
        assert err == "error: --delta applies only to GP(10,3)\n"

    def test_delta_with_shift_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "quotient", "--n", "10", "--k", "3", "--delta", "--a", "2"
        )
        assert code == 2
        assert out == ""
        assert "--a" in err and "--delta" in err

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

    @pytest.mark.parametrize("argv,message", [
        (["--n", "1000000", "--k", "3"],
         "GP(1000000,3) is not a Kronecker cover (NoCover): no covering involution, no quotient"),
        (["--n", "12", "--k", "5", "--a", "3"], "shift 3 not in the involution family [2, 6, 10]"),
        (["--n", "12", "--k", "5", "--delta"], "--delta applies only to GP(10,3)"),
    ], ids=["no-cover", "bad-shift", "delta-off-desargues"])
    def test_refused_before_the_graph_is_built(self, capsys, monkeypatch, argv, message):
        # classify decides in closed form, so a refusal never waits for, or
        # runs out of memory on, a GP(n,k) it does not need.
        def unbuilt(p):
            raise AssertionError(f"GP({p.n},{p.k}) built for a refused quotient")

        monkeypatch.setattr(cli, "gp", unbuilt)
        code, out, err = run(capsys, "quotient", *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("n, k, a", [(18, 5, 9), (12, 5, 6), (10, 3, 5)],
                             ids=["A2", "B1", "desargues"])
    def test_canonical_shift_is_the_default(self, capsys, n, k, a):
        default = run(capsys, "quotient", "--n", str(n), "--k", str(k))
        chosen = run(capsys, "quotient", "--n", str(n), "--k", str(k), "--a", str(a))
        assert default == chosen and default[0] == 0

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

    @pytest.mark.parametrize("value", ["5", "5,2,1", "five,2"])
    def test_bad_gp_value_names_the_expected_shape(self, capsys, value):
        code, out, err = run(capsys, "kc", "--gp", value)
        assert code == 1
        assert out == ""
        assert err == f"error: bad --gp value {value!r}: expected N,K, two integers\n"

    def test_gp_value_out_of_range_keeps_its_reason(self, capsys):
        code, _, err = run(capsys, "kc", "--gp", "4,2")
        assert code == 1
        assert "k < n/2" in err

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

    def test_bad_extension(self, capsys, tmp_path, monkeypatch):
        # Refused before the sweep starts, not after it.
        def sweep(*args, **kwargs):
            raise AssertionError("the census sweep was started")

        monkeypatch.setattr(cli, "census", sweep)
        path = tmp_path / "rows.txt"
        code, out, err = run(capsys, "census", "--max-n", "60", "--oracle", "--out", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: --out must end in .csv or .json, got {str(path)!r}\n"
        assert not path.exists()

    def test_unwritable_out_refused_before_the_sweep(self, capsys, tmp_path, monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("the census sweep was started")

        monkeypatch.setattr(cli, "census", sweep)
        path = tmp_path / "missing" / "rows.csv"
        code, out, err = run(capsys, "census", "--max-n", "40", "--oracle", "--out", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {path}: No such file or directory\n"

    def test_failed_sweep_leaves_out_files_as_they_were(self, capsys, tmp_path):
        # The early check neither truncates an existing file nor leaves a
        # new empty one behind when the sweep then fails.
        kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
        kept.write_text("earlier rows\n")
        for path in (kept, fresh):
            code, out, err = run(capsys, "census", "--max-n", "62", "--oracle", "--out", str(path))
            assert (code, out) == (1, "")
            assert "oracle bound is 120" in err
        assert kept.read_text() == "earlier rows\n"
        assert not fresh.exists()

    @pytest.mark.parametrize("jobs", ["0", "-4", "two"])
    def test_bad_jobs_is_usage_error(self, capsys, jobs):
        code, out, err = run(capsys, "census", "--max-n", "8", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert "--jobs" in err

    @pytest.mark.parametrize("argv,option", [
        (["--max-n", "2"], "--max-n"),
        (["--max-n", "-1", "--oracle"], "--max-n"),
        (["--min-n", "30", "--max-n", "10", "--oracle"], "--min-n"),
        (["--min-n", "11", "--max-n", "10"], "--min-n"),
    ])
    def test_empty_sweep_is_usage_error(self, capsys, argv, option):
        code, out, err = run(capsys, "census", *argv)
        assert code == 2
        assert out == ""
        assert option in err

    @pytest.mark.parametrize("argv,span", [
        (["--max-n", "3"], "--min-n 3 --max-n 3"),
        (["--min-n", "61", "--max-n", "61", "--oracle"], "--min-n 61 --max-n 61"),
    ])
    def test_range_without_bipartite_rows_is_usage_error(self, capsys, argv, span):
        code, out, err = run(capsys, "census", *argv)
        assert code == 2
        assert out == ""
        assert span in err and "--all-rows" in err

    def test_odd_range_with_all_rows(self, capsys):
        code, out, _ = run(capsys, "census", "--max-n", "3", "--all-rows")
        assert code == 0
        assert [line.split(",")[:2] for line in out.splitlines()[1:]] == [["3", "1"]]

    def test_single_n_sweep(self, capsys):
        code, out, _ = run(capsys, "census", "--min-n", "10", "--max-n", "10")
        assert code == 0
        assert [line.split(",")[:2] for line in out.splitlines()[1:]] == [
            ["10", "1"], ["10", "3"],
        ]

    @pytest.mark.parametrize("argv", [
        ["--max-n", "61", "--oracle", "--all-rows"],
        ["--max-n", "62", "--oracle"],
    ])
    def test_past_oracle_bound_exit_1(self, capsys, argv):
        code, out, err = run(capsys, "census", *argv)
        assert code == 1
        assert out == ""
        assert "oracle bound is 120" in err and "GPCOVER_ORACLE_BOUND" in err


class TestVerifyCommand:
    def test_passes_small(self, capsys):
        code, out, err = run(capsys, "verify", "--max-n", "10")
        assert code == 0
        assert "PASS GP(10,3) class_count" in out
        assert "checks passed" in out
        assert "(8,3)" in err  # documented note goes to stderr

    def test_pinned_small_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "22")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b7866523f25fc94aae29eceaba1aba91133ef41c1469c90a1b0a9524f6105131"
        )

    def test_full_oracle_bound(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "60")
        assert code == 0
        assert out.splitlines()[-1] == "2008/2008 checks passed"
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e9bebf7dabb02fa9081665ee621d99a1975bcd54d4a261f672a5e5e25d0f8a15"
        )

    @pytest.mark.parametrize("argv,option", [
        (["--max-n", "2"], "--max-n"),
        (["--max-n", "-1"], "--max-n"),
        (["--max-n", "10", "--jobs", "0"], "--jobs"),
        (["--max-n", "10", "--jobs", "-4"], "--jobs"),
    ])
    def test_bad_sweep_arguments_are_usage_errors(self, capsys, argv, option):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert option in err

    def test_past_oracle_bound_exit_1(self, capsys):
        code, out, err = run(capsys, "verify", "--max-n", "61")
        assert code == 1
        assert out == ""
        assert "122 vertices, oracle bound is 120" in err
        assert "GPCOVER_ORACLE_BOUND" in err

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

    def test_cplus_odd_n_is_domain_error(self, capsys):
        code, out, err = run(capsys, "export", "--family", "cplus", "--n", "7", "--k", "2")
        assert (code, out) == (1, "")
        assert err == "error: n must be even, got 7\n"

    def test_b_quotients_pinned(self, capsys):
        # The concatenated graph6 of C+/C-(n,k) for every B1/B2 instance with
        # n <= 60, as exported before C+/C- were rebuilt on the family rule.
        out = []
        for n in range(4, 61, 4):
            for k in range(1, (n - 1) // 2 + 1, 2):
                case = classify(GpParams(n, k)).case
                if case in (Case.B1, Case.B2):
                    family = "cplus" if case is Case.B1 else "cminus"
                    code, text, _ = run(capsys, "export", "--family", family,
                                        "--n", str(n), "--k", str(k))
                    assert code == 0, (n, k)
                    out.append(text)
        assert len(out) == 28
        assert hashlib.sha256("".join(out).encode()).hexdigest() == (
            "fe7b19261e493ffa5aec446b27955dd781a288e0e357c47add4e27328e1271ee"
        )

    def test_missing_params(self, capsys):
        code, _, err = run(capsys, "export", "--family", "gp")
        assert code == 1
        assert "requires" in err

    @pytest.mark.parametrize(
        "params", [["--n", "5", "--k", "2"], ["--n", "5"], ["--k", "2"]],
        ids=["n-and-k", "n", "k"],
    )
    def test_h_refuses_params(self, capsys, params):
        code, out, err = run(capsys, "export", "--family", "h", *params)
        assert code == 1
        assert out == ""
        assert err == "error: --family h takes no --n or --k\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["quotient", "--n", "10", "--k", "3", "--dot"],
        ["export", "--family", "h", "--dot"],
        ["census", "--max-n", "8", "--out"],
    ],
    ids=["quotient", "export", "census"],
)
def test_unwritable_output_path_is_one_error_line(capsys, tmp_path, argv):
    path = tmp_path / "missing" / ("out.csv" if argv[0] == "census" else "out.dot")
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"


def run_with_1gib_limit(env, *argv):
    """The CLI on argv in a child process under a 1 GiB address-space
    limit, which is set in the child process only."""
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
             "from gpcover.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    return subprocess.run(
        [sys.executable, "-c", child, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


def test_out_of_memory_is_one_error_line(child_env):
    proc = run_with_1gib_limit(child_env, "export", "--family", "gp", "--n", "10000000", "--k", "3")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: export --n 10000000: out of memory\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--max-n", "100000"],
    ["census", "--max-n", "100000", "--oracle"],
], ids=["verify", "census"])
def test_a_sweep_far_past_the_bound_is_refused_before_its_keys_are_listed(child_env, argv):
    # Listing the 2.5e9 pairs first would run out of memory under this limit.
    env = {k: v for k, v in child_env.items() if k != "GPCOVER_ORACLE_BOUND"}
    proc = run_with_1gib_limit(env, *argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "graph has 200000 vertices, oracle bound is 120" in proc.stderr


def test_module_entry_point(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "gpcover", "classify", "--n", "6", "--k", "1"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert "A1" in proc.stdout


def readme_cli_lines():
    """The ``gpcover ...`` lines of the README's ## CLI block, as (argv,
    comment) with comment the text after the line's ``#``, or ""."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.splitlines():
        command, _, comment = re.match(r"(.*?)(\s+#\s*(.*))?$", line).groups()
        argv = shlex.split(command)
        assert argv[0] == "gpcover", line
        lines.append((argv[1:], comment or ""))
    assert lines
    return lines


README_CLI_LINES = readme_cli_lines()


@pytest.mark.parametrize("argv,comment", README_CLI_LINES,
                         ids=[" ".join(argv) for argv, _ in README_CLI_LINES])
def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch, argv, comment):
    # Each example exits 0; a plain classify line's comment is its stdout.
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    if argv[0] == "classify" and len(argv) == 5:
        assert out == comment + "\n"
