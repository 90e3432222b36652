import dataclasses
import json

import pytest

import factorbench.cli
from factorbench.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFactorCommand:
    def test_pollard_8051(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "8051", "--algo", "pollard", "--seed", "7")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "8051 = 83 * 97"
        assert lines[1].startswith("elapsed_seconds ")

    def test_prime_input(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "613")
        assert code == 2
        assert "prime" in out

    def test_qs_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "400289", "--algo", "qs", "--b", "7", "--m", "1")
        assert code == 0
        assert out.splitlines()[0] == "400289 = 613 * 653"

    def test_malformed_number(self, capsys):
        code, _, err = run_cli(capsys, "factor", "twelve")
        assert code == 1

    def test_below_two(self, capsys):
        code, _, _ = run_cli(capsys, "factor", "1")
        assert code == 1

    def test_timeout_exit_code(self, capsys):
        # 60-bit balanced semiprime; the sieve cannot finish in 10 ms
        n = 946613331739179941  # 958788427 * 987301583
        assert 958788427 * 987301583 == n
        code, out, _ = run_cli(capsys, "factor", str(n), "--algo", "qs", "--timeout", "0.01")
        assert code == 3
        assert "timeout" in out

    def test_auto_picks_pollard_below_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "8051", "--seed", "1")
        assert code == 0
        assert out.splitlines()[0] == "8051 = 83 * 97"

    def test_auto_threshold_routes_to_sieve(self, capsys):
        # 8051 is 13 bits; a threshold of 4 forces the sieve path
        code, out, _ = run_cli(capsys, "factor", "8051", "--auto-threshold", "4")
        assert code == 0
        assert out.splitlines()[0] == "8051 = 83 * 97"

    def test_perfect_square_completes(self, capsys):
        code, out, _ = run_cli(capsys, "factor", str(101 * 101), "--algo", "qs")
        assert code == 0
        assert out.splitlines()[0] == "10201 = 101 * 101"

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "factor", "8051", "--bogus")
        assert code == 1

    def test_env_seed_used(self, capsys, monkeypatch):
        monkeypatch.setenv("FACTORBENCH_SEED", "7")
        code, out, _ = run_cli(capsys, "factor", "8051", "--algo", "pollard")
        assert code == 0
        assert out.splitlines()[0] == "8051 = 83 * 97"

    def test_invalid_env_seed_reported(self, capsys, monkeypatch):
        monkeypatch.setenv("FACTORBENCH_SEED", "abc")
        code, out, err = run_cli(capsys, "factor", "8051", "--algo", "pollard")
        assert code == 1
        assert out == ""
        assert "FACTORBENCH_SEED" in err and "'abc'" in err

    def test_smooth_bound_below_two_rejected(self, capsys):
        code, out, err = run_cli(capsys, "factor", "8051", "--algo", "qs", "--b", "1")
        assert code == 1
        assert out == ""
        assert "b_bound" in err

    def test_empty_window_rejected(self, capsys):
        code, out, err = run_cli(capsys, "factor", "8051", "--algo", "qs", "--m", "0")
        assert code == 1
        assert out == ""
        assert "m_count" in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_timeout_rejected(self, capsys, value):
        code, out, err = run_cli(capsys, "factor", "8051", "--algo", "qs", f"--timeout={value}")
        assert code == 1
        assert out == ""
        assert "timeout must be positive" in err


class TestGenDatasetCommand:
    def write_spec(self, tmp_path, doc):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_generates_and_counts(self, capsys, tmp_path):
        spec = self.write_spec(
            tmp_path, {"seed": 3, "groups": [{"count": 4, "p_bits": 8, "q_bits": 12, "n_bits": 20}]}
        )
        out_csv = str(tmp_path / "data.csv")
        code, out, _ = run_cli(capsys, "gen-dataset", "--spec", spec, "--out", out_csv)
        assert code == 0
        assert "4 semiprimes" in out
        lines = open(out_csv).read().splitlines()
        assert len(lines) == 5

    def test_same_seed_identical_files(self, capsys, tmp_path):
        spec = self.write_spec(
            tmp_path, {"seed": 3, "groups": [{"count": 3, "p_bits": 8, "q_bits": 12, "n_bits": 20}]}
        )
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run_cli(capsys, "gen-dataset", "--spec", spec, "--out", a)[0] == 0
        assert run_cli(capsys, "gen-dataset", "--spec", spec, "--out", b)[0] == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_invalid_bit_sum_rejected(self, capsys, tmp_path):
        spec = self.write_spec(
            tmp_path, {"seed": 3, "groups": [{"count": 1, "p_bits": 8, "q_bits": 12, "n_bits": 21}]}
        )
        code, _, err = run_cli(capsys, "gen-dataset", "--spec", spec, "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "invalid dataset spec" in err

    def test_missing_spec_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "gen-dataset", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.csv")
        )
        assert code == 1

    def test_unwritable_out(self, capsys, tmp_path):
        spec = self.write_spec(
            tmp_path, {"seed": 3, "groups": [{"count": 1, "p_bits": 8, "q_bits": 12, "n_bits": 20}]}
        )
        out_csv = tmp_path / "no-such-dir" / "x.csv"
        code, out, err = run_cli(capsys, "gen-dataset", "--spec", spec, "--out", str(out_csv))
        assert code == 1
        assert out == ""
        assert "cannot write" in err

    def test_undrawable_group_reported(self, capsys, tmp_path):
        # 3 is the only 2-bit prime, so no product of two distinct ones exists
        spec = self.write_spec(
            tmp_path, {"seed": 1, "groups": [{"count": 1, "p_bits": 2, "q_bits": 2, "n_bits": 4}]}
        )
        out_csv = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "gen-dataset", "--spec", spec, "--out", str(out_csv))
        assert code == 1
        assert out == ""
        assert "cannot generate" in err
        assert not out_csv.exists()

    def test_env_seed_ignored(self, capsys, tmp_path, monkeypatch):
        spec = self.write_spec(
            tmp_path, {"seed": 3, "groups": [{"count": 3, "p_bits": 8, "q_bits": 12, "n_bits": 20}]}
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, "gen-dataset", "--spec", spec, "--out", str(a))[0] == 0
        monkeypatch.setenv("FACTORBENCH_SEED", "5")
        assert run_cli(capsys, "gen-dataset", "--spec", spec, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()


class TestBenchCommand:
    @pytest.fixture
    def dataset(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({"seed": 5, "groups": [{"count": 5, "p_bits": 9, "q_bits": 11, "n_bits": 20}]})
        )
        out_csv = str(tmp_path / "data.csv")
        assert main(["gen-dataset", "--spec", str(spec), "--out", out_csv]) == 0
        capsys.readouterr()
        return out_csv

    def test_single_algorithm_row_count(self, capsys, tmp_path, dataset):
        results = str(tmp_path / "results.csv")
        code, out, _ = run_cli(
            capsys, "bench", "--dataset", dataset, "--out", results, "--algos", "pollard", "--seed", "1"
        )
        assert code == 0
        assert "5 records" in out
        assert "pollard: success=5 timeout=0 error=0" in out
        assert len(open(results).read().splitlines()) == 6

    def test_rerun_same_seed_same_statuses(self, capsys, tmp_path, dataset):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "bench", "--dataset", dataset, "--out", path, "--seed", "9",
                "--timeout", "30",
            )
            assert code == 0
        strip = lambda p: [
            ",".join(v for i, v in enumerate(line.split(",")) if i != 9)
            for line in open(p).read().splitlines()
        ]
        assert strip(a) == strip(b)

    def test_unknown_algorithm_rejected(self, capsys, tmp_path, dataset):
        code, _, err = run_cli(
            capsys, "bench", "--dataset", dataset, "--out", str(tmp_path / "r.csv"), "--algos", "fermat"
        )
        assert code == 1
        assert "unknown algorithms" in err

    def test_missing_dataset(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "bench", "--dataset", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "r.csv")
        )
        assert code == 1

    def test_empty_algorithm_list_rejected(self, capsys, tmp_path, dataset):
        code, _, err = run_cli(
            capsys, "bench", "--dataset", dataset, "--out", str(tmp_path / "r.csv"), "--algos", ","
        )
        assert code == 1
        assert "unknown algorithms" in err

    @pytest.mark.parametrize(
        "flag, value, message", [("--workers", "0", "workers"), ("--timeout", "0", "budget")]
    )
    def test_invalid_config_rejected(self, capsys, tmp_path, dataset, flag, value, message):
        results = tmp_path / "r.csv"
        code, out, err = run_cli(
            capsys, "bench", "--dataset", dataset, "--out", str(results), flag, value
        )
        assert code == 1
        assert out == ""
        assert message in err
        assert not results.exists()

    def test_invalid_env_seed_reported(self, capsys, tmp_path, dataset, monkeypatch):
        monkeypatch.setenv("FACTORBENCH_SEED", "abc")
        results = tmp_path / "r.csv"
        code, _, err = run_cli(capsys, "bench", "--dataset", dataset, "--out", str(results))
        assert code == 1
        assert "FACTORBENCH_SEED" in err
        assert not results.exists()

    def test_violation_writes_nothing(self, capsys, tmp_path, dataset, monkeypatch):
        real_run_bench = factorbench.cli.run_bench

        def tampered_run_bench(*args, **kwargs):
            records = real_run_bench(*args, **kwargs)
            first = records[0]
            bad = dataclasses.replace(first.outcome, factor=first.outcome.factor + 1)
            return [dataclasses.replace(first, outcome=bad)] + records[1:]

        monkeypatch.setattr(factorbench.cli, "run_bench", tampered_run_bench)
        results = tmp_path / "r.csv"
        code, out, err = run_cli(
            capsys, "bench", "--dataset", dataset, "--out", str(results), "--algos", "pollard"
        )
        assert code == 1
        assert "record 0" in err
        assert "records written" not in out
        assert not results.exists()


class TestReportCommand:
    @pytest.fixture
    def results(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({"seed": 6, "groups": [{"count": 3, "p_bits": 9, "q_bits": 11, "n_bits": 20}]})
        )
        data = str(tmp_path / "data.csv")
        results = str(tmp_path / "results.csv")
        assert main(["gen-dataset", "--spec", str(spec), "--out", data]) == 0
        assert main(["bench", "--dataset", data, "--out", results, "--seed", "2"]) == 0
        capsys.readouterr()
        return results

    def test_full_report(self, capsys, tmp_path, results):
        out_md = str(tmp_path / "report.md")
        code, out, _ = run_cli(capsys, "report", "--results", results, "--out", out_md)
        assert code == 0
        doc = open(out_md).read()
        for heading in (
            "Failure counts",
            "Success rate",
            "Mean runtime",
            "quadratic sieve beat",
            "Predicted cost",
        ):
            assert heading in doc

    def test_single_table_selection(self, capsys, tmp_path, results):
        out_md = str(tmp_path / "report.md")
        code, _, _ = run_cli(capsys, "report", "--results", results, "--out", out_md, "--tables", "avg-runtime")
        assert code == 0
        doc = open(out_md).read()
        assert "Mean runtime" in doc
        assert "Failure counts" not in doc

    def test_unknown_table_rejected(self, capsys, tmp_path, results):
        code, _, err = run_cli(
            capsys, "report", "--results", results, "--out", str(tmp_path / "r.md"), "--tables", "bogus"
        )
        assert code == 1
        assert "failure-counts" in err  # error lists the valid names

    def test_points_csv_export(self, capsys, tmp_path, results):
        out_md = str(tmp_path / "report.md")
        points = str(tmp_path / "points.csv")
        code, _, _ = run_cli(
            capsys, "report", "--results", results, "--out", out_md, "--points-csv", points
        )
        assert code == 0
        lines = open(points).read().splitlines()
        assert lines[0] == "n_bits,algorithm,elapsed_seconds,status"
        assert len(lines) == 7  # header + 3 semiprimes x 2 algorithms

    def test_empty_table_list_rejected(self, capsys, tmp_path, results):
        out_md = tmp_path / "r.md"
        code, _, err = run_cli(
            capsys, "report", "--results", results, "--out", str(out_md), "--tables", ","
        )
        assert code == 1
        assert "failure-counts" in err
        assert not out_md.exists()

    def test_unwritable_out(self, capsys, tmp_path, results):
        out_md = tmp_path / "no-such-dir" / "report.md"
        code, out, err = run_cli(capsys, "report", "--results", results, "--out", str(out_md))
        assert code == 1
        assert out == ""
        assert "cannot write" in err

    def test_unwritable_points_csv(self, capsys, tmp_path, results):
        points = tmp_path / "no-such-dir" / "points.csv"
        code, out, err = run_cli(
            capsys, "report", "--results", results, "--out", str(tmp_path / "r.md"),
            "--points-csv", str(points),
        )
        assert code == 1
        assert out == ""
        assert "cannot write" in err

    def test_empty_results_file(self, capsys, tmp_path):
        from factorbench.bench import RESULTS_CSV_HEADER

        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(RESULTS_CSV_HEADER) + "\n")
        out_md = str(tmp_path / "report.md")
        code, _, _ = run_cli(capsys, "report", "--results", str(empty), "--out", out_md)
        assert code == 0
        assert "no data" in open(out_md).read()


class TestParser:
    def test_no_command_is_usage_error(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_unknown_command_is_usage_error(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1
