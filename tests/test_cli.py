import csv
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import factorbench.bench
import factorbench.cli
from factorbench.bench import RESULTS_CSV_HEADER, STATUSES
from factorbench.cli import EXIT_CODES, main
from factorbench.pollard import RhoTrace


RESULTS_FIXTURE = Path(__file__).parent / "data" / "results_fixture.csv"
DATASET_HEADER = "n,p,q,p_bits,q_bits,n_bits\n"
RESULTS_HEADER = ",".join(RESULTS_CSV_HEADER) + "\n"


def _write_spec(path, seed, p_bits, q_bits, n_bits, count=1):
    """Writes a dataset spec of one fixed group to `path`; returns the path."""
    group = {"count": count, "p_bits": p_bits, "q_bits": q_bits, "n_bits": n_bits}
    path.write_text(json.dumps({"seed": seed, "groups": [group]}))
    return str(path)


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
        code, out, _ = run_cli(capsys, "factor", "400289", "--algo", "qs")
        assert code == 0
        assert out.splitlines()[0] == "400289 = 613 * 653"

    def test_malformed_number(self, capsys):
        code, _, err = run_cli(capsys, "factor", "twelve")
        assert code == 1

    def test_below_two(self, capsys):
        code, _, _ = run_cli(capsys, "factor", "1")
        assert code == 1

    def test_timeout_exit_code(self, capsys, expire_after):
        # 60-bit balanced semiprime; the sieve can finish in about 10 ms, and
        # polls the deadline about 900 times, so the clock runs the budget
        # out at its 100th read
        n = 946613331739179941  # 958788427 * 987301583
        expire_after(100)
        assert 958788427 * 987301583 == n
        code, out, _ = run_cli(capsys, "factor", str(n), "--algo", "qs", "--timeout", "0.01")
        assert code == 3
        assert "timeout" in out

    def test_auto_picks_pollard_below_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "8051", "--seed", "1")
        assert code == 0
        assert out.splitlines()[0] == "8051 = 83 * 97"

    def test_auto_sends_80_bits_to_sieve(self, capsys, monkeypatch):
        # 3 times a 79-bit prime: the sieve's first round returns 3
        n = 906694364710971881029653
        assert n.bit_length() == 80 >= factorbench.cli.DEFAULT_AUTO_THRESHOLD_BITS
        calls = []
        real_qs_factor = factorbench.bench.qs_factor

        def spy(*args):
            calls.append(args[0])
            return real_qs_factor(*args)

        monkeypatch.setattr(factorbench.bench, "qs_factor", spy)
        code, out, _ = run_cli(capsys, "factor", str(n))
        assert (code, calls) == (0, [n])
        assert out.splitlines()[0] == f"{n} = 3 * 302231454903657293676551"

    def test_perfect_square_completes(self, capsys):
        code, out, _ = run_cli(capsys, "factor", str(101 * 101), "--algo", "qs")
        assert code == 0
        assert out.splitlines()[0] == "10201 = 101 * 101"

    def test_round_cap_gives_up(self, capsys):
        # 56 bits: the default sieve schedule stops at its 500-round cap
        code, out, _ = run_cli(capsys, "factor", "49188180397635527", "--algo", "qs")
        assert code == 3
        assert out.startswith("gave up")

    def test_bad_factor_reported(self, capsys, monkeypatch):
        _bad_factor(monkeypatch)
        code, out, err = run_cli(capsys, "factor", "8051", "--algo", "pollard")
        assert code == 1
        assert out == ""
        assert err == "error: pollard returned an invalid factor of 8051\n"

    def test_exit_codes_cover_every_status(self):
        assert set(EXIT_CODES) == set(STATUSES)

    def test_unknown_flag_rejected(self, capsys):
        # auto's threshold is the constant DEFAULT_AUTO_THRESHOLD_BITS, and the
        # sieve runs at QsParams()'s defaults: neither is an option
        for flags in (["--bogus"], ["--auto-threshold", "4"], ["--b", "7"], ["--m", "1"]):
            code, out, err = run_cli(capsys, "factor", "8051", *flags)
            assert (code, out) == (1, "")
            assert f"unrecognized arguments: {' '.join(flags)}" in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_timeout_rejected(self, capsys, value):
        code, out, err = run_cli(capsys, "factor", "8051", "--algo", "qs", f"--timeout={value}")
        assert code == 1
        assert out == ""
        assert "budget_seconds must be positive" in err

    def test_nan_timeout_rejected(self, capsys):
        code, out, err = run_cli(capsys, "factor", "8051", "--algo", "pollard", "--timeout", "nan")
        assert code == 1
        assert out == ""
        assert "budget_seconds must be positive" in err


class TestGenDatasetCommand:
    def test_generates_and_counts(self, capsys, tmp_path):
        spec = _write_spec(tmp_path / "spec.json", 3, 8, 12, 20, count=4)
        out_csv = str(tmp_path / "data.csv")
        code, out, _ = run_cli(capsys, "gen-dataset", "--spec", spec, "--out", out_csv)
        assert code == 0
        assert "4 semiprimes" in out
        lines = open(out_csv).read().splitlines()
        assert len(lines) == 5

    def test_same_seed_identical_files(self, capsys, tmp_path):
        spec = _write_spec(tmp_path / "spec.json", 3, 8, 12, 20, count=3)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run_cli(capsys, "gen-dataset", "--spec", spec, "--out", a)[0] == 0
        assert run_cli(capsys, "gen-dataset", "--spec", spec, "--out", b)[0] == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_invalid_bit_sum_rejected(self, capsys, tmp_path):
        spec = _write_spec(tmp_path / "spec.json", 3, 8, 12, 21)
        code, _, err = run_cli(capsys, "gen-dataset", "--spec", spec, "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "invalid dataset spec" in err

    def test_missing_spec_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "gen-dataset", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.csv")
        )
        assert code == 1

    def test_unwritable_out(self, capsys, tmp_path):
        spec = _write_spec(tmp_path / "spec.json", 3, 8, 12, 20)
        out_csv = tmp_path / "no-such-dir" / "x.csv"
        code, out, err = run_cli(capsys, "gen-dataset", "--spec", spec, "--out", str(out_csv))
        assert code == 1
        assert out == ""
        assert "cannot write" in err

    def test_undrawable_group_reported(self, capsys, tmp_path):
        # 3 is the only 2-bit prime, so no product of two distinct ones exists
        spec = _write_spec(tmp_path / "spec.json", 1, 2, 2, 4)
        out_csv = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "gen-dataset", "--spec", spec, "--out", str(out_csv))
        assert code == 1
        assert out == ""
        assert "cannot generate" in err
        assert not out_csv.exists()

    def test_env_seed_ignored(self, capsys, tmp_path, monkeypatch):
        # a run's records follow from its command line: with FACTORBENCH_SEED
        # set, each command writes the CSV it writes without, but for bench's times
        spec = _write_spec(tmp_path / "spec.json", 3, 8, 12, 20, count=3)
        data = str(tmp_path / "data.csv")
        assert main(["gen-dataset", "--spec", spec, "--out", data]) == 0
        for argv in (["gen-dataset", "--spec", spec], ["bench", "--dataset", data]):
            plain, seeded = tmp_path / "plain.csv", tmp_path / "seeded.csv"
            monkeypatch.delenv("FACTORBENCH_SEED", raising=False)
            assert run_cli(capsys, *argv, "--out", str(plain))[0] == 0
            monkeypatch.setenv("FACTORBENCH_SEED", "7")
            assert run_cli(capsys, *argv, "--out", str(seeded))[0] == 0
            assert _without_times(plain) == _without_times(seeded), argv[0]


class TestBenchCommand:
    @pytest.fixture
    def dataset(self, capsys, tmp_path):
        spec = _write_spec(tmp_path / "spec.json", 5, 9, 11, 20, count=5)
        out_csv = str(tmp_path / "data.csv")
        assert main(["gen-dataset", "--spec", spec, "--out", out_csv]) == 0
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

    def test_repeated_algorithm_rejected(self, capsys, tmp_path, dataset):
        results = tmp_path / "r.csv"
        code, out, err = run_cli(
            capsys, "bench", "--dataset", dataset, "--out", str(results), "--algos", "pollard,pollard"
        )
        assert code == 1
        assert out == ""
        assert "repeated algorithms" in err
        assert not results.exists()

    def test_missing_dataset(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "bench", "--dataset", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "r.csv")
        )
        assert code == 1

    def test_composite_factor_rejected(self, capsys, tmp_path):
        dataset = tmp_path / "data.csv"
        dataset.write_text(DATASET_HEADER + "255,15,17,4,5,8\n")  # 15 = 3 * 5
        results = tmp_path / "r.csv"
        code, _, err = run_cli(capsys, "bench", "--dataset", str(dataset), "--out", str(results))
        assert code == 1
        assert "cannot read dataset" in err and "line 2: p = 15 is not prime" in err
        assert not results.exists()

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

    def test_violation_writes_nothing(self, capsys, tmp_path, dataset, monkeypatch):
        _violation(monkeypatch)
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
        spec = _write_spec(tmp_path / "spec.json", 6, 9, 11, 20, count=3)
        data = str(tmp_path / "data.csv")
        results = str(tmp_path / "results.csv")
        assert main(["gen-dataset", "--spec", spec, "--out", data]) == 0
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

    def test_unknown_flag_rejected(self, capsys, tmp_path, results):
        # every report renders all the tables
        out_md = tmp_path / "r.md"
        code, out, err = run_cli(
            capsys, "report", "--results", results, "--out", str(out_md), "--tables", "avg-runtime"
        )
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --tables avg-runtime" in err
        assert not out_md.exists()

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
        empty = tmp_path / "empty.csv"
        empty.write_text(RESULTS_HEADER)
        out_md = str(tmp_path / "report.md")
        code, _, _ = run_cli(capsys, "report", "--results", str(empty), "--out", out_md)
        assert code == 0
        assert "no data" in open(out_md).read()


class TestParser:
    def test_no_command_is_usage_error(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_unknown_command_is_usage_error(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: factorbench")

    def test_module_entry_point(self):
        src = str(Path(factorbench.cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "factorbench", "factor", "8051", "--seed", "7"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == "8051 = 83 * 97"


class _ClosingPipe:
    """A stdout whose reader closes it after the first line, as `| head -n 1`
    does: every write after the first newline raises BrokenPipeError."""

    def __init__(self, fd):
        self.text, self.fd = "", fd

    def write(self, text):
        if "\n" in self.text:
            raise BrokenPipeError(32, "Broken pipe")
        self.text += text
        return len(text)

    def flush(self):
        pass

    def fileno(self):
        return self.fd


class TestClosedStdout:
    # set in the test body: capture resumes between setup and call, and would
    # put its own stdout back over one a fixture set
    @pytest.fixture
    def pipe(self, tmp_path):
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        yield _ClosingPipe(fd)
        os.close(fd)

    def test_factor_writes_its_answer_at_once(self, capsys, monkeypatch, pipe):
        monkeypatch.setattr(sys, "stdout", pipe)
        assert main(["factor", "400289", "--algo", "qs"]) == 0
        assert re.fullmatch(r"400289 = 613 \* 653\nelapsed_seconds \d+\.\d{7}\n", pipe.text)
        assert capsys.readouterr().err == ""

    def test_bench_ends_quietly_at_the_next_write(self, capsys, monkeypatch, tmp_path, pipe):
        monkeypatch.setattr(sys, "stdout", pipe)
        data, results = tmp_path / "data.csv", tmp_path / "r.csv"
        data.write_text(DATASET_HEADER + "8051,83,97,7,7,13\n581363,29,20047,5,15,20\n")
        argv = ["bench", "--dataset", str(data), "--out", str(results), "--progress"]
        assert main(argv) == 1
        assert pipe.text.startswith("[1/4] pollard n=8051 success ")
        assert capsys.readouterr().err == ""
        assert not results.exists()
        # the closed stream's descriptor now leads to the null device, so the
        # interpreter's flush at exit has nowhere to fail
        assert os.path.samestat(os.fstat(pipe.fd), os.stat(os.devnull))


def _bad_factor(monkeypatch):
    # a factor of n itself is a bug in the algorithm: run_attempt records `error`
    monkeypatch.setattr(factorbench.bench, "pollard_factor", lambda n, cfg, budget: (n, RhoTrace()))


def _without_times(path):
    """The rows of a CSV file, less any elapsed_seconds column."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    keep = [i for i, name in enumerate(rows[0]) if name != "elapsed_seconds"]
    return [[row[i] for i in keep] for row in rows]


def _violation(monkeypatch):
    real_run_bench = factorbench.cli.run_bench

    def tampered_run_bench(*args, **kwargs):
        records = real_run_bench(*args, **kwargs)
        first = records[0]
        bad = dataclasses.replace(first.outcome, factor=first.outcome.factor + 1)
        return [dataclasses.replace(first, outcome=bad)] + records[1:]

    monkeypatch.setattr(factorbench.cli, "run_bench", tampered_run_bench)


NO_SUCH_FILE = "[Errno 2] No such file or directory: "
BUDGET = "budget_seconds must be positive\n"

# (id, argv with {tmp} for the test's directory, patch or None, exact stderr)
USAGE_FAILURES = [
    (
        "factor-bad-integer",
        ["factor", "twelve"],
        None,
        "invalid literal for int() with base 10: 'twelve'\n",
    ),
    ("factor-below-two", ["factor", "1"], None, "n must be >= 2\n"),
    ("factor-timeout-zero", ["factor", "8051", "--timeout", "0"], None, BUDGET),
    ("factor-timeout-negative", ["factor", "8051", "--timeout=-1"], None, BUDGET),
    ("factor-timeout-nan", ["factor", "8051", "--timeout", "nan"], None, BUDGET),
    (
        "factor-n-above-limit",
        ["factor", str(2**512)],
        None,
        "n_bits must be <= 512, got 513\n",
    ),
    (
        "factor-bad-factor",
        ["factor", "8051", "--algo", "pollard"],
        _bad_factor,
        "error: pollard returned an invalid factor of 8051\n",
    ),
    (
        "gen-invalid-spec",
        ["gen-dataset", "--spec", "{tmp}/bad-spec.json", "--out", "{tmp}/x.csv"],
        None,
        "invalid dataset spec {tmp}/bad-spec.json: p_bits + q_bits must equal n_bits (got 8+12 != 21)\n",
    ),
    (
        "gen-float-count",
        ["gen-dataset", "--spec", "{tmp}/float-count.json", "--out", "{tmp}/x.csv"],
        None,
        "invalid dataset spec {tmp}/float-count.json: "
        "groups[0].count must be an integer, got 1.5\n",
    ),
    (
        "gen-float-bits",
        ["gen-dataset", "--spec", "{tmp}/float-bits.json", "--out", "{tmp}/x.csv"],
        None,
        "invalid dataset spec {tmp}/float-bits.json: "
        "random_groups[0].max_product_bits must be an integer, got 7.5\n",
    ),
    (
        "gen-wide-group",
        ["gen-dataset", "--spec", "{tmp}/wide-group.json", "--out", "{tmp}/x.csv"],
        None,
        "invalid dataset spec {tmp}/wide-group.json: n_bits must be <= 512, got 600\n",
    ),
    (
        "gen-wide-random",
        ["gen-dataset", "--spec", "{tmp}/wide-random.json", "--out", "{tmp}/x.csv"],
        None,
        "invalid dataset spec {tmp}/wide-random.json: "
        "max_product_bits must be <= 512, got 100000\n",
    ),
    (
        "gen-missing-spec",
        ["gen-dataset", "--spec", "{tmp}/nope.json", "--out", "{tmp}/x.csv"],
        None,
        f"invalid dataset spec {{tmp}}/nope.json: {NO_SUCH_FILE}'{{tmp}}/nope.json'\n",
    ),
    (
        "gen-deep-spec",
        ["gen-dataset", "--spec", "{tmp}/deep.json", "--out", "{tmp}/x.csv"],
        None,
        "invalid dataset spec {tmp}/deep.json: JSON nests too deeply to parse\n",
    ),
    (
        "gen-undrawable-spec",
        ["gen-dataset", "--spec", "{tmp}/undrawable.json", "--out", "{tmp}/x.csv"],
        None,
        "cannot generate {tmp}/undrawable.json: "
        "no 4-bit product of distinct 2/2-bit primes after 10000 attempts\n",
    ),
    (
        "gen-unwritable-out",
        ["gen-dataset", "--spec", "{tmp}/spec.json", "--out", "{tmp}/no-such-dir/x.csv"],
        None,
        f"cannot write {{tmp}}/no-such-dir/x.csv: {NO_SUCH_FILE}'{{tmp}}/no-such-dir/x.csv'\n",
    ),
    (
        "bench-unknown-algos",
        ["bench", "--dataset", "{tmp}/data.csv", "--out", "{tmp}/r.csv", "--algos", "fermat"],
        None,
        "unknown algorithms ['fermat']; valid: a nonempty subset of pollard, qs\n",
    ),
    (
        "bench-repeated-algos",
        ["bench", "--dataset", "{tmp}/data.csv", "--out", "{tmp}/r.csv", "--algos", "qs,qs"],
        None,
        "repeated algorithms in ['qs', 'qs']\n",
    ),
    (
        "bench-empty-algos",
        ["bench", "--dataset", "{tmp}/data.csv", "--out", "{tmp}/r.csv", "--algos", " , "],
        None,
        "unknown algorithms []; valid: a nonempty subset of pollard, qs\n",
    ),
    (
        "bench-workers-zero",
        ["bench", "--dataset", "{tmp}/data.csv", "--out", "{tmp}/r.csv", "--workers", "0"],
        None,
        "workers must be >= 1\n",
    ),
    (
        "bench-timeout-zero",
        ["bench", "--dataset", "{tmp}/data.csv", "--out", "{tmp}/r.csv", "--timeout", "0"],
        None,
        BUDGET,
    ),
    (
        "bench-missing-dataset",
        ["bench", "--dataset", "{tmp}/nope.csv", "--out", "{tmp}/r.csv"],
        None,
        f"cannot read dataset {{tmp}}/nope.csv: {NO_SUCH_FILE}'{{tmp}}/nope.csv'\n",
    ),
    (
        "bench-bad-row",
        ["bench", "--dataset", "{tmp}/bad-row.csv", "--out", "{tmp}/r.csv"],
        None,
        "cannot read dataset {tmp}/bad-row.csv: line 2: p = 15 is not prime\n",
    ),
    (
        "bench-empty-dataset",
        ["bench", "--dataset", "{tmp}/empty.csv", "--out", "{tmp}/r.csv"],
        None,
        "dataset {tmp}/empty.csv has no rows\n",
    ),
    (
        "bench-violation",
        ["bench", "--dataset", "{tmp}/data.csv", "--out", "{tmp}/r.csv", "--seed", "0"],
        _violation,
        "record 0: 98 does not divide 8051\n",
    ),
    (
        "bench-unwritable-out",
        ["bench", "--dataset", "{tmp}/data.csv", "--out", "{tmp}/no-such-dir/r.csv", "--seed", "0"],
        None,
        f"cannot write {{tmp}}/no-such-dir/r.csv: {NO_SUCH_FILE}'{{tmp}}/no-such-dir/r.csv'\n",
    ),
    (
        "report-unreadable-results",
        ["report", "--results", "{tmp}/nope.csv", "--out", "{tmp}/r.md"],
        None,
        f"cannot read results {{tmp}}/nope.csv: {NO_SUCH_FILE}'{{tmp}}/nope.csv'\n",
    ),
    (
        "report-short-row",
        ["report", "--results", "{tmp}/short-row.csv", "--out", "{tmp}/r.md"],
        None,
        "cannot read results {tmp}/short-row.csv: line 2: expected 14 fields\n",
    ),
    (
        "report-nan-elapsed",
        ["report", "--results", "{tmp}/nan-elapsed.csv", "--out", "{tmp}/r.md"],
        None,
        "cannot read results {tmp}/nan-elapsed.csv: "
        "line 2: elapsed_seconds 'nan' is not finite and >= 0\n",
    ),
    (
        "report-unwritable-out",
        ["report", "--results", "{tmp}/results.csv", "--out", "{tmp}/no-such-dir/r.md"],
        None,
        f"cannot write report output: {NO_SUCH_FILE}'{{tmp}}/no-such-dir/r.md'\n",
    ),
    (
        "report-unwritable-points-csv",
        [
            "report", "--results", "{tmp}/results.csv", "--out", "{tmp}/r.md",
            "--points-csv", "{tmp}/no-such-dir/p.csv",
        ],
        None,
        f"cannot write report output: {NO_SUCH_FILE}'{{tmp}}/no-such-dir/p.csv'\n",
    ),
    (
        "report-unwritable-out-writable-points-csv",
        [
            "report", "--results", "{tmp}/results.csv", "--out", "{tmp}/no-such-dir/r.md",
            "--points-csv", "{tmp}/p.csv",
        ],
        None,
        f"cannot write report output: {NO_SUCH_FILE}'{{tmp}}/no-such-dir/r.md'\n",
    ),
]


# the files under {tmp} that a failing command creates or changes, by case
# id; none does now, since `report` removes what it wrote when a later write
# fails
LEFT_BEHIND: dict[str, set[str]] = {}


def _snapshot(root):
    """Every file under `root`, by its path relative to `root`, mapped to its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestUsageFailuresGolden:
    """Every usage failure exits 1 with an empty stdout and one exact
    stderr text, in which {tmp} stands for the test's directory, and leaves
    that directory as it found it but for its LEFT_BEHIND files."""

    @pytest.fixture
    def tmp(self, tmp_path):
        _write_spec(tmp_path / "spec.json", 3, 8, 12, 20)
        _write_spec(tmp_path / "bad-spec.json", 3, 8, 12, 21)
        # 3 is the only 2-bit prime, so no product of two distinct ones exists
        _write_spec(tmp_path / "undrawable.json", 1, 2, 2, 4)
        _write_spec(tmp_path / "float-count.json", 0, 5, 5, 10, count=1.5)
        _write_spec(tmp_path / "wide-group.json", 0, 300, 300, 600)
        for name, bits in (("float-bits.json", 7.5), ("wide-random.json", 100000)):
            doc = {"seed": 0, "random_groups": [{"count": 1, "max_product_bits": bits}]}
            (tmp_path / name).write_text(json.dumps(doc))
        # deeper than the JSON parser's recursion limit
        (tmp_path / "deep.json").write_text("[" * 200000 + "]" * 200000)
        (tmp_path / "data.csv").write_text(DATASET_HEADER + "8051,83,97,7,7,13\n")
        (tmp_path / "bad-row.csv").write_text(DATASET_HEADER + "255,15,17,4,5,8\n")  # 15 = 3 * 5
        (tmp_path / "empty.csv").write_text(DATASET_HEADER)
        shutil.copy(RESULTS_FIXTURE, tmp_path / "results.csv")
        (tmp_path / "short-row.csv").write_text(RESULTS_HEADER + "581363,29,20047,5,15,20,qs\n")
        # a NaN time, then a pollard success with a negative time whose
        # factor 7 does not divide 581363 = 29 * 20047
        (tmp_path / "nan-elapsed.csv").write_text(
            RESULTS_HEADER
            + "581363,29,20047,5,15,20,qs,success,20047,nan,60,600,6,1\n"
            + "581363,29,20047,5,15,20,pollard,success,7,-1.0000000,,,0,2\n"
        )
        return tmp_path

    @pytest.mark.parametrize(
        "case_id, argv, patch, err", [pytest.param(*case, id=case[0]) for case in USAGE_FAILURES]
    )
    def test_exit_code_and_output_pinned(
        self, capsys, monkeypatch, tmp, case_id, argv, patch, err
    ):
        if patch is not None:
            patch(monkeypatch)
        before = _snapshot(tmp)
        code, out, got = run_cli(capsys, *(arg.format(tmp=tmp) for arg in argv))
        assert (code, out, got.replace(str(tmp), "{tmp}")) == (1, "", err)
        after = _snapshot(tmp)
        changed = {name for name in before | after if before.get(name) != after.get(name)}
        assert changed == LEFT_BEHIND.get(case_id, set())

    def test_ids_unique_and_left_behind_keys_name_rows(self):
        ids = [case[0] for case in USAGE_FAILURES]
        assert len(ids) == len(set(ids))
        assert set(LEFT_BEHIND) <= set(ids)

    def test_progress_lines(self, capsys, tmp):
        tmp.joinpath("data.csv").write_text(
            DATASET_HEADER + "8051,83,97,7,7,13\n581363,29,20047,5,15,20\n"
        )
        code, out, err = run_cli(
            capsys, "bench", "--dataset", f"{tmp}/data.csv", "--out", f"{tmp}/r.csv",
            "--seed", "0", "--progress",
        )
        assert (code, err) == (0, "")
        # [<i>/<N>] <algorithm> n=<n> <status> <seconds to 3 decimals>s
        assert [re.sub(r" \d+\.\d{3}s$", " <s>", line) for line in out.splitlines()] == [
            "[1/4] pollard n=8051 success <s>",
            "[2/4] qs n=8051 success <s>",
            "[3/4] pollard n=581363 success <s>",
            "[4/4] qs n=581363 success <s>",
            "pollard: success=2 timeout=0 error=0 exhausted=0",
            "qs: success=2 timeout=0 error=0 exhausted=0",
            f"4 records written to {tmp}/r.csv",
        ]
